"""Stellar's core contributions: PVDMA on-demand pinning, the eMTT GDR
datapath, multi-path packet spraying, vStellar devices, and the assembled
:class:`~repro.core.stellar.StellarHost`.
"""

from repro.core.emtt import (
    EmttError,
    EmttRegistrar,
    RcRoutedRegistrar,
    gpu_hpa_chunks,
    host_gpa_chunks,
)
from repro.core.pvdma import (
    HazardOutcome,
    MapCacheStats,
    PvdmaEngine,
    PvdmaError,
    run_doorbell_hazard_scenario,
)
from repro.core.spray import (
    ALGORITHMS,
    BestRttSelector,
    DwrrSelector,
    MpRdmaSelector,
    ObliviousSpraySelector,
    PathSelector,
    RoundRobinSelector,
    SinglePathSelector,
    SprayConnection,
    make_selector,
)
from repro.core.stellar import LaunchRecord, StellarHost
from repro.core.vstellar import StellarRnic, VStellarDevice, VStellarError

__all__ = [
    "EmttError",
    "EmttRegistrar",
    "RcRoutedRegistrar",
    "gpu_hpa_chunks",
    "host_gpa_chunks",
    "HazardOutcome",
    "MapCacheStats",
    "PvdmaEngine",
    "PvdmaError",
    "run_doorbell_hazard_scenario",
    "ALGORITHMS",
    "BestRttSelector",
    "DwrrSelector",
    "MpRdmaSelector",
    "ObliviousSpraySelector",
    "PathSelector",
    "RoundRobinSelector",
    "SinglePathSelector",
    "SprayConnection",
    "make_selector",
    "LaunchRecord",
    "StellarHost",
    "StellarRnic",
    "VStellarDevice",
    "VStellarError",
]
