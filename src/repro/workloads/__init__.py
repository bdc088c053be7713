"""Workload harnesses: perftest analogs, GDR sweeps, startup timing,
fleet-scale churn scenarios."""

from repro.workloads.fleet_bench import (
    CHURN_SEED,
    build_churn_fleet,
    build_fleet1024,
    churn_tenants,
    churn_topology,
    fleet1024_tenants,
    fleet1024_topology,
    run_churn,
    run_fleet1024_smoke,
    run_fleet_smoke,
    smoke_specs,
)
from repro.workloads.gdr_bench import (
    AtcMissExperiment,
    GdrSweepRow,
    default_gdr_sizes,
    emtt_sweep,
    gdr_datapath_curve,
)
from repro.workloads.perftest import (
    PROFILES,
    DatapathProfile,
    PerftestRow,
    default_message_sizes,
    run_functional_perftest,
    run_perftest,
    write_bandwidth,
    write_latency,
)
from repro.workloads.startup import StartupRow, measure_startup

__all__ = [
    "AtcMissExperiment",
    "CHURN_SEED",
    "GdrSweepRow",
    "build_churn_fleet",
    "build_fleet1024",
    "churn_tenants",
    "churn_topology",
    "default_gdr_sizes",
    "emtt_sweep",
    "fleet1024_tenants",
    "fleet1024_topology",
    "gdr_datapath_curve",
    "run_churn",
    "run_fleet1024_smoke",
    "run_fleet_smoke",
    "smoke_specs",
    "PROFILES",
    "DatapathProfile",
    "PerftestRow",
    "default_message_sizes",
    "run_functional_perftest",
    "run_perftest",
    "write_bandwidth",
    "write_latency",
    "StartupRow",
    "measure_startup",
]
