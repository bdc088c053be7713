"""Network substrate: dual-plane rail-optimized topology, ECMP hashing,
and three simulators at different fidelities — static port loads
(:mod:`repro.net.loadmodel`), packet-level DES
(:mod:`repro.net.packet_sim`), and flow-level fluid
(:mod:`repro.net.fluid_sim`) — plus failure injection.
"""

from repro.net.ecmp import EcmpHasher, flow_entropy, hash_combine, splitmix64
from repro.net.failure import (
    FailureScenario,
    bgp_reroute,
    effective_loss_rate,
    pick_victim_uplink,
)
from repro.net.fluid_sim import FluidFlow, FluidSimulation
from repro.net.loadmodel import PortLoads, StaticLoadModel
from repro.net.packet_sim import (
    DEFAULT_ECN_THRESHOLD_BYTES,
    DEFAULT_MAX_QUEUE_BYTES,
    FlowResult,
    HOP_PROPAGATION_SECONDS,
    MessageFlow,
    PacketNetSim,
    PortState,
    run_flows,
)
from repro.net.topology import (
    ConnectionPaths,
    DualPlaneTopology,
    LinkRef,
    ServerAddress,
)

__all__ = [
    "EcmpHasher",
    "flow_entropy",
    "hash_combine",
    "splitmix64",
    "FailureScenario",
    "bgp_reroute",
    "effective_loss_rate",
    "pick_victim_uplink",
    "FluidFlow",
    "FluidSimulation",
    "PortLoads",
    "StaticLoadModel",
    "DEFAULT_ECN_THRESHOLD_BYTES",
    "DEFAULT_MAX_QUEUE_BYTES",
    "FlowResult",
    "HOP_PROPAGATION_SECONDS",
    "MessageFlow",
    "PacketNetSim",
    "PortState",
    "run_flows",
    "ConnectionPaths",
    "DualPlaneTopology",
    "LinkRef",
    "ServerAddress",
]
