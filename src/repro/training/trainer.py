"""Iteration-time simulation: compute + communication on the fabric.

Two layers:

* :func:`iteration_breakdown` — the analytic cost model behind Table 1:
  per-dimension communication volumes over effective bandwidths, with
  per-framework overlap factors.
* :class:`TrainingSimulation` — the Figure 15/16 driver: the job's DP-ring
  bandwidth is *measured* on the fluid network simulator under a given
  placement and transport, then fed into the cost model, so transport
  gains emerge from simulated congestion rather than assumed factors.
"""

from repro import calibration
from repro.collectives.allreduce import RingAllReduceTask
from repro.net.fluid_sim import FluidSimulation
from repro.net.topology import DualPlaneTopology
from repro.sim.units import GB
from repro.training.comms import comm_volumes, compute_flops
from repro.training.models import Framework
from repro.training.parallelism import Placement, place_job


#: Effective rates and overlap fractions of the cost model, calibrated so
#: the four Table 1 jobs land in the paper's 10%–32% total-communication
#: band (see EXPERIMENTS.md for the fit).
_GPU_FLOPS = 140e12           # sustained bf16 FLOP/s per GPU (~45% MFU)
_TP_BANDWIDTH = 60e9          # NVLink effective B/s for TP messages
_NETWORK_BANDWIDTH = 25e9     # B/s per GPU (400G RNIC shared by 2 GPUs)
INTRA_SERVER_DP_BANDWIDTH = 100e9  # small jobs: NVLink-assisted DP
_TP_OVERLAP = 0.0             # TP all-reduces are blocking
_DP_OVERLAP = 0.30            # gradient all-reduce partially hidden
_ZERO3_OVERLAP = 0.95         # ZeRO-3 prefetch hides most gathers
_PP_OVERLAP = 0.50            # pipelining hides half the P2P time
_EP_OVERLAP = 0.30

#: DP-ring measurement: simulated seconds and fluid step.
_MEASURE_SECONDS = 0.06
_MEASURE_DT = 0.01


class IterationBreakdown:
    """Where one training iteration's time goes."""

    def __init__(self, compute, tp, dp, pp, ep):
        self.compute = compute
        self.tp = tp
        self.dp = dp
        self.pp = pp
        self.ep = ep

    @property
    def total(self):
        return self.compute + self.tp + self.dp + self.pp + self.ep

    @property
    def comm_total(self):
        return self.tp + self.dp + self.pp + self.ep

    def ratio(self, dimension):
        """Share of iteration time spent in one dimension ('tp'/'dp'/...)."""
        return getattr(self, dimension) / self.total

    @property
    def comm_ratio(self):
        return self.comm_total / self.total

    @property
    def speed(self):
        """Training speed: iterations per second."""
        return 1.0 / self.total

    def __repr__(self):
        return (
            "IterationBreakdown(total=%.2fs, compute=%.2fs, tp=%.1f%%, "
            "dp=%.1f%%, pp=%.1f%%, ep=%.1f%%)"
            % (
                self.total,
                self.compute,
                100 * self.ratio("tp"),
                100 * self.ratio("dp"),
                100 * self.ratio("pp"),
                100 * self.ratio("ep"),
            )
        )


def iteration_breakdown(model, strategy, framework, dp_bandwidth=None,
                        overhead_factor=0.0):
    """The analytic iteration-time model.

    ``dp_bandwidth`` overrides the default DP rate — this is the hook the
    network simulator feeds measured rates through.  ``overhead_factor``
    inflates the total (e.g. a virtualization tax).
    """
    volumes = comm_volumes(model, strategy, framework)
    compute = compute_flops(model, strategy) / _GPU_FLOPS

    tp_time = 0.0
    if volumes.tp:
        tp_time = volumes.tp / _TP_BANDWIDTH * (1 - _TP_OVERLAP)

    if dp_bandwidth is None:
        small_job = strategy.gpus <= 2 * calibration.SERVER_GPUS
        dp_bandwidth = (
            INTRA_SERVER_DP_BANDWIDTH if small_job else _NETWORK_BANDWIDTH
        )
    dp_overlap = (
        _ZERO3_OVERLAP if framework is Framework.DEEPSPEED_ZERO3
        else _DP_OVERLAP
    )
    dp_time = volumes.dp / dp_bandwidth * (1 - dp_overlap) if volumes.dp else 0.0

    pp_time = 0.0
    if strategy.pp > 1:
        p2p = volumes.pp / _NETWORK_BANDWIDTH * (1 - _PP_OVERLAP)
        # The 1F1B pipeline bubble idles each stage for (pp-1) of the
        # (ga + pp - 1) slots — time charged to "PP communication" by the
        # paper's accounting.
        bubble_fraction = (strategy.pp - 1) / (strategy.grad_accum + strategy.pp - 1)
        pp_time = p2p + bubble_fraction * (compute + tp_time)

    ep_time = 0.0
    if volumes.ep:
        ep_time = volumes.ep / _NETWORK_BANDWIDTH * (1 - _EP_OVERLAP)

    breakdown = IterationBreakdown(compute, tp_time, dp_time, pp_time, ep_time)
    if overhead_factor:
        scale = 1.0 + overhead_factor
        breakdown = IterationBreakdown(
            compute * scale, tp_time * scale, dp_time * scale,
            pp_time * scale, ep_time * scale,
        )
    return breakdown


class TransportConfig:
    """How a NIC generation drives the network."""

    def __init__(self, name, algorithm, path_count):
        self.name = name
        self.algorithm = algorithm
        self.path_count = path_count

    def __repr__(self):
        return "TransportConfig(%r, %s x %d)" % (
            self.name, self.algorithm, self.path_count,
        )


#: The Figure 16 contenders.  The CX7 SOTA runs a handful of static NCCL
#: QPs (each pinned to one ECMP path); Stellar sprays 128 ways.
TRANSPORTS = {
    "cx7": TransportConfig("CX7 SOTA", "rr", 4),
    "stellar": TransportConfig("Stellar", "obs", calibration.SPRAY_PATH_COUNT),
}

#: Residual per-iteration overhead of running inside a secure container
#: with vStellar (control path is off the data path; Figure 15 shows
#: "nearly identical" performance).
VSTELLAR_VIRT_OVERHEAD = 0.002


class TrainingSimulation:
    """Measures network-limited training speed on the fluid simulator."""

    def __init__(self, topology=None, seed=0,
                 gpus_per_server=calibration.SERVER_GPUS):
        self.topology = topology if topology is not None else DualPlaneTopology(
            segments=2,
            servers_per_segment=64,
            rails=calibration.SERVER_RNICS,
            aggs_per_plane=calibration.AGG_SWITCHES_PER_PLANE,
        )
        self.seed = seed
        self.gpus_per_server = gpus_per_server

    def measure_dp_bandwidth(self, gpu_count, placement, transport):
        """Run the job's DP rings on the fabric; return B/s per GPU.

        ``placement`` picks the ring's servers (:func:`place_job`).  The
        ring turns at its slowest member's rate, so the measured
        bottleneck rate per RNIC (divided by the GPUs sharing it) is the
        gradient-all-reduce bandwidth the cost model should see.
        """
        servers = place_job(
            gpu_count, self.topology, placement,
            seed=self.seed, gpus_per_server=self.gpus_per_server,
        )
        sim = FluidSimulation(self.topology, dt=_MEASURE_DT, seed=self.seed)
        task = RingAllReduceTask(
            "dp-ring",
            servers,
            data_bytes=int(1 * GB),
            rails=self.topology.rails,
            algorithm=transport.algorithm,
            path_count=transport.path_count,
        )
        task.launch(sim, continuous=True)
        sim.run(duration=_MEASURE_SECONDS)
        per_rnic = task.bus_bandwidth_bytes()
        gpus_per_rnic = self.gpus_per_server / self.topology.rails
        return per_rnic / gpus_per_rnic

    def train(self, model, strategy, framework=Framework.MEGATRON,
              placement=Placement.RANDOM, transport="stellar",
              secure_container=False, dp_bandwidth=None):
        """Full pipeline: measure DP bandwidth, then build the breakdown.

        ``dp_bandwidth`` skips the measurement when the caller already
        measured the fabric (the fleet simulation shares one measurement
        across a congestion epoch).
        """
        transport_config = (
            TRANSPORTS[transport] if isinstance(transport, str) else transport
        )
        if dp_bandwidth is None:
            dp_bandwidth = self.measure_dp_bandwidth(
                strategy.gpus, placement, transport_config
            )
        overhead = VSTELLAR_VIRT_OVERHEAD if secure_container else 0.0
        return iteration_breakdown(
            model,
            strategy,
            framework,
            dp_bandwidth=dp_bandwidth,
            overhead_factor=overhead,
        )
