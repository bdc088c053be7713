"""Fleet-scale churn scenarios: the 16-host / 3-tenant benchmark.

The canonical scenario (``run_churn``) puts three tenants with very
different footprints on one shared 16-host, dual-plane fabric:

* ``svc``    — small PVDMA inference-tuning jobs (2 x 2 GPUs, 4 GiB),
  Stellar transport.  Cheap to start, frequent.
* ``train``  — Llama-13B training (8 x 4 GPUs, 16 GiB), Stellar 128-way
  spray.  The fleet's bandwidth (and GPU) hog.
* ``legacy`` — a tenant still on VFIO FULL_PIN + a 4-QP CX7-style
  transport, one switch-LUT entry per container, in two memory sizes
  (8 and 32 GiB) — the Figure 6 cold-start curve and the failure-
  sensitive victim of Figure 11, at fleet scale.

Mid-run, one ToR uplink carrying live sprayed traffic fails for a
while (``repro.net.failure`` semantics), then heals.

Everything derives from a single seed: double runs are digest-equal
(see ``repro.obs.determinism.check_fleet_determinism``), and the small
ATC (512 pages vs ~1024 sampled working-set pages per host under
co-location) makes multi-tenant miss rates visibly climb.
"""

from repro.cluster import (
    FleetSimulation,
    JobArrivalProcess,
    JobSpec,
    PlacementPolicy,
    TenantProfile,
)
from repro.net.topology import DualPlaneTopology
from repro.sim.units import GiB, MiB
from repro.virt.hypervisor import MemoryMode

#: Seed of record for the churn scenario (EXPERIMENTS.md quotes it).
CHURN_SEED = 17

#: Arrival horizon in simulated seconds; the run itself drains fully.
_CHURN_HORIZON = 240.0

#: Mid-run uplink failure window (simulated seconds).  Timed to land on
#: peak contention, when the failure-sensitive 4-QP legacy tenant is
#: live alongside the spray-armored svc/train jobs — the fleet-scale
#: Figure 11 contrast (and the incident the health report attributes).
CHURN_FAILURE_AT = 140.0
CHURN_FAILURE_SECONDS = 45.0


def churn_topology():
    """16 servers, two ToR segments, dual planes, two rails."""
    return DualPlaneTopology(
        segments=2, servers_per_segment=8, rails=2, planes=2, aggs_per_plane=4,
    )


def churn_tenants():
    """The three tenant profiles of the canonical scenario."""
    return [
        TenantProfile(
            "svc",
            arrival_rate=1.0 / 25.0,
            max_jobs=6,
            templates=[dict(
                model="Llama-2B", containers=2, gpus_per_container=2,
                memory_bytes=4 * GiB, working_set_bytes=8 * MiB,
                iterations=250, transport="stellar",
            )],
        ),
        TenantProfile(
            "train",
            arrival_rate=1.0 / 40.0,
            max_jobs=4,
            templates=[dict(
                model="Llama-13B", containers=8, gpus_per_container=4,
                memory_bytes=16 * GiB, working_set_bytes=16 * MiB,
                iterations=80, transport="stellar",
            )],
        ),
        TenantProfile(
            "legacy",
            arrival_rate=1.0 / 45.0,
            max_jobs=4,
            templates=[
                dict(
                    model="Llama-2B", containers=2, gpus_per_container=4,
                    memory_bytes=8 * GiB, working_set_bytes=8 * MiB,
                    iterations=200, memory_mode=MemoryMode.FULL_PIN,
                    transport="cx7", lut_entries_per_container=1,
                ),
                dict(
                    model="Llama-2B", containers=2, gpus_per_container=4,
                    memory_bytes=32 * GiB, working_set_bytes=8 * MiB,
                    iterations=200, memory_mode=MemoryMode.FULL_PIN,
                    transport="cx7", lut_entries_per_container=1,
                ),
            ],
        ),
    ]


def build_churn_fleet(seed=CHURN_SEED, tracer=None, registry=None,
                      policy=PlacementPolicy.SPREAD, tenants=None,
                      horizon=_CHURN_HORIZON, failure=True, flight=None,
                      trace_recorder=None, fidelity="fluid"):
    """Assemble (but do not run) the 16-host / 3-tenant churn scenario.

    ``SPREAD`` placement is the scenario default: it scatters rings
    across both segments, which is what makes the uplink failure land on
    real traffic and the shared fabric genuinely contended.
    """
    topology = churn_topology()
    fleet = FleetSimulation(
        topology,
        policy=policy,
        seed=seed,
        tracer=tracer,
        flight=flight,
        trace_recorder=trace_recorder,
        fidelity=fidelity,
        host_config=dict(
            gpus=4, rnics=2, dram_bytes=64 * GiB, gpu_hbm_bytes=2 * GiB,
            atc_capacity=512,
        ),
        sample_pages=512,
    )
    if tenants is None:
        tenants = churn_tenants()
    arrivals = JobArrivalProcess(tenants, seed=seed).generate(horizon)
    fleet.load(arrivals)
    if failure:
        fleet.inject_link_failure(CHURN_FAILURE_AT, CHURN_FAILURE_SECONDS)
    if registry is not None:
        fleet.register_metrics(registry)
    return fleet


def run_churn(seed=CHURN_SEED, tracer=None, registry=None,
              policy=PlacementPolicy.SPREAD, tenants=None,
              horizon=_CHURN_HORIZON, failure=True, flight=None,
              trace_recorder=None, fidelity="fluid"):
    """Run the churn scenario to drain; returns ``(fleet, result)``."""
    fleet = build_churn_fleet(
        seed=seed, tracer=tracer, registry=registry, policy=policy,
        tenants=tenants, horizon=horizon, failure=failure, flight=flight,
        trace_recorder=trace_recorder, fidelity=fidelity,
    )
    result = fleet.run()
    return fleet, result


def smoke_specs():
    """Three tiny fixed jobs for the probe/CI smoke scenario."""
    return [
        JobSpec(
            "smoke-pvdma", "svc", model="Llama-2B", containers=2,
            gpus_per_container=1, memory_bytes=1 * GiB,
            working_set_bytes=4 * MiB, iterations=4, transport="stellar",
        ),
        JobSpec(
            "smoke-pinned", "legacy", model="Llama-2B", containers=2,
            gpus_per_container=1, memory_bytes=2 * GiB,
            working_set_bytes=4 * MiB, iterations=4,
            memory_mode=MemoryMode.FULL_PIN, transport="cx7",
            lut_entries_per_container=1,
        ),
        # Queues behind the first two (the hosts are full), then crashes
        # mid-run: exercises the FIFO queue and the abnormal-exit release.
        JobSpec(
            "smoke-abort", "svc", model="Llama-2B", containers=2,
            gpus_per_container=1, memory_bytes=1 * GiB,
            working_set_bytes=4 * MiB, iterations=50, transport="stellar",
            abort_after=1.0,
        ),
    ]


#: Paper-scale fleet (Section 2: 512-1024-GPU jobs on the production
#: HPN cluster).  Same 3-tier dual-plane shape as the 16-host scenario,
#: scaled to 1024 hosts — the workload the vectorized fluid engine and
#: the topology's spray memo exist for.
_FLEET1024_HORIZON = 120.0
_FLEET1024_FAILURE_AT = 60.0
_FLEET1024_FAILURE_SECONDS = 20.0


def fleet1024_topology():
    """1024 servers: 16 ToR segments x 64, dual planes, 8 aggs/plane."""
    return DualPlaneTopology(
        segments=16, servers_per_segment=64, rails=1, planes=2,
        aggs_per_plane=8,
    )


def fleet1024_tenants():
    """Three tenants sized for the 1024-host fabric.

    ``pretrain`` books 64-host 256-GPU spray rings (the paper's
    512-1024-GPU band at 4 GPUs/host), ``mid`` runs 16-host fine-tunes,
    and ``svc`` keeps small 2-host jobs churning through the queue.
    """
    return [
        TenantProfile(
            "pretrain",
            arrival_rate=1.0 / 25.0,
            max_jobs=6,
            templates=[dict(
                model="Llama-13B", containers=64, gpus_per_container=4,
                memory_bytes=16 * GiB, working_set_bytes=16 * MiB,
                iterations=40, transport="stellar",
            )],
        ),
        TenantProfile(
            "mid",
            arrival_rate=1.0 / 15.0,
            max_jobs=8,
            templates=[dict(
                model="Llama-2B", containers=16, gpus_per_container=4,
                memory_bytes=8 * GiB, working_set_bytes=8 * MiB,
                iterations=60, transport="stellar",
            )],
        ),
        TenantProfile(
            "svc",
            arrival_rate=1.0 / 10.0,
            max_jobs=10,
            templates=[dict(
                model="Llama-2B", containers=2, gpus_per_container=2,
                memory_bytes=4 * GiB, working_set_bytes=8 * MiB,
                iterations=120, transport="cx7",
            )],
        ),
    ]


def build_fleet1024(seed=CHURN_SEED, tracer=None, registry=None,
                    policy=PlacementPolicy.SPREAD, horizon=_FLEET1024_HORIZON,
                    failure=True, flight=None, trace_recorder=None,
                    fidelity="fluid"):
    """Assemble (but do not run) the 1024-host churn scenario."""
    topology = fleet1024_topology()
    fleet = FleetSimulation(
        topology,
        policy=policy,
        seed=seed,
        tracer=tracer,
        flight=flight,
        trace_recorder=trace_recorder,
        fidelity=fidelity,
        host_config=dict(
            gpus=4, rnics=1, dram_bytes=64 * GiB, gpu_hbm_bytes=2 * GiB,
            atc_capacity=512,
        ),
        sample_pages=256,
    )
    arrivals = JobArrivalProcess(fleet1024_tenants(), seed=seed).generate(horizon)
    fleet.load(arrivals)
    if failure:
        fleet.inject_link_failure(_FLEET1024_FAILURE_AT, _FLEET1024_FAILURE_SECONDS)
    if registry is not None:
        fleet.register_metrics(registry)
    return fleet


def run_fleet1024_smoke(seed=CHURN_SEED, tracer=None, registry=None,
                        flight=None, trace_recorder=None, fidelity="fluid"):
    """The CI smoke leg of the 1024-host scenario.

    Identical 1024-host topology — smoke shrinks the *workload*, never
    the shape — with three fixed jobs (one 8-host ring, one 2-host CX7
    job, one queued-then-completing svc job) and one short uplink
    failure landing mid-run.
    """
    fleet = FleetSimulation(
        fleet1024_topology(),
        policy=PlacementPolicy.SPREAD,
        seed=seed,
        tracer=tracer,
        flight=flight,
        trace_recorder=trace_recorder,
        fidelity=fidelity,
        host_config=dict(
            gpus=4, rnics=1, dram_bytes=64 * GiB, gpu_hbm_bytes=2 * GiB,
            atc_capacity=512,
        ),
        sample_pages=256,
    )
    specs = [
        JobSpec(
            "smoke1024-ring", "mid", model="Llama-2B", containers=8,
            gpus_per_container=4, memory_bytes=8 * GiB,
            working_set_bytes=8 * MiB, iterations=8, transport="stellar",
        ),
        JobSpec(
            "smoke1024-legacy", "svc", model="Llama-2B", containers=2,
            gpus_per_container=2, memory_bytes=4 * GiB,
            working_set_bytes=4 * MiB, iterations=8, transport="cx7",
        ),
        JobSpec(
            "smoke1024-svc", "svc", model="Llama-2B", containers=2,
            gpus_per_container=2, memory_bytes=4 * GiB,
            working_set_bytes=4 * MiB, iterations=8, transport="stellar",
        ),
    ]
    for offset, spec in enumerate(specs):
        fleet.submit(spec, at=float(offset))
    fleet.inject_link_failure(at=6.0, duration=3.0)
    if registry is not None:
        fleet.register_metrics(registry)
    result = fleet.run()
    return fleet, result


def run_fleet_smoke(seed=CHURN_SEED, tracer=None, registry=None, flight=None,
                    trace_recorder=None, fidelity="fluid"):
    """A seconds-fast 2-segment fleet exercising every churn code path.

    Two hosts, three fixed jobs (PVDMA/Stellar, FULL_PIN/CX7, and one
    that queues then aborts), one short uplink failure.  This is the
    fleet leg of the full-stack probe and of the determinism harness's
    cheap checks.
    """
    topology = DualPlaneTopology(
        segments=2, servers_per_segment=1, rails=1, planes=2, aggs_per_plane=2,
    )
    fleet = FleetSimulation(
        topology,
        policy=PlacementPolicy.SPREAD,
        seed=seed,
        tracer=tracer,
        flight=flight,
        trace_recorder=trace_recorder,
        fidelity=fidelity,
        host_config=dict(
            gpus=2, rnics=1, dram_bytes=8 * GiB, gpu_hbm_bytes=1 * GiB,
            atc_capacity=256,
        ),
        sample_pages=64,
    )
    for offset, spec in enumerate(smoke_specs()):
        fleet.submit(spec, at=float(offset))
    fleet.inject_link_failure(at=8.0, duration=4.0)
    if registry is not None:
        fleet.register_metrics(registry)
    result = fleet.run()
    return fleet, result
