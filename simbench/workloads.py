"""The benchmark's four seeded workloads.

Each workload splits into the same four steps:

* ``setup(seed)`` builds the inputs and simulator objects (timed as
  ``setup_s``);
* ``run(state)`` runs the simulation through its public call, in
  slices: it is a generator that yields after each slice, and the
  harness times the slices (as ``wall_s``) and, between them, the
  reference kernel that ``run`` scales host times by;
* ``outputs(state)`` reads the simulated results back as plain data,
  after the timed region; the digest of this dict is the run's
  simulated-output digest;
* ``check(outputs)`` returns the list of broken output invariants
  (empty when the run is correct).

``facts(outputs)`` turns the same dict into the per-layer metrics that
come from the program's own snapshots rather than from spans.

The seed reaches the program only as inputs: the fleet seed, the
permutation, lossy uplink and packet-sim seed of the spray, and the
replay seed.  The
fleet job schedule is the 1024-host scenario's schedule of record
(``CHURN_SEED``), so every seed asks for the same amount of work and
host times stay comparable across seeds.
"""

import random

import repro.net as net
from repro.cluster import FleetSimulation, JobArrivalProcess, PlacementPolicy
from repro.net import DualPlaneTopology, MessageFlow, PacketNetSim
from repro.rnic.cc import WindowCC
from repro.sim.units import GiB, MB, usec
from repro.traces.library import BUNDLED, load_bundled
from repro.traces.replay import TraceReplayer
from repro.workloads.fleet_bench import (
    CHURN_SEED,
    fleet1024_tenants,
    fleet1024_topology,
)

#: Arrival horizon of the fleet workloads, in simulated seconds.  Half of
#: ``fleet_1024_churn``'s 120 s: the first 12 jobs of the same schedule,
#: so one hybrid run stays a few host seconds.
FLEET_HORIZON = 60.0
#: Mid-run uplink failure (simulated seconds).  It lands while the first
#: 64-host pretrain ring is live, so the hybrid run promotes twice (fail
#: and heal) with few rings to price at packet level.
FLEET_FAILURE_AT = 10.0
FLEET_FAILURE_SECONDS = 10.0
#: ``build_fleet1024``'s host shape and page sample.
FLEET_HOST_CONFIG = dict(
    gpus=4, rnics=1, dram_bytes=64 * GiB, gpu_hbm_bytes=2 * GiB,
    atc_capacity=512,
)
FLEET_SAMPLE_PAGES = 256

#: Fig. 9 permutation on the 60-agg dual-plane fabric, OBS over 128
#: paths, 256 KB MTU; the window is simulated seconds of traffic.  Each
#: segment-0 ToR uplink carries ~30 packets in the window, so the lossy
#: one drops ~15 of them (8 to 25 on seeds 1-20) and every seed retransmits.
SPRAY_WINDOW = 0.0015
SPRAY_LOSS = 0.5
#: Equal slices of simulated time the spray window runs in.
SPRAY_SLICES = 30

#: Fresh replayers per bundled trace in one run.
TRACE_REPEATS = 2


class FleetState:
    def __init__(self, fleet, arrivals):
        self.fleet = fleet
        self.arrivals = arrivals


class FleetWorkload:
    """The 1024-host, 3-tenant churn with a mid-run link failure."""

    def __init__(self, name, fidelity, why):
        self.name = name
        self.fidelity = fidelity
        self.why = why

    def setup(self, seed):
        fleet = FleetSimulation(
            fleet1024_topology(),
            policy=PlacementPolicy.SPREAD,
            seed=seed,
            fidelity=self.fidelity,
            host_config=FLEET_HOST_CONFIG,
            sample_pages=FLEET_SAMPLE_PAGES,
        )
        arrivals = JobArrivalProcess(
            fleet1024_tenants(), seed=CHURN_SEED,
        ).generate(FLEET_HORIZON)
        fleet.load(arrivals)
        fleet.inject_link_failure(FLEET_FAILURE_AT, FLEET_FAILURE_SECONDS)
        return FleetState(fleet, len(arrivals))

    def run(self, state):
        # One engine event per slice.  ``max_events`` leaves the clock at
        # the last event, so the outputs equal those of one ``run()``.
        engine = state.fleet.engine
        while engine.peek_time() is not None:
            state.fleet.run(max_events=1)
            yield

    def outputs(self, state):
        fleet = state.fleet
        hits = misses = 0
        for host in fleet.scheduler.hosts:
            atc = host.atc.snapshot()
            hits += atc["hits"]
            misses += atc["misses"]
        return {
            "fidelity": self.fidelity,
            "arrivals": state.arrivals,
            "snapshot": fleet.snapshot(),
            "jobs": fleet.result().rows(),
            "sim_seconds": fleet.engine.now,
            "events": fleet.engine.events_executed,
            "atc_hits": hits,
            "atc_misses": misses,
        }

    def check(self, out):
        snap = out["snapshot"]
        problems = []
        if snap["jobs_submitted"] != out["arrivals"]:
            problems.append("submitted %d of %d arrivals"
                            % (snap["jobs_submitted"], out["arrivals"]))
        if snap["jobs_completed"] + snap["jobs_failed"] != snap["jobs_submitted"]:
            problems.append("completed %d + failed %d != submitted %d" % (
                snap["jobs_completed"], snap["jobs_failed"],
                snap["jobs_submitted"]))
        if snap["jobs_queued"] or snap["jobs_starting"] or snap["jobs_running"]:
            problems.append("fleet did not drain")
        if snap["dp_bytes_fluid"] + snap["dp_bytes_packet"] != snap["dp_bytes_total"]:
            problems.append("dp bytes: fluid %d + packet %d != total %d" % (
                snap["dp_bytes_fluid"], snap["dp_bytes_packet"],
                snap["dp_bytes_total"]))
        if snap["link_failures"] != 1:
            problems.append("expected 1 link failure, saw %d"
                            % snap["link_failures"])
        promoted = snap["fidelity_promotions"] > 0 and snap["dp_bytes_packet"] > 0
        if promoted != (self.fidelity == "hybrid"):
            problems.append("%s run: %d promotions, %d packet-priced bytes" % (
                self.fidelity, snap["fidelity_promotions"],
                snap["dp_bytes_packet"]))
        return problems

    def facts(self, out):
        snap = out["snapshot"]
        lookups = out["atc_hits"] + out["atc_misses"]
        return {
            "memory.atc_hit_ratio": out["atc_hits"] / lookups if lookups else 0.0,
            "cluster.epochs": snap["rate_epochs"],
            "cluster.promotions": snap["fidelity_promotions"],
            "cluster.jobs_completed": snap["jobs_completed"],
            "cluster.sim_makespan_s": out["sim_seconds"],
        }


class SprayState:
    def __init__(self, sim, flows):
        self.sim = sim
        self.flows = flows
        self.results = None


def cross_permutation(servers, rng):
    """A seeded permutation pairing every server with one in the other
    segment, so every flow crosses the agg layer and every seed offers
    the fabric the same load."""
    by_segment = {}
    for server in servers:
        by_segment.setdefault(server.segment, []).append(server)
    first, second = (by_segment[key] for key in sorted(by_segment))
    peers = {}
    for sources, sinks in ((first, second), (second, first)):
        shuffled = list(sinks)
        rng.shuffle(shuffled)
        peers.update(zip(sources, shuffled))
    return [peers[server] for server in servers]


class SprayWorkload:
    """Fig. 9: 30 servers x 4 rails, 120 OBS-128 flows, one lossy uplink."""

    name = "spray_permutation"
    why = ("Fig. 9 permutation, 120 OBS-128 flows with one lossy uplink: "
           "packet sim and event engine only, no cluster, memory or fluid work")

    def setup(self, seed):
        topology = DualPlaneTopology(
            segments=2, servers_per_segment=15, rails=4, planes=2,
            aggs_per_plane=60,
        )
        rng = random.Random(seed)
        servers = list(topology.servers())
        peers = cross_permutation(servers, rng)
        sim = PacketNetSim(topology, seed=seed, ecn_threshold=1 * MB)
        flows = []
        for rail in range(topology.rails):
            for index, (src, dst) in enumerate(zip(servers, peers)):
                flows.append(MessageFlow(
                    sim, "perm-r%d-%d" % (rail, index), src, dst, rail,
                    message_bytes=1000 * MB,
                    algorithm="obs", path_count=128, mtu=256 * 1024,
                    connection_id=rail * len(servers) + index,
                    cc=WindowCC(init_window=2 * 1024 * 1024,
                                additive_bytes=64 * 1024,
                                target_rtt=usec(150)),
                ))
        victim = topology.tor_up(
            0, rng.randrange(topology.rails), rng.randrange(topology.planes),
            rng.randrange(topology.aggs_per_plane),
        )
        sim.inject_loss(victim, SPRAY_LOSS)
        return SprayState(sim, flows)

    def run(self, state):
        # Each ``run_flows`` call resumes where the last one stopped, up to
        # the next deadline.  Through the module attribute, so a traced
        # run sees the calls.
        deadlines = [SPRAY_WINDOW * index / SPRAY_SLICES
                     for index in range(1, SPRAY_SLICES)] + [SPRAY_WINDOW]
        for deadline in deadlines:
            state.results = net.run_flows(state.sim, state.flows,
                                          timeout=deadline)
            yield

    def outputs(self, state):
        port_drops = 0
        for port in state.sim.ports():
            snap = port.snapshot()
            port_drops += snap["drops_random"] + snap["drops_overflow"]
        return {
            "flows": [
                [r.flow_id, r.bytes_acked, r.completion_time,
                 r.retransmissions, r.rtos]
                for r in state.results
            ],
            "sim": state.sim.snapshot(),
            "port_drops": port_drops,
            "events": state.sim.scheduler.events_executed,
            "sim_seconds": state.sim.now,
        }

    def check(self, out):
        sim = out["sim"]
        problems = []
        if sim["packets_sent"] != (sim["packets_delivered"] + sim["packets_dropped"]
                                   + sim["packets_in_flight"]):
            problems.append("packets: sent != delivered + dropped + in flight")
        if sim["packets_in_flight"] < 0:
            problems.append("negative packets in flight")
        if out["port_drops"] != sim["packets_dropped"]:
            problems.append("port drops %d != fabric drops %d"
                            % (out["port_drops"], sim["packets_dropped"]))
        if not sum(flow[3] for flow in out["flows"]):
            problems.append("lossy uplink caused no retransmission")
        stalled = [flow[0] for flow in out["flows"] if flow[1] <= 0]
        if stalled:
            problems.append("flows acked nothing: %s" % ", ".join(stalled[:5]))
        return problems

    def facts(self, out):
        return {}


class TraceState:
    def __init__(self, replayers):
        self.replayers = replayers
        self.results = None


class TraceWorkload:
    """The bundled trace library, each trace replayed by fresh replayers."""

    name = "trace_replay"
    why = ("bundled MoE, RAG and checkpoint traces replayed at fluid "
           "fidelity: many small run-to-completion fluid solves, the only "
           "user of repro.traces")

    def setup(self, seed):
        replayers = []
        for trace_name in BUNDLED:
            trace = load_bundled(trace_name)
            for _ in range(TRACE_REPEATS):
                replayers.append(TraceReplayer(trace, fidelity="fluid", seed=seed))
        return TraceState(replayers)

    def run(self, state):
        state.results = []
        for replayer in state.replayers:
            state.results.append(replayer.run())
            yield

    def outputs(self, state):
        return {
            "replays": [
                {
                    "trace": result.trace_name,
                    "ops": len(replayer.trace.ops),
                    "replayed": len(result.op_log),
                    "makespan": result.makespan,
                    "setup_seconds": result.setup_seconds,
                    "op_log": result.op_log,
                    "kinds": result.kind_counts,
                    "bytes_moved": result.bytes_moved,
                    "events": result.events_executed,
                    "pricing_events": replayer.pricing_events,
                }
                for replayer, result in zip(state.replayers, state.results)
            ],
        }

    def check(self, out):
        problems = []
        makespans = {}
        for replay in out["replays"]:
            if replay["replayed"] != replay["ops"]:
                problems.append("%s: %d of %d ops completed" % (
                    replay["trace"], replay["replayed"], replay["ops"]))
            makespans.setdefault(replay["trace"], set()).add(replay["makespan"])
        for trace_name, seen in makespans.items():
            if len(seen) != 1:
                problems.append("%s: repeat replays disagree on makespan %s"
                                % (trace_name, sorted(seen)))
        return problems

    def facts(self, out):
        replays = out["replays"]
        return {
            "traces.ops": sum(replay["replayed"] for replay in replays),
            "traces.pricing_events": sum(r["pricing_events"] for r in replays),
            "traces.makespan_s": sum(replay["makespan"] for replay in replays),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "fleet_fluid", "fluid",
            "1024-host 3-tenant churn with a link failure, every epoch "
            "fluid-priced: ATC page touches and fluid epoch solves, packet "
            "layer idle",
        ),
        FleetWorkload(
            "fleet_hybrid", "hybrid",
            "same arrivals at hybrid fidelity: the cluster and ATC work plus "
            "packet-priced windows around the failure (many short rings, a "
            "failed link as 100% loss)",
        ),
        SprayWorkload(),
        TraceWorkload(),
    )
}
