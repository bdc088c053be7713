"""Replay a trace DAG through the simulated Stellar stack.

The :class:`TraceReplayer` is a deterministic DAG executor over
:class:`~repro.sim.engine.EventScheduler`: an op starts the moment its
last dependency completes (the schema encodes rank serialization as
chain deps, so the replayer honors *only* explicit edges), and its
duration comes from the requested fidelity:

* ``fluid`` (default) prices every communication op on a fresh seeded
  :class:`~repro.net.fluid_sim.FluidSimulation` over the replay topology
  — collectives become ring flows (allreduce uses the same ``2(n-1)/n``
  wire accounting as :mod:`repro.collectives.allreduce`), alltoall the
  pairwise mesh with per-sender skew weights, sends a single flow.
* ``packet`` drives the same flows through
  :class:`~repro.net.packet_sim.PacketNetSim` as
  :class:`~repro.net.packet_sim.MessageFlow` messages — record a fleet
  run at fluid fidelity, replay one job's trace standalone at
  packet-level fidelity.
* ``recorded`` replays the durations captured at record time verbatim
  (falling back to fluid pricing for ops that carry none).

Rank ``r`` maps to server ``(r % segments, r // segments)`` so collective
groups always cross segments (the interesting case for the dual-plane
fabric), and by default the replayer boots a real
:class:`~repro.core.stellar.StellarHost` with one RunD container per rank
— the measured boot + device seconds delay the first ops exactly like a
cold fleet job.

Identical-shaped comm ops are priced once and memoized, so steady-state
training traces replay in O(unique op shapes) network solves.
"""

import math

from repro.net.fluid_sim import FluidSimulation
from repro.net.topology import DualPlaneTopology, ServerAddress
from repro.sim.engine import EventScheduler
from repro.sim.rng import derive_seed
from repro.traces.schema import (
    COMPUTE,
    TraceError,
    collective_wire_bytes,
    validate_trace,
)

#: Path fan-out per flow during replay pricing (= planes * aggs_per_plane
#: of the default replay topology, so every ECMP bucket is used).
_REPLAY_PATHS = 8

#: Fluid pricing resolves a transfer into ~this many solver steps.
_PRICE_STEPS = 32

#: One container per rank, 2 GiB — enough for PVDMA bookkeeping to be
#: exercised without dominating replay setup.
_CONTAINER_BYTES = 2 * 1024 ** 3


def default_topology(ranks):
    """A small dual-plane fabric big enough for ``ranks`` ranks.

    Two segments force cross-segment traffic; four aggs per plane keep
    the fluid link table small while leaving 8 equivalent paths.
    """
    segments = 2 if ranks > 1 else 1
    per_segment = max(1, int(math.ceil(ranks / float(segments))))
    return DualPlaneTopology(
        segments=segments,
        servers_per_segment=per_segment,
        aggs_per_plane=_REPLAY_PATHS // 2,
    )


def rank_server(rank, topology):
    """The server a logical rank occupies (round-robin over segments)."""
    return ServerAddress(rank % topology.segments, rank // topology.segments)


class ReplayResult:
    """What one replay produced: timeline, per-kind counters, digests."""

    __slots__ = ("trace_name", "fidelity", "makespan", "setup_seconds",
                 "op_log", "kind_counts", "bytes_moved", "events_executed")

    def __init__(self, trace_name, fidelity, makespan, setup_seconds,
                 op_log, kind_counts, bytes_moved, events_executed):
        self.trace_name = trace_name
        self.fidelity = fidelity
        self.makespan = makespan
        self.setup_seconds = setup_seconds
        self.op_log = op_log
        self.kind_counts = kind_counts
        self.bytes_moved = bytes_moved
        self.events_executed = events_executed

    def op_sequence(self, kinds=None):
        """Op ids in completion order (ties broken by trace file order).

        ``kinds`` filters, e.g. the collective sequence a record→replay
        round trip must reproduce exactly.
        """
        entries = self.op_log
        if kinds is not None:
            wanted = set(kinds)
            entries = [e for e in entries if e["kind"] in wanted]
        return [e["id"] for e in entries]

    def to_row(self):
        """JSON-plain summary row (what runner tasks return)."""
        return {
            "trace": self.trace_name,
            "fidelity": self.fidelity,
            "makespan": round(self.makespan, 9),
            "setup_seconds": round(self.setup_seconds, 9),
            "ops": len(self.op_log),
            "kind_counts": dict(self.kind_counts),
            "bytes_moved": self.bytes_moved,
            "events_executed": self.events_executed,
            "op_sequence": self.op_sequence(),
        }

    def __repr__(self):
        return "ReplayResult(%r, %s, ops=%d, makespan=%.6fs)" % (
            self.trace_name, self.fidelity, len(self.op_log), self.makespan,
        )


class TraceReplayer:
    """Drive a validated trace through the simulated stack."""

    def __init__(self, trace, topology=None, fidelity="fluid", seed=0,
                 registry=None, flight=None, tracer=None, boot_hosts=True):
        if fidelity not in ("fluid", "packet", "recorded"):
            raise TraceError("unknown replay fidelity %r" % fidelity)
        problems = validate_trace(trace)
        if problems:
            raise TraceError("trace %r is invalid: %s"
                             % (trace.name, "; ".join(problems[:5])))
        self.trace = trace
        self.topology = topology or default_topology(trace.ranks)
        if (self.topology.segments * self.topology.servers_per_segment
                < trace.ranks):
            raise TraceError(
                "topology has %d servers but trace %r needs %d ranks"
                % (self.topology.segments * self.topology.servers_per_segment,
                   trace.name, trace.ranks)
            )
        self.fidelity = fidelity
        self.seed = seed
        self.registry = registry
        self.flight = flight
        self.tracer = tracer
        self.boot_hosts = boot_hosts
        self.scheduler = EventScheduler(tracer=tracer)
        self.hosts = {}
        self._servers = {
            rank: rank_server(rank, self.topology)
            for rank in range(trace.ranks)
        }
        #: shape key -> priced seconds; identical comm ops solve once.
        self._price_cache = {}
        #: network-solver work done pricing ops (fluid steps / packet
        #: events) — reported beside scheduler events as simbench's
        #: ``traces.pricing_events``.
        self.pricing_events = 0
        self._op_log = []
        self._kind_counts = {}
        self._bytes_moved = 0
        self._remaining = {}
        self._dependents = {}
        self._index = {}
        self._finished = 0
        self._last_result = None
        if registry is not None:
            registry.add_provider("traces", self._metrics_snapshot)

    # -- metrics / flight ------------------------------------------------

    def _metrics_snapshot(self):
        result = self._last_result
        return {
            "replay": {
                "trace": self.trace.name,
                "fidelity": self.fidelity,
                "ops_total": len(self.trace.ops),
                "ops_replayed": len(self._op_log),
                "bytes_moved": self._bytes_moved,
                "makespan": result.makespan if result else None,
                "price_cache_entries": len(self._price_cache),
            }
        }

    def _record_flight(self, t, kind, **payload):
        if self.flight is not None:
            self.flight.record(t, "traces", kind, entity=self.trace.name,
                               **payload)

    # -- host bring-up ---------------------------------------------------

    def _boot_hosts(self):
        """One StellarHost per distinct server, one container per rank.

        Returns the slowest launch's seconds — the cold-start delay every
        first-wave op waits behind, same as a fleet job admission.
        """
        from repro.core.stellar import StellarHost

        setup = 0.0
        for rank in range(self.trace.ranks):
            server = self._servers[rank]
            host = self.hosts.get(server.as_tuple())
            if host is None:
                host = StellarHost.build()
                self.hosts[server.as_tuple()] = host
            record = host.launch_container(
                "%s-rank%d" % (self.trace.name, rank),
                _CONTAINER_BYTES,
                rnic_index=rank % len(host.rnics),
            )
            setup = max(setup, record.total_seconds)
        return setup

    # -- op pricing ------------------------------------------------------

    def _op_duration(self, op):
        if op.kind == COMPUTE:
            return float(op.seconds)
        if op.kind == "recv":
            # The matching send's dependency edge already carries the
            # wire time; the recv is a pure synchronization point.
            return 0.0
        if self.fidelity == "recorded" and op.seconds is not None:
            return float(op.seconds)
        key = self._shape_key(op)
        cached = self._price_cache.get(key)
        if cached is None:
            cached = self._price(op, key)
            self._price_cache[key] = cached
        return cached

    def _shape_key(self, op):
        group = tuple(op.ranks) if op.ranks is not None else (op.rank, op.peer)
        skew = op.meta.get("skew")
        return (op.kind, op.size_bytes, group,
                tuple(skew) if skew else None)

    def _pair_flows(self, op):
        """(src_rank, dst_rank, bytes) tuples the op puts on the wire."""
        if op.kind == "send":
            return [(op.rank, op.peer, float(op.size_bytes))]
        group = list(op.ranks)
        n = len(group)
        if op.kind == "alltoall":
            skew = op.meta.get("skew") or [1.0] * n
            mean = sum(skew) / len(skew)
            pairs = []
            for i, src in enumerate(group):
                # Rank i sends size * (w_i / mean) total, split evenly
                # over its n-1 peers — uneven expert dispatch shows up
                # as hot senders, exactly the MoE pathology.
                per_peer = op.size_bytes * (skew[i] / mean) / (n - 1)
                for j, dst in enumerate(group):
                    if i != j:
                        pairs.append((src, dst, per_peer))
            return pairs
        # Ring collectives: neighbor flows carrying the ring wire share.
        wire = collective_wire_bytes(op.kind, op.size_bytes, n)
        return [
            (group[i], group[(i + 1) % n], wire)
            for i in range(n)
        ]

    def _price(self, op, key):
        pairs = self._pair_flows(op)
        seed = derive_seed(self.seed, "traces", self.trace.name, *key[:2])
        if self.fidelity == "packet":
            return self._price_packet(op, pairs, seed)
        return self._price_fluid(op, pairs, seed)

    def _price_fluid(self, op, pairs, seed):
        est = max(
            bytes_ * 8.0 / self.topology.port_rate for _, _, bytes_ in pairs
        )
        dt = min(0.01, max(1e-7, est / _PRICE_STEPS))
        sim = FluidSimulation(self.topology, dt=dt, seed=seed)
        flows = []
        for index, (src, dst, bytes_) in enumerate(pairs):
            flows.append(sim.add_flow(
                "%s-%d" % (op.id, index),
                self._servers[src], self._servers[dst], rail=0,
                algorithm="obs", path_count=_REPLAY_PATHS,
                total_bytes=bytes_, connection_id=index,
            ))
        sim.run(until_done=True, max_steps=100_000)
        self.pricing_events += sim.steps_run * max(1, len(flows))
        finish = [f.finish_time for f in flows]
        if any(t is None for t in finish):
            raise TraceError(
                "fluid pricing did not converge for op %r" % op.id
            )
        return max(finish)

    def _price_packet(self, op, pairs, seed):
        from repro.net.packet_sim import MessageFlow, PacketNetSim, run_flows

        sim = PacketNetSim(self.topology, seed=seed)
        flows = []
        for index, (src, dst, bytes_) in enumerate(pairs):
            flows.append(MessageFlow(
                sim, "%s-%d" % (op.id, index),
                self._servers[src], self._servers[dst], rail=0,
                message_bytes=max(1, int(round(bytes_))),
                algorithm="obs", path_count=_REPLAY_PATHS,
                connection_id=index,
            ))
        est = max(
            bytes_ * 8.0 / self.topology.port_rate for _, _, bytes_ in pairs
        )
        results = run_flows(sim, flows, timeout=max(1.0, est * 100.0))
        self.pricing_events += sim.scheduler.events_executed
        times = [r.completion_time for r in results]
        if any(t is None for t in times):
            raise TraceError(
                "packet pricing timed out for op %r" % op.id
            )
        return max(times)

    # -- DAG execution ---------------------------------------------------

    def run(self):
        """Replay the whole trace; returns a :class:`ReplayResult`."""
        if self._op_log:
            raise TraceError("replayer already ran; build a fresh one")
        setup = self._boot_hosts() if self.boot_hosts else 0.0
        self._record_flight(0.0, "replay-start", fidelity=self.fidelity,
                            ops=len(self.trace.ops), ranks=self.trace.ranks,
                            setup_seconds=setup)
        index_of = {op.id: i for i, op in enumerate(self.trace.ops)}
        self._index = index_of
        self._remaining = {
            op.id: len(set(op.deps)) for op in self.trace.ops
        }
        self._dependents = {op.id: [] for op in self.trace.ops}
        for op in self.trace.ops:
            for dep in dict.fromkeys(op.deps):
                self._dependents[dep].append(op.id)
        ready = [op for op in self.trace.ops if self._remaining[op.id] == 0]
        for op in ready:  # trace file order — deterministic tie-break
            self._start(op, setup)
        self.scheduler.run()
        if self._finished != len(self.trace.ops):
            raise TraceError(
                "replay stalled: %d of %d ops completed"
                % (self._finished, len(self.trace.ops))
            )
        makespan = max(entry["end"] for entry in self._op_log) - setup
        self._op_log.sort(
            key=lambda e: (e["end"], index_of[e["id"]])
        )
        result = ReplayResult(
            self.trace.name, self.fidelity, makespan, setup,
            self._op_log, dict(sorted(self._kind_counts.items())),
            self._bytes_moved, self.scheduler.events_executed,
        )
        self._last_result = result
        self._record_flight(makespan + setup, "replay-done",
                            makespan=makespan, ops=len(self._op_log))
        return result

    def _start(self, op, at):
        duration = self._op_duration(op)
        self.scheduler.schedule_at(
            at + duration, lambda op=op, start=at: self._complete(op, start)
        )

    def _complete(self, op, start):
        now = self.scheduler.now
        self._op_log.append({
            "id": op.id, "kind": op.kind,
            "start": round(start, 9), "end": round(now, 9),
        })
        self._kind_counts[op.kind] = self._kind_counts.get(op.kind, 0) + 1
        self._bytes_moved += op.size_bytes
        self._finished += 1
        if op.kind != COMPUTE:
            self._record_flight(now, "op-complete", op=op.id,
                                op_kind=op.kind, size_bytes=op.size_bytes)
        for child_id in self._dependents[op.id]:
            self._remaining[child_id] -= 1
            if self._remaining[child_id] == 0:
                self._start(self.trace.ops[self._index[child_id]], now)


def replay_trace(trace, **kwargs):
    """One-shot helper: build a :class:`TraceReplayer` and run it."""
    return TraceReplayer(trace, **kwargs).run()
