"""Versioned trace schema: GOAL-like op DAGs for trace-driven workloads.

A *trace* is an application-centric description of one job's work — the
shape ATLAHS uses to escape hand-coded synthetic generators: **compute
spans** (a rank busy for some seconds), **collective ops** (allreduce /
allgather / reducescatter / alltoall over an explicit rank group with a
per-rank data size), and **P2P sends/recvs**, tied together by explicit
dependency edges.  The replayer (:mod:`repro.traces.replay`) honors
*only* those edges: a trace encodes rank-serialization by chaining each
rank's ops, which keeps replay semantics trivial and deterministic.

Serialized form is JSON or JSON lines.  A ``.jsonl`` file is one header
line (``{"schema": "repro-trace", "version": 1, ...}``) followed by one
op per line; a ``.json`` file is the same document nested under
``{"header": ..., "ops": [...]}``.  Loading validates shape and
topologically checks the dependency DAG (:func:`validate_trace`), so a
cyclic or dangling trace is rejected before it reaches the replayer.
"""

import hashlib
import json
import os

#: Bump when op fields change incompatibly; loaders reject newer files.
SCHEMA_VERSION = 1

#: The magic string every trace header carries.
SCHEMA_NAME = "repro-trace"

#: Op kinds.  ``compute`` occupies one rank; collectives occupy a rank
#: group; ``send``/``recv`` are the P2P halves (a recv completes when its
#: matching send has — the builder encodes that as a dependency edge).
COMPUTE = "compute"
COLLECTIVE_KINDS = ("allreduce", "allgather", "reducescatter", "alltoall")
P2P_KINDS = ("send", "recv")
OP_KINDS = (COMPUTE,) + COLLECTIVE_KINDS + P2P_KINDS


class TraceError(ValueError):
    """Malformed trace file, op, or dependency DAG."""


def collective_wire_bytes(kind, size_bytes, ranks):
    """Bytes each rank puts on the wire for one collective.

    ``size_bytes`` is the per-rank logical data size (the shard being
    reduced / gathered / distributed), following the standard ring
    accounting: allreduce moves ``2*(n-1)/n``, allgather/reducescatter
    half of that, and alltoall sends ``(n-1)/n`` of the payload off-rank.
    """
    if ranks < 2:
        return 0.0
    if kind == "allreduce":
        return 2.0 * (ranks - 1) / ranks * size_bytes
    if kind in ("allgather", "reducescatter"):
        return (ranks - 1) / ranks * size_bytes
    if kind == "alltoall":
        return (ranks - 1) / ranks * size_bytes
    raise TraceError("unknown collective kind %r" % kind)


class TraceOp:
    """One node of the trace DAG.

    ``rank`` is the executing rank for compute/send/recv ops; collective
    ops carry a ``ranks`` group instead.  ``seconds`` is required for
    compute spans and optional for communication ops, where it records
    the duration *measured at record time* (replay fidelity ``recorded``
    reuses it; ``fluid``/``packet`` re-price on the simulated fabric).
    ``meta`` is free-form plain data (e.g. alltoall skew weights).
    """

    __slots__ = ("id", "kind", "rank", "ranks", "peer", "size_bytes",
                 "seconds", "deps", "meta")

    def __init__(self, id, kind, rank=None, ranks=None, peer=None,
                 size_bytes=0, seconds=None, deps=(), meta=None):
        self.id = id
        self.kind = kind
        self.rank = rank
        self.ranks = list(ranks) if ranks is not None else None
        self.peer = peer
        self.size_bytes = int(size_bytes)
        self.seconds = seconds
        self.deps = list(deps)
        self.meta = dict(meta) if meta else {}

    def to_dict(self):
        record = {"id": self.id, "kind": self.kind}
        if self.rank is not None:
            record["rank"] = self.rank
        if self.ranks is not None:
            record["ranks"] = list(self.ranks)
        if self.peer is not None:
            record["peer"] = self.peer
        if self.size_bytes:
            record["size_bytes"] = self.size_bytes
        if self.seconds is not None:
            record["seconds"] = self.seconds
        if self.deps:
            record["deps"] = list(self.deps)
        if self.meta:
            record["meta"] = self.meta
        return record

    @classmethod
    def from_dict(cls, record):
        if not isinstance(record, dict):
            raise TraceError("trace op must be an object: %r" % (record,))
        unknown = set(record) - {
            "id", "kind", "rank", "ranks", "peer", "size_bytes", "seconds",
            "deps", "meta",
        }
        if unknown:
            raise TraceError(
                "op %r has unknown fields: %s"
                % (record.get("id"), ", ".join(sorted(unknown)))
            )
        try:
            return cls(
                id=record["id"], kind=record["kind"],
                rank=record.get("rank"), ranks=record.get("ranks"),
                peer=record.get("peer"),
                size_bytes=record.get("size_bytes", 0),
                seconds=record.get("seconds"), deps=record.get("deps", ()),
                meta=record.get("meta"),
            )
        except KeyError as exc:
            raise TraceError("op %r is missing field %s"
                             % (record.get("id"), exc))

    def __repr__(self):
        return "TraceOp(%r, %s, deps=%d)" % (self.id, self.kind,
                                             len(self.deps))


class Trace:
    """A named op DAG over ``ranks`` logical ranks."""

    __slots__ = ("name", "ranks", "ops", "version", "meta")

    def __init__(self, name, ranks, ops=(), version=SCHEMA_VERSION,
                 meta=None):
        self.name = name
        self.ranks = int(ranks)
        self.ops = list(ops)
        self.version = version
        self.meta = dict(meta) if meta else {}

    # -- construction ----------------------------------------------------

    def add(self, op):
        """Append one :class:`TraceOp`; returns it for chaining deps."""
        self.ops.append(op)
        return op

    def op_ids(self):
        return [op.id for op in self.ops]

    # -- serialization ---------------------------------------------------

    def header(self):
        record = {
            "schema": SCHEMA_NAME,
            "version": self.version,
            "name": self.name,
            "ranks": self.ranks,
        }
        if self.meta:
            record["meta"] = self.meta
        return record

    def to_json(self):
        return {"header": self.header(),
                "ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_json(cls, document):
        header = document.get("header")
        if not isinstance(header, dict):
            raise TraceError("trace document has no header object")
        _check_header(header)
        trace = cls(
            header.get("name", "<unnamed>"), header.get("ranks", 0),
            version=header["version"], meta=header.get("meta"),
        )
        for record in document.get("ops", ()):
            trace.add(TraceOp.from_dict(record))
        return trace

    def dump(self, path):
        """Write the trace as ``.jsonl`` (or ``.json`` by extension)."""
        if path.endswith(".jsonl"):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_canonical(self.header()) + "\n")
                for op in self.ops:
                    handle.write(_canonical(op.to_dict()) + "\n")
        else:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        return path

    def digest(self):
        """SHA-256 over the canonical JSON document (content identity)."""
        return hashlib.sha256(
            _canonical(self.to_json()).encode("utf-8")
        ).hexdigest()

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return "Trace(%r, ranks=%d, ops=%d)" % (
            self.name, self.ranks, len(self.ops),
        )


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _check_header(header):
    if header.get("schema") != SCHEMA_NAME:
        raise TraceError("not a %s file (schema=%r)"
                         % (SCHEMA_NAME, header.get("schema")))
    version = header.get("version")
    if not isinstance(version, int) or version < 1:
        raise TraceError("bad trace version: %r" % (version,))
    if version > SCHEMA_VERSION:
        raise TraceError(
            "trace version %d is newer than supported version %d"
            % (version, SCHEMA_VERSION)
        )


def load_trace(path, validate=True):
    """Load a ``.json``/``.jsonl`` trace file; validates by default."""
    if not os.path.exists(path):
        raise TraceError("trace file not found: %s" % path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".jsonl"):
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise TraceError("empty trace file: %s" % path)
        try:
            header = json.loads(lines[0])
            records = [json.loads(line) for line in lines[1:]]
        except ValueError as exc:
            raise TraceError("invalid JSONL in %s: %s" % (path, exc))
        document = {"header": header, "ops": records}
    else:
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise TraceError("invalid JSON in %s: %s" % (path, exc))
    trace = Trace.from_json(document)
    if validate:
        problems = validate_trace(trace)
        if problems:
            raise TraceError(
                "%s: %s" % (path, "; ".join(problems[:5]))
            )
    return trace


# -- validation ----------------------------------------------------------


def _op_problems(trace, op, index, by_id):
    """Shape problems local to one op (no DAG checks)."""
    problems = []
    where = "op %r" % op.id
    if not op.id or not isinstance(op.id, str):
        problems.append("op #%d has no string id" % index)
        return problems
    if op.kind not in OP_KINDS:
        problems.append("%s: unknown kind %r" % (where, op.kind))
        return problems
    if op.size_bytes < 0:
        problems.append("%s: negative size_bytes" % where)
    if op.seconds is not None and (
        not isinstance(op.seconds, (int, float)) or op.seconds < 0
    ):
        problems.append("%s: bad seconds %r" % (where, op.seconds))
    if op.kind == COMPUTE:
        if op.seconds is None:
            problems.append("%s: compute span needs seconds" % where)
        if not _rank_ok(op.rank, trace.ranks):
            problems.append("%s: compute rank %r out of range" % (where, op.rank))
    elif op.kind in COLLECTIVE_KINDS:
        group = op.ranks
        if not group or len(set(group)) < 2:
            problems.append(
                "%s: collective needs >= 2 distinct ranks" % where
            )
        elif any(not _rank_ok(r, trace.ranks) for r in group):
            problems.append("%s: collective rank out of range" % where)
        elif len(set(group)) != len(group):
            problems.append("%s: collective ranks repeat" % where)
        if op.size_bytes <= 0:
            problems.append("%s: collective needs size_bytes > 0" % where)
    else:  # send / recv
        if not _rank_ok(op.rank, trace.ranks):
            problems.append("%s: %s rank %r out of range"
                            % (where, op.kind, op.rank))
        if not _rank_ok(op.peer, trace.ranks):
            problems.append("%s: %s peer %r out of range"
                            % (where, op.kind, op.peer))
        elif op.peer == op.rank:
            problems.append("%s: %s peer equals rank" % (where, op.kind))
        if op.kind == "send" and op.size_bytes <= 0:
            problems.append("%s: send needs size_bytes > 0" % where)
        if op.kind == "recv":
            matched = any(
                dep in by_id
                and by_id[dep].kind == "send"
                and by_id[dep].rank == op.peer
                and by_id[dep].peer == op.rank
                for dep in op.deps
            )
            if not matched:
                problems.append(
                    "%s: recv has no dependency on a matching send "
                    "from rank %r" % (where, op.peer)
                )
    return problems


def _rank_ok(rank, ranks):
    return isinstance(rank, int) and 0 <= rank < ranks


def validate_trace(trace):
    """Shape + DAG check; returns a list of problem strings (empty = ok).

    DAG validation is Kahn's algorithm over the dependency edges: every
    dep must name an earlier-declared-or-any existing op, ids must be
    unique, and the graph must be acyclic (the leftover set names the
    cycle members when it is not).
    """
    problems = []
    if trace.ranks < 1:
        problems.append("trace has no ranks")
    if not trace.ops:
        problems.append("trace has no ops")
    by_id = {}
    for op in trace.ops:
        if op.id in by_id:
            problems.append("duplicate op id %r" % op.id)
        else:
            by_id[op.id] = op
    for index, op in enumerate(trace.ops):
        problems.extend(_op_problems(trace, op, index, by_id))
        for dep in op.deps:
            if dep not in by_id:
                problems.append("op %r depends on unknown op %r"
                                % (op.id, dep))
            elif dep == op.id:
                problems.append("op %r depends on itself" % op.id)
    if problems:
        return problems
    # Kahn: count resolvable ops; anything left over sits on a cycle.
    order = topological_order(trace)
    if len(order) != len(trace.ops):
        ordered = {op.id for op in order}
        cyclic = sorted(op.id for op in trace.ops if op.id not in ordered)
        problems.append(
            "dependency cycle through: %s" % ", ".join(cyclic[:6])
        )
    return problems


def topological_order(trace):
    """Ops in dependency order, file order breaking ties (deterministic).

    Returns fewer ops than the trace holds when the DAG has a cycle —
    :func:`validate_trace` turns that into a problem report.
    """
    index_of = {op.id: i for i, op in enumerate(trace.ops)}
    remaining = {op.id: len(set(op.deps)) for op in trace.ops}
    dependents = {op.id: [] for op in trace.ops}
    for op in trace.ops:
        for dep in dict.fromkeys(op.deps):
            if dep in dependents:
                dependents[dep].append(op.id)
    ready = [op.id for op in trace.ops if remaining[op.id] == 0]
    order = []
    while ready:
        # File order keeps the walk deterministic without a heap.
        ready.sort(key=index_of.__getitem__)
        current = ready.pop(0)
        order.append(trace.ops[index_of[current]])
        for child in dependents[current]:
            remaining[child] -= 1
            if remaining[child] == 0:
                ready.append(child)
    return order
