"""Record traces from live runs: fleet jobs or a single trainer.

The :class:`TraceRecorder` is a *passive* observer, like the flight
recorder: it draws no randomness, reads no clock, and schedules nothing,
so attaching one to a :class:`~repro.cluster.fleet.FleetSimulation`
(``trace_recorder=`` ctor param) cannot perturb the run — the
determinism tests assert the fleet fingerprint is bit-identical with and
without it.  The fleet calls the duck-typed hook
:meth:`on_iteration_block` once per iteration block with the job's
compute/DP split; the recorder turns each block into per-rank compute
spans chained behind the previous block's allreduce, plus one DP
allreduce depending on every span — exactly the DAG the replayer's
``recorded`` fidelity re-times and its ``fluid``/``packet`` fidelities
re-price.

:func:`record_training` does the same for a single trainer without a
fleet: it prices one job with
:func:`repro.training.trainer.iteration_breakdown` and
:func:`repro.training.comms.comm_volumes` and emits the equivalent
trace, which is how the bundled library's dense-training shapes are
generated.
"""

from repro.traces.schema import Trace, TraceError, TraceOp, validate_trace


class _JobRecording:
    """Accumulated per-job blocks, in arrival order."""

    __slots__ = ("ranks", "blocks")

    def __init__(self, ranks):
        self.ranks = ranks
        self.blocks = []


class TraceRecorder:
    """Collect per-job op DAGs from a live run via passive hooks."""

    def __init__(self, source="fleet"):
        self.source = source
        self._jobs = {}
        self._order = []

    # -- the fleet-facing hook (duck-typed; no cluster import here) ------

    def on_iteration_block(self, t, job_name, ranks, iterations,
                           iter_seconds, dp_seconds, dp_bytes):
        """One iteration block: ``iterations`` steps at ``iter_seconds``
        each, of which ``dp_seconds`` is the DP allreduce moving
        ``dp_bytes`` per rank."""
        recording = self._jobs.get(job_name)
        if recording is None:
            recording = _JobRecording(int(ranks))
            self._jobs[job_name] = recording
            self._order.append(job_name)
        recording.blocks.append((
            float(t), int(iterations), float(iter_seconds),
            float(dp_seconds or 0.0), int(dp_bytes or 0),
        ))

    def job_names(self):
        """Recorded job names in first-seen order."""
        return list(self._order)

    # -- export ----------------------------------------------------------

    def trace(self, job_name, validate=True):
        """Build the validated :class:`Trace` for one recorded job."""
        recording = self._jobs.get(job_name)
        if recording is None:
            raise TraceError(
                "no recording for job %r (have: %s)"
                % (job_name, ", ".join(self._order) or "none")
            )
        trace = Trace(
            job_name, max(1, recording.ranks),
            meta={"source": self.source, "blocks": len(recording.blocks)},
        )
        previous = []
        for index, block in enumerate(recording.blocks):
            t, iterations, iter_seconds, dp_seconds, dp_bytes = block
            compute_seconds = max(0.0, iter_seconds - dp_seconds) * iterations
            computes = []
            for rank in range(trace.ranks):
                computes.append(trace.add(TraceOp(
                    "b%04d-c%d" % (index, rank), "compute", rank=rank,
                    seconds=round(compute_seconds, 9), deps=list(previous),
                )))
            if trace.ranks >= 2 and dp_bytes > 0:
                allreduce = trace.add(TraceOp(
                    "b%04d-ar" % index, "allreduce",
                    ranks=list(range(trace.ranks)),
                    size_bytes=dp_bytes * iterations,
                    seconds=round(dp_seconds * iterations, 9),
                    deps=[op.id for op in computes],
                    meta={"recorded_at": round(t, 9)},
                ))
                previous = [allreduce.id]
            else:
                previous = [op.id for op in computes]
        if validate:
            problems = validate_trace(trace)
            if problems:
                raise TraceError(
                    "recorded trace %r is invalid: %s"
                    % (job_name, "; ".join(problems[:5]))
                )
        return trace

    def traces(self, validate=True):
        """Every recorded job's trace, in first-seen order."""
        return [self.trace(name, validate=validate) for name in self._order]

    def __len__(self):
        return len(self._jobs)

    def __repr__(self):
        return "TraceRecorder(%s, jobs=%d)" % (self.source, len(self._jobs))


def record_training(model_name, strategy, framework=None, iterations=4,
                    blocks=2, dp_bandwidth=None, name=None):
    """Record a trace from a single trainer (no fleet required).

    Prices one job's iteration with the analytic cost model and emits the
    same block DAG the fleet hook produces: DP-group compute spans plus
    one sized allreduce per block.  Deterministic — no network solve, no
    randomness.
    """
    from repro.training.comms import comm_volumes
    from repro.training.models import Framework, MODELS
    from repro.training.trainer import (
        INTRA_SERVER_DP_BANDWIDTH,
        iteration_breakdown,
    )

    model = MODELS[model_name]
    framework = framework or Framework.MEGATRON
    dp_bandwidth = (
        dp_bandwidth if dp_bandwidth is not None
        else INTRA_SERVER_DP_BANDWIDTH
    )
    breakdown = iteration_breakdown(
        model, strategy, framework, dp_bandwidth=dp_bandwidth
    )
    volumes = comm_volumes(model, strategy, framework)
    recorder = TraceRecorder(source="trainer")
    per_block = max(1, iterations // blocks)
    done = 0
    while done < iterations:
        step = min(per_block, iterations - done)
        recorder.on_iteration_block(
            done * breakdown.total, name or model_name, strategy.dp, step,
            breakdown.total, breakdown.dp, int(volumes.dp),
        )
        done += step
    trace = recorder.trace(name or model_name)
    trace.meta["model"] = model_name
    trace.meta["strategy"] = strategy.label()
    return trace
