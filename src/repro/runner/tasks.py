"""The runner's task library: every sweep point as a pure callable.

Each function here is a ``@task``: all inputs arrive through kwargs (plus
an explicit seed where the workload is stochastic), the return value is
JSON-plain data, and nothing reads ambient state — no module-level
mutables, no ambient RNG, no process-default metrics registry.  simlint's
``D-taskpure`` rule enforces exactly that contract on every decorated
callable, because these bodies execute inside pool workers where captured
parent state would silently diverge between sequential and pooled runs.

These tasks are the pooled backend for the Figure 6/8/13/14 sweeps, the
fleet scenarios, the multi-seed determinism checks, and the bundled trace
replays (``python -m repro run``, ``make figures``, and the benchmark
suite's shared conftest fixture all build specs over them).
"""

from repro.runner.spec import task


# -- Figure 6: GPU pod startup ------------------------------------------


@task
def startup_point(memory_bytes):
    """One Figure 6 memory point: legacy full-pin vs Stellar PVDMA boot."""
    from repro.workloads.startup import measure_startup

    row = measure_startup(memory_points=(memory_bytes,))[0]
    return {
        "memory_bytes": row.memory_bytes,
        "full_pin_seconds": row.full_pin_seconds,
        "pvdma_seconds": row.pvdma_seconds,
        "speedup": row.speedup,
    }


# -- Figures 8 / 14: GDR sweeps -----------------------------------------


def _gdr_row(row):
    return {
        "message_bytes": row.message_bytes,
        "gbps": row.gbps,
        "atc_hit_rate": row.atc_hit_rate,
        "iotlb_hit_rate": row.iotlb_hit_rate,
        "avg_pcie_latency": row.avg_pcie_latency,
    }


@task
def gdr_atc_point(message_bytes):
    """One Figure 8 CX6 ATS/ATC sweep point (real ATC + IOTLB walk)."""
    from repro.workloads.gdr_bench import AtcMissExperiment

    return _gdr_row(AtcMissExperiment().measure(message_bytes))


@task
def gdr_emtt_point(message_bytes):
    """One Figure 8 vStellar eMTT point (flat at line rate by design)."""
    from repro.workloads.gdr_bench import emtt_sweep

    return _gdr_row(emtt_sweep(sizes=(message_bytes,))[0])


@task
def gdr_datapath_sweep(mode):
    """The Figure 14 curve for one GDR datapath mode."""
    from repro.workloads.gdr_bench import gdr_datapath_curve

    return [
        {"message_bytes": row.message_bytes, "gbps": row.gbps}
        for row in gdr_datapath_curve(mode)
    ]


# -- Figure 13: perftest microbenchmark ---------------------------------


@task
def perftest_sweep(profile, sizes=None):
    """``ib_write_lat``/``ib_write_bw`` sweep for one datapath profile."""
    from repro.workloads.perftest import run_perftest

    return [
        {
            "size": row.size,
            "latency_us": row.latency * 1e6,
            "bandwidth_gbps": row.bandwidth / 1e9,
        }
        for row in run_perftest(profile, sizes=sizes)
    ]


# -- Fleet scenarios -----------------------------------------------------


@task
def fleet_scenario(scenario="smoke", seed=17):
    """One seeded fleet run reduced to its determinism fingerprint.

    Returns the metrics/trace digests plus headline counters — the exact
    oracle ``repro.obs.determinism`` diffs, so pooled fleet runs are
    comparable bit-for-bit against sequential ones.
    """
    from repro.obs.determinism import fleet_fingerprint

    fingerprint = fleet_fingerprint(seed=seed, scenario=scenario)
    return {
        "scenario": scenario,
        "seed": seed,
        "metrics": len(fingerprint.metrics),
        "metrics_digest": fingerprint.metrics_digest,
        "trace_digest": fingerprint.trace_digest,
        "trace_events": fingerprint.trace_events,
    }


# -- Determinism probes --------------------------------------------------


@task
def probe_digests(seed=17, run=0):
    """Full-stack probe fingerprint for one (seed, run) determinism cell.

    ``run`` only distinguishes repeat cells in the cache key — the digest
    of run 0 and run 1 must match for the check to pass, so repeats must
    not collapse into one cache entry.
    """
    from repro.obs.determinism import probe_fingerprint

    fingerprint = probe_fingerprint(seed=seed)
    return {
        "seed": seed,
        "run": run,
        "metrics": len(fingerprint.metrics),
        "metrics_digest": fingerprint.metrics_digest,
        "trace_digest": fingerprint.trace_digest,
        "flight_digest": fingerprint.flight_digest,
    }


@task
def fleet_digests(seed=17, run=0, scenario="smoke"):
    """Fleet determinism cell: like :func:`probe_digests` for a fleet run."""
    from repro.obs.determinism import fleet_fingerprint

    fingerprint = fleet_fingerprint(seed=seed, scenario=scenario)
    return {
        "seed": seed,
        "run": run,
        "scenario": scenario,
        "metrics_digest": fingerprint.metrics_digest,
        "trace_digest": fingerprint.trace_digest,
        "flight_digest": fingerprint.flight_digest,
    }


@task
def fleet_health(scenario="smoke", seed=17):
    """One seeded fleet run reduced to its health document.

    The health suite merges the per-task ``incidents`` lists in spec
    order (:func:`repro.obs.slo.merge_incident_reports`), so pooled and
    sequential suite runs produce byte-identical merged reports.
    """
    from repro.obs.flight import FlightRecorder
    from repro.workloads.fleet_bench import run_churn, run_fleet_smoke

    flight = FlightRecorder()
    runner = {"churn": run_churn, "smoke": run_fleet_smoke}[scenario]
    fleet, _ = runner(seed=seed, flight=flight)
    document = fleet.health_report()
    document["scenario"] = scenario
    document["seed"] = seed
    return document


# -- Trace-driven workloads (repro.traces) ------------------------------


@task
def trace_replay(trace="checkpoint_burst", fidelity="fluid", run=0, seed=17):
    """Replay one bundled trace; returns the JSON-plain replay row.

    The spec that builds this task declares the trace file under
    ``data_files``, so the result cache keys off the file *content* —
    regenerating or hand-editing a bundled trace invalidates exactly the
    cells that read it.  ``run`` keeps repeat cells distinct so the
    suite check can assert replay determinism across the pool.
    """
    from repro.traces.library import load_bundled
    from repro.traces.replay import replay_trace

    result = replay_trace(load_bundled(trace), fidelity=fidelity, seed=seed)
    row = result.to_row()
    row["run"] = run
    return row


@task
def trace_roundtrip(scenario="smoke", job=None, seed=17):
    """Record a fleet run, replay one job's trace, return both digests.

    The recorded trace digest is a pure function of the seeded fleet
    run, and the replay row is a pure function of the trace — the suite
    check (and the round-trip determinism tests) assert both stay
    bit-identical across repeats and across the pool boundary.
    """
    from repro.traces.record import TraceRecorder
    from repro.traces.replay import replay_trace
    from repro.workloads.fleet_bench import run_fleet_smoke

    if scenario != "smoke":
        raise ValueError("unknown roundtrip scenario %r" % scenario)
    recorder = TraceRecorder()
    run_fleet_smoke(seed=seed, trace_recorder=recorder)
    job = job or recorder.job_names()[0]
    trace = recorder.trace(job)
    replay = replay_trace(trace, fidelity="recorded", seed=seed)
    return {
        "job": job,
        "trace_digest": trace.digest(),
        "ops": len(trace.ops),
        "collective_sequence": replay.op_sequence(kinds=(
            "allreduce", "allgather", "reducescatter", "alltoall",
        )),
        "replay": replay.to_row(),
    }
