"""``python -m repro`` — a fast guided tour of the reproduction.

Runs a trimmed version of the headline experiments (seconds, not the
full benchmark suite) and prints the same tables the paper's figures
report.  For the complete regeneration run::

    pytest benchmarks/ --benchmark-only -s
"""

import argparse
import sys

from repro import __version__
from repro.analysis import Table, format_bytes_axis, format_decimal_bytes


def tour_startup():
    from repro.workloads import measure_startup

    table = Table("Figure 6 (trimmed): GPU pod startup (seconds)",
                  ["memory", "full pin", "PVDMA", "speedup"])
    for row in measure_startup(memory_points=(16 * 10**9, int(1.6e12))):
        table.add_row(format_decimal_bytes(row.memory_bytes),
                      row.full_pin_seconds, row.pvdma_seconds,
                      "%.0fx" % row.speedup)
    table.print()


def tour_gdr():
    from repro.workloads import AtcMissExperiment, emtt_sweep, gdr_datapath_curve

    sizes = [2 << 20, 4 << 20, 64 << 20]
    atc = AtcMissExperiment().sweep(sizes=sizes)
    emtt = emtt_sweep(sizes=sizes)
    table = Table("Figure 8 (trimmed): GDR throughput (Gbps)",
                  ["message", "CX6 ATS/ATC", "vStellar eMTT"])
    for a, e in zip(atc, emtt):
        table.add_row(format_bytes_axis(a.message_bytes), a.gbps, e.gbps)
    table.print()

    peaks = Table("Figure 14: GDR datapath peaks (Gbps)", ["datapath", "Gbps"])
    for mode in ("vstellar", "hyv_masq"):
        peaks.add_row(mode, max(r.gbps for r in gdr_datapath_curve(mode)))
    peaks.print()


def tour_spray():
    from repro import calibration
    from repro.core import make_selector
    from repro.net import DualPlaneTopology, ServerAddress, StaticLoadModel
    from repro.sim.rng import RngStream

    topology = DualPlaneTopology(segments=2, servers_per_segment=2, rails=1)
    table = Table("Figure 12 (trimmed): uplink imbalance vs path count",
                  ["paths", "max-min delta %"])
    for paths in (4, 32, 128):
        model = StaticLoadModel(topology, seed=23)
        for conn in range(16):
            model.add_flow(
                ServerAddress(0, 0), ServerAddress(1, 0), 0,
                make_selector("obs", paths, rng=RngStream(23, "c", conn)),
                int(calibration.RNIC_TOTAL_RATE / 8 * 0.5 / 16),
                connection_id=conn,
            )
        table.add_row(paths, 100 * model.imbalance(0.5, segment=0, rail=0))
    table.print()


def tour_fleet(health_report=None, fidelity="fluid"):
    from repro.workloads import run_churn

    flight = tracer = None
    if health_report:
        from repro.obs import FlightRecorder, Tracer

        flight = FlightRecorder()
        tracer = Tracer()
    fleet, result = run_churn(flight=flight, tracer=tracer, fidelity=fidelity)
    table = Table(
        "Fleet churn: 16 hosts, 3 tenants, mid-run uplink failure",
        ["job", "tenant", "state", "wait s", "startup s", "iters",
         "goodput it/s", "p99 slowdown"],
    )
    for row in result.rows():
        table.add_row(row["job"], row["tenant"], row["state"],
                      row["wait_s"], row["startup_s"], row["iters"],
                      row["goodput_it_s"], row["p99_slowdown"])
    table.print()
    summary = Table("Fleet summary", ["metric", "value"])
    summary.add_row("jobs submitted", result.counters["jobs_submitted"])
    summary.add_row("jobs completed", result.counters["jobs_completed"])
    summary.add_row("jobs failed", result.counters["jobs_failed"])
    summary.add_row("mean wait (s)", result.mean_wait_seconds())
    summary.add_row("mean startup (s)", result.mean_startup_seconds())
    summary.add_row("total goodput (it/s)", result.total_goodput())
    summary.add_row("p99 slowdown vs isolated", result.p99_slowdown())
    summary.add_row("repricing epochs", result.counters["rate_epochs"])
    if fidelity != "fluid":
        summary.add_row("fidelity mode", fidelity)
        summary.add_row("packet windows promoted",
                        result.counters.get("fidelity_promotions", 0))
        summary.add_row("bytes priced at packet fidelity",
                        result.counters.get("dp_bytes_packet", 0))
    summary.print()
    if health_report:
        write_health_report(fleet, flight, tracer, health_report)


def write_health_report(fleet, flight, tracer, path):
    """Render the SLO/incident tables and write the JSON + Perfetto
    artifacts for ``--health-report PATH``."""
    import json

    from repro.obs import write_perfetto_trace

    document = fleet.health_report()
    slo = document["slo"]
    table = Table(
        "Fleet SLO trackers",
        ["entity", "breached", "metric", "breaches", "breach s", "peak ratio"],
    )
    for entity in fleet.slo.entities():
        tracker = slo["trackers"][entity]
        for metric, state in tracker["metrics"].items():
            if not state["breaches"]:
                continue
            table.add_row(entity, "yes" if tracker["breached"] else "no",
                          metric, state["breaches"],
                          round(state["breach_seconds"], 1),
                          state["peak_ratio"])
    table.print()
    incidents = Table(
        "Incidents (fault -> impact -> recovery)",
        ["fault", "at s", "entity", "affected", "impact", "recovery s"],
    )
    for incident in document["incidents"]:
        fault = incident["fault"]
        for entry in incident["affected"] or [None]:
            if entry is None:
                incidents.add_row(fault["kind"], fault["t"], fault["entity"],
                                  "-", "-", "-")
                continue
            recovery = entry["recovery_seconds"]
            incidents.add_row(
                fault["kind"], fault["t"], fault["entity"], entry["entity"],
                round(entry["impact"], 3),
                round(recovery, 1) if recovery is not None else "-",
            )
    incidents.print()
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("health report: %d incidents, flight digest %s -> %s"
          % (len(document["incidents"]),
             document["flight"].get("digest", "-")[:12], path))
    trace_path = path + ".trace.json"
    count = write_perfetto_trace(trace_path, tracer=tracer, flight=flight)
    print("perfetto trace: %d events -> %s (open in https://ui.perfetto.dev)"
          % (count, trace_path))


#: The telemetry probe result shared between the metrics tour and the
#: --trace/--metrics exporters (run at most once per invocation).
_PROBE = None


def ensure_probe():
    """Run the canned full-stack telemetry probe once; return its result."""
    global _PROBE
    if _PROBE is None:
        from repro.obs.probe import run_probe

        _PROBE = run_probe()
    return _PROBE


def tour_metrics():
    """The Neohost-style counter report for a canned full-stack run."""
    from repro.analysis import render_report
    from repro.obs import metrics_document

    probe = ensure_probe()
    for title, report in probe.reports():
        render_report(title, report).print()
    document = metrics_document(probe.registry)
    summary = Table("Metrics registry summary", ["family", "instruments"])
    for family in document["families"]:
        summary.add_row(
            family,
            sum(1 for name in document["metrics"] if name.startswith(family + ".")),
        )
    summary.print()


TOURS = {
    "startup": tour_startup,
    "gdr": tour_gdr,
    "spray": tour_spray,
    "metrics": tour_metrics,
    "fleet": tour_fleet,
}


def export_telemetry(args):
    """Handle --trace/--metrics/--timeseries by running the probe and
    writing its artifacts."""
    from repro.obs import write_chrome_trace, write_metrics_json

    probe = ensure_probe()
    if args.trace:
        count = write_chrome_trace(probe.tracer, args.trace)
        print("trace: %d events -> %s (open in https://ui.perfetto.dev)"
              % (count, args.trace))
    if args.metrics:
        count = write_metrics_json(probe.registry, args.metrics)
        print("metrics: %d instruments -> %s" % (count, args.metrics))
    if args.timeseries:
        count = probe.sampler.dump(args.timeseries)
        print("timeseries: %d samples -> %s" % (count, args.timeseries))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "run":
        # Pooled experiment runner with result caching (repro.runner):
        # ``python -m repro run <suite> [--workers N] [--no-cache] ...``.
        from repro.runner.__main__ import main as runner_main

        return runner_main(argv[1:])
    if argv and argv[0] == "trace":
        # Trace-driven workloads (repro.traces):
        # ``python -m repro trace {validate,replay,record} ...``.
        from repro.traces.cli import main as trace_main

        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quick tour of the Stellar reproduction (%s)" % __version__,
        epilog="Sweeps: 'python -m repro run <suite>' drives the pooled "
               "experiment runner with result caching (see --list there).",
    )
    parser.add_argument(
        "tour", nargs="?", choices=sorted(TOURS) + ["all"], default="all",
        help="which trimmed experiment to run (default: all)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="export a Chrome trace-event JSON of the telemetry probe run "
             "(loadable in Perfetto)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="export the metrics registry snapshot as JSON",
    )
    parser.add_argument(
        "--timeseries", metavar="PATH",
        help="export the sim-time gauge samples (.csv or .json)",
    )
    parser.add_argument(
        "--fidelity", choices=["fluid", "packet", "hybrid"], default="fluid",
        help="with the fleet tour: congestion-pricing fidelity — 'fluid' "
             "(default) prices every epoch on the max-min solver, 'packet' "
             "on the packet simulator, 'hybrid' auto-promotes bounded "
             "packet windows around failures and bursts",
    )
    parser.add_argument(
        "--health-report", metavar="PATH", dest="health_report",
        help="with the fleet tour: run churn with the flight recorder, "
             "print the SLO/incident tables, and write the health JSON to "
             "PATH plus a Perfetto trace to PATH.trace.json",
    )
    args = parser.parse_args(argv)
    print("repro %s — Alibaba Stellar (SIGCOMM 2025) reproduction" % __version__)
    selected = sorted(TOURS) if args.tour == "all" else [args.tour]
    for name in selected:
        if name == "fleet":
            tour_fleet(health_report=args.health_report,
                       fidelity=args.fidelity)
        else:
            TOURS[name]()
    if args.trace or args.metrics or args.timeseries:
        export_telemetry(args)
    print("\nFull regeneration: pytest benchmarks/ --benchmark-only -s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
