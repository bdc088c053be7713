"""Built-in task suites: the repo's sweeps expressed as TaskSpec batches.

A suite is a named, deterministic list of :class:`~repro.runner.spec.TaskSpec`
plus an optional ``check`` that audits the merged report (repeat-equality
for determinism cells and trace replays, health-document shape).  The CLI
(``python -m repro run <suite>``), ``make figures``, and CI's
``figures-smoke`` job all drive these.

Suite membership is frozen per name — same suite, same spec list, same
keys — so cached results stay addressable across invocations and a
pooled run can always be diffed row-for-row against a sequential one.
"""

from collections import OrderedDict

from repro.runner.spec import TaskSpec

_TASKS = "repro.runner.tasks"


def _spec(key, fn, kwargs=None, seed=None, data_files=None):
    return TaskSpec(key, "%s:%s" % (_TASKS, fn), kwargs, seed=seed,
                    data_files=data_files)


# -- builders ------------------------------------------------------------


def build_figures(trim=False):
    """The figure sweeps: Fig 6 startup, Fig 8/14 GDR, Fig 13 perftest,
    and the seeded fleet scenario (churn only in the full suite)."""
    from repro import calibration
    from repro.workloads.gdr_bench import default_gdr_sizes

    specs = []
    memory_points = (
        (16 * 10**9, int(1.6e12)) if trim
        else calibration.FIG6_MEMORY_POINTS_BYTES
    )
    for memory_bytes in memory_points:
        specs.append(_spec(
            "fig6/startup/%dGB" % (memory_bytes // 10**9),
            "startup_point", {"memory_bytes": memory_bytes},
        ))
    gdr_sizes = (2 << 20, 4 << 20, 64 << 20) if trim else default_gdr_sizes()
    for size in gdr_sizes:
        specs.append(_spec(
            "fig8/atc/%dKB" % (size >> 10),
            "gdr_atc_point", {"message_bytes": size},
        ))
        specs.append(_spec(
            "fig8/emtt/%dKB" % (size >> 10),
            "gdr_emtt_point", {"message_bytes": size},
        ))
    for mode in ("vstellar", "bare_metal", "hyv_masq"):
        specs.append(_spec(
            "fig14/datapath/%s" % mode, "gdr_datapath_sweep", {"mode": mode},
        ))
    for profile in ("bare_metal", "vstellar", "vf_vxlan_cx7"):
        specs.append(_spec(
            "fig13/perftest/%s" % profile, "perftest_sweep",
            {"profile": profile},
        ))
    specs.append(_spec(
        "fleet/smoke", "fleet_scenario", {"scenario": "smoke"}, seed=17,
    ))
    if not trim:
        specs.append(_spec(
            "fleet/churn", "fleet_scenario", {"scenario": "churn"}, seed=17,
        ))
    return specs


def _build_figures_smoke():
    return build_figures(trim=True)


def build_determinism():
    """Multi-seed determinism cells: every (seed, run) pair is one task.

    ``run`` enters the cache key, so repeats stay distinct tasks; the
    check then requires same-seed digests to agree and cross-seed fleet
    digests to differ (a scenario that ignores its seed is a bug).  With
    the hybrid-smoke suite this covers every contract digest: the probe
    and the fleet churn, smoke and hybrid scenarios at seeds 17 and 23.
    """
    specs = []
    for seed in (17, 23):
        for run in (0, 1):
            specs.append(_spec(
                "determinism/probe/seed%d/run%d" % (seed, run),
                "probe_digests", {"run": run}, seed=seed,
            ))
    for seed in (17, 23):
        for run in (0, 1):
            specs.append(_spec(
                "determinism/fleet/seed%d/run%d" % (seed, run),
                "fleet_digests", {"run": run, "scenario": "smoke"}, seed=seed,
            ))
    for seed in (17, 23):
        for run in (0, 1):
            specs.append(_spec(
                "determinism/fleet-churn/seed%d/run%d" % (seed, run),
                "fleet_digests", {"run": run, "scenario": "churn"}, seed=seed,
            ))
    return specs


def _build_hybrid_smoke():
    """Hybrid-fidelity determinism cells: the churn scenario priced by
    the fidelity controller, two seeds x two runs.

    The sequential-diff oracle is the same as the determinism suite:
    promoted packet windows open and close at sim-time boundaries, so a
    hybrid run must reproduce digest-for-digest just like a fluid one —
    pooled and sequential runner modes included.
    """
    specs = []
    for seed in (17, 23):
        for run in (0, 1):
            specs.append(_spec(
                "determinism/fleet-hybrid/seed%d/run%d" % (seed, run),
                "fleet_digests", {"run": run, "scenario": "hybrid"},
                seed=seed,
            ))
    return specs


def check_determinism(report):
    problems = []
    by_cell = {}
    for key, value in report.rows():
        prefix, _, _ = key.rpartition("/")  # strip the runN leg
        by_cell.setdefault(prefix, []).append((key, value))
    seed_digests = {}
    for prefix, cells in sorted(by_cell.items()):
        digests = {
            (value["metrics_digest"], value["trace_digest"],
             value.get("flight_digest"))
            for _, value in cells
        }
        if len(digests) != 1:
            problems.append(
                "%s: runs disagree (%d distinct digests)"
                % (prefix, len(digests))
            )
        if prefix.startswith("determinism/fleet"):
            scenario, _, _ = prefix.rpartition("/")  # strip the seedN leg
            seed_digests.setdefault(scenario, []).append(
                cells[0][1]["trace_digest"]
            )
    for scenario, digests in sorted(seed_digests.items()):
        if len(digests) > 1 and len(set(digests)) == 1:
            problems.append(
                "%s: fleet seeds produced identical traces (seed unused?)"
                % scenario
            )
    return problems


def _build_health():
    """Fleet health cells: one seeded health document per (scenario, seed).

    Two seeds of the smoke scenario keep the suite CI-fast; the churn
    scenario's full incident report is exercised by the CLI
    (``python -m repro fleet --health-report``) and the e2e tests.
    """
    specs = []
    for seed in (17, 23):
        specs.append(_spec(
            "health/smoke/seed%d" % seed,
            "fleet_health", {"scenario": "smoke"}, seed=seed,
        ))
    return specs


def check_health(report):
    """Validate health-document shape and merge incidents in spec order."""
    from repro.obs.slo import merge_incident_reports

    problems = []
    keyed = []
    for key, value in report.rows():
        for field in ("fleet", "jobs", "slo", "incidents", "flight"):
            if field not in value:
                problems.append("%s: missing %r field" % (key, field))
        keyed.append((key, value.get("incidents", [])))
    merged = merge_incident_reports(keyed)
    for incident in merged:
        fault = incident.get("fault", {})
        for field in ("kind", "t", "entity"):
            if field not in fault:
                problems.append(
                    "%s: incident fault missing %r"
                    % (incident.get("source"), field)
                )
        for entry in incident.get("affected", []):
            if "impact" not in entry or "recovery_seconds" not in entry:
                problems.append(
                    "%s: affected entry missing impact/recovery"
                    % incident.get("source")
                )
    return problems


def build_traces(trim=False):
    """Replay cells over the bundled trace library.

    Every bundled trace replays twice at fluid fidelity (repeat pairs the
    check diffs for determinism), the smallest also at packet fidelity,
    plus one record→replay round-trip cell.  Each replay spec declares
    its trace file as a ``data_files`` input, so regenerating a bundled
    trace invalidates exactly the cached cells that read it.  ``trim``
    keeps only the smallest trace's cells (the CI smoke suite).
    """
    from repro.traces.library import BUNDLED, bundled_path, smallest_bundled

    smallest = smallest_bundled()
    names = (smallest,) if trim else BUNDLED
    specs = []
    for name in names:
        for run in (0, 1):
            specs.append(_spec(
                "traces/%s/fluid/run%d" % (name, run),
                "trace_replay",
                {"trace": name, "fidelity": "fluid", "run": run},
                seed=17, data_files=[bundled_path(name)],
            ))
    specs.append(_spec(
        "traces/%s/packet/run0" % smallest,
        "trace_replay",
        {"trace": smallest, "fidelity": "packet", "run": 0},
        seed=17, data_files=[bundled_path(smallest)],
    ))
    if not trim:
        specs.append(_spec(
            "traces/roundtrip/smoke", "trace_roundtrip",
            {"scenario": "smoke"}, seed=17,
        ))
    return specs


def _build_traces_smoke():
    return build_traces(trim=True)


def check_traces(report):
    """Repeat pairs must replay identically, op for op."""
    problems = []
    by_cell = {}
    for key, value in report.rows():
        if "/fluid/" in key or "/packet/" in key:
            prefix, _, _ = key.rpartition("/")  # strip the runN leg
            scrubbed = dict(value)
            scrubbed.pop("run", None)
            by_cell.setdefault(prefix, []).append((key, scrubbed))
        elif key.startswith("traces/roundtrip/"):
            if not value.get("collective_sequence"):
                problems.append(
                    "%s: round trip recorded no collectives" % key
                )
    for prefix, cells in sorted(by_cell.items()):
        rows = [value for _, value in cells]
        if any(row != rows[0] for row in rows[1:]):
            problems.append("%s: repeat replays disagree" % prefix)
        for key, value in cells:
            if value["ops"] != sum(value["kind_counts"].values()):
                problems.append("%s: op counts inconsistent" % key)
    return problems


class Suite:
    """A named spec batch plus its post-merge consistency check."""

    __slots__ = ("name", "description", "build", "check")

    def __init__(self, name, description, build, check=None):
        self.name = name
        self.description = description
        self.build = build
        self.check = check


SUITES = OrderedDict((suite.name, suite) for suite in [
    Suite("figures", "full figure sweeps (Fig 6/8/13/14 + fleet runs)",
          build_figures),
    Suite("figures-smoke", "trimmed figure sweeps (CI-sized)",
          _build_figures_smoke),
    Suite("determinism", "multi-seed probe + fleet determinism cells",
          build_determinism, check_determinism),
    Suite("hybrid-smoke", "hybrid-fidelity fleet determinism cells "
          "(CI-sized)", _build_hybrid_smoke, check_determinism),
    Suite("health", "fleet health documents + merged incident reports",
          _build_health, check_health),
    Suite("traces", "bundled trace replays + record/replay round trip",
          build_traces, check_traces),
    Suite("traces-smoke", "smallest bundled trace replay (CI-sized)",
          _build_traces_smoke, check_traces),
])
