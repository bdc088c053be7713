"""Suite builders and their post-merge consistency checks."""

from repro.runner import RunReport, TaskResult
from repro.runner.suites import (
    SUITES,
    build_determinism,
    build_figures,
    check_determinism,
)


def _report(rows):
    results = {}
    for key, value in rows:
        results[key] = TaskResult(key, value, "0" * 64, False, 0.0, {})
    return RunReport(results, workers=0, cache_stats=None, wall_seconds=0.0)


class TestBuilders:
    def test_registry_names(self):
        assert list(SUITES) == [
            "figures", "figures-smoke", "determinism", "hybrid-smoke",
            "health", "traces", "traces-smoke",
        ]
        for suite in SUITES.values():
            keys = [s.key for s in suite.build()]
            assert len(keys) == len(set(keys))
            # Membership is frozen per name: building twice gives the
            # same keys in the same order (cache addressability).
            assert keys == [s.key for s in suite.build()]

    def test_figures_full_supersets_smoke(self):
        full = {s.key for s in build_figures()}
        smoke = {s.key for s in build_figures(trim=True)}
        # Trim drops sweep points and the churn scenario, never whole
        # figure families, so every family is exercised in CI.
        assert {k.split("/")[0] for k in smoke} == \
            {k.split("/")[0] for k in full}
        assert "fleet/churn" in full and "fleet/churn" not in smoke
        assert len(smoke) < len(full)

    def test_figures_specs_use_registered_tasks(self):
        from repro.runner import registered_tasks

        import repro.runner.tasks  # noqa: F401 -- populate the registry

        registry = registered_tasks()
        for spec in build_figures():
            assert spec.fn in registry, spec.fn

    def test_determinism_suite_pairs_runs_per_cell(self):
        keys = [s.key for s in build_determinism()]
        cells = {k.rpartition("/")[0] for k in keys}
        for cell in cells:
            assert "%s/run0" % cell in keys and "%s/run1" % cell in keys
        # Probe, fleet smoke and fleet churn, each at seeds 17 and 23
        # (hybrid-smoke carries the hybrid cells).
        assert cells == {
            "determinism/%s/seed%d" % (scenario, seed)
            for scenario in ("probe", "fleet", "fleet-churn")
            for seed in (17, 23)
        }
        churn = [s for s in build_determinism()
                 if s.key.startswith("determinism/fleet-churn/")]
        assert all(s.kwargs["scenario"] == "churn" for s in churn)


class TestDeterminismCheck:
    def _cell(self, prefix, digest, runs=(0, 1)):
        return [
            ("%s/run%d" % (prefix, run),
             {"metrics_digest": digest, "trace_digest": digest})
            for run in runs
        ]

    def test_agreeing_cells_pass(self):
        rows = (self._cell("determinism/fleet/seed17", "aa")
                + self._cell("determinism/fleet/seed23", "bb"))
        assert check_determinism(_report(rows)) == []

    def test_disagreeing_runs_are_flagged(self):
        rows = [
            ("determinism/probe/seed17/run0",
             {"metrics_digest": "aa", "trace_digest": "aa"}),
            ("determinism/probe/seed17/run1",
             {"metrics_digest": "aa", "trace_digest": "XX"}),
        ]
        problems = check_determinism(_report(rows))
        assert len(problems) == 1 and "disagree" in problems[0]

    def test_seed_insensitive_fleet_is_flagged(self):
        rows = (self._cell("determinism/fleet/seed17", "aa")
                + self._cell("determinism/fleet/seed23", "aa"))
        problems = check_determinism(_report(rows))
        assert len(problems) == 1 and "seed" in problems[0]

    def test_seed_check_is_per_scenario(self):
        # Distinct churn seeds must not hide a smoke scenario that
        # ignores its seed.
        rows = (self._cell("determinism/fleet/seed17", "aa")
                + self._cell("determinism/fleet/seed23", "aa")
                + self._cell("determinism/fleet-churn/seed17", "bb")
                + self._cell("determinism/fleet-churn/seed23", "cc"))
        problems = check_determinism(_report(rows))
        assert len(problems) == 1
        assert problems[0].startswith("determinism/fleet:")


class TestCli:
    def test_run_subcommand_reaches_the_runner(self, capsys):
        from repro.__main__ import main

        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figures-smoke" in out and "determinism" in out

    def test_unknown_suite_is_an_argparse_error(self):
        import pytest

        from repro.runner.__main__ import main

        with pytest.raises(SystemExit):
            main(["no-such-suite"])
