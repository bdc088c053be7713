"""simlint v2 whole-program tests: call graph, taint propagation, the
transitive rules (``D-taskpure-deep``/``D-sim-pure``/``L-api-drift``),
SARIF output, and the rule-catalogue/waiver contracts.

The acceptance fixture at the top is the one the per-file linter
*provably* cannot catch: a ``@task`` whose transitively called helper
two call-graph hops away, in another module, reads the wall clock.  The
leaf waives ``D-wallclock`` so every file is per-file clean, yet the
taint still reaches the task."""

import json
import os
import textwrap

import pytest

from repro.lint import (
    RULES,
    lint_project,
    lint_source,
    lint_sources,
    render,
    sarif_document,
)
from repro.lint.callgraph import (
    SCHEDULE_VERBS,
    SUMMARY_SCHEMA,
    ProjectIndex,
    deep_module_name,
    summarize_tree,
)
from repro.lint.purity import (
    TAINT_RULE_KINDS,
    classify,
    collect_taint_sources,
    propagate_taints,
    witness_chain,
)
from repro.lint.report import SARIF_SCHEMA_URI, SARIF_VERSION
from repro.lint.rules import parse_waivers, rule_waived_at, waiver_lines_for

import ast


def _dedent_tree(files):
    return {path: textwrap.dedent(source) for path, source in files.items()}


def _rules_of(report):
    return {v.rule for v in report.violations}


def _index_of(files):
    summaries = []
    for path in sorted(files):
        source = textwrap.dedent(files[path])
        tree = ast.parse(source, filename=path)
        summaries.append(summarize_tree(path, tree, parse_waivers(source)))
    return ProjectIndex(summaries)


# The two-hop acceptance fixture: task -> helper (other module) ->
# wall-clock leaf (third module).  The leaf waives the *per-file* rule
# only, so file-by-file linting sees nothing anywhere.
TWO_HOP = _dedent_tree({
    "src/repro/workloads/wl_alpha.py": """\
        from repro.analysis.wl_beta import helper_total
        from repro.runner.spec import task


        @task
        def alpha_sweep(n, seed=None):
            return {"total": helper_total(n)}
        """,
    "src/repro/analysis/wl_beta.py": """\
        from repro.net.wl_gamma import jitter_sample


        def helper_total(n):
            return jitter_sample(n) + 1
        """,
    "src/repro/net/wl_gamma.py": """\
        import time


        def jitter_sample(n):
            return n + time.time()  # simlint: ok D-wallclock
        """,
    # The runner references tasks by dotted path, which keeps the task
    # itself out of L-api-drift's way (string identifiers count as use).
    "tests/wl_specs.py":
        'SPECS = ["repro.workloads.wl_alpha:alpha_sweep"]\n',
})


class TestTwoHopAcceptance:
    def test_every_file_is_per_file_clean(self):
        for path, source in TWO_HOP.items():
            assert lint_source(source, path=path) == [], path

    def test_per_file_mode_misses_the_taint(self):
        report = lint_sources(TWO_HOP, deep=False)
        assert report.clean

    def test_deep_analysis_catches_it(self):
        report = lint_sources(TWO_HOP)
        assert _rules_of(report) == {"D-taskpure-deep"}
        [violation] = report.violations
        assert violation.path == "src/repro/workloads/wl_alpha.py"
        assert violation.line == 6  # the task's def line
        assert "alpha_sweep" in violation.message
        assert "time.time at src/repro/net/wl_gamma.py:5" in violation.message
        assert "via helper_total -> jitter_sample" in violation.message

    def test_rng_leaf_variant(self):
        files = dict(TWO_HOP)
        files["src/repro/net/wl_gamma.py"] = textwrap.dedent("""\
            import random  # simlint: ok D-random


            def jitter_sample(n):
                return n + random.random()  # simlint: ok D-random
            """)
        for path, source in files.items():
            assert lint_source(source, path=path) == [], path
        report = lint_sources(files)
        assert _rules_of(report) == {"D-taskpure-deep"}
        assert "ambient randomness" in report.violations[0].message

    def test_global_mutation_leaf_variant(self):
        # No waiver needed at the leaf: mutating your own module global
        # is invisible to every per-file rule, only the deep audit sees
        # a @task reaching it.
        files = dict(TWO_HOP)
        files["src/repro/net/wl_gamma.py"] = textwrap.dedent("""\
            _SAMPLES = []


            def jitter_sample(n):
                _SAMPLES.append(n)
                return len(_SAMPLES)
            """)
        for path, source in files.items():
            assert lint_source(source, path=path) == [], path
        report = lint_sources(files)
        assert _rules_of(report) == {"D-taskpure-deep"}
        assert "module-state mutation" in report.violations[0].message

    def test_waiving_the_deep_rule_at_the_source_stops_it(self):
        files = dict(TWO_HOP)
        files["src/repro/net/wl_gamma.py"] = files[
            "src/repro/net/wl_gamma.py"
        ].replace("ok D-wallclock", "ok D-wallclock D-taskpure-deep")
        assert lint_sources(files).clean

    def test_family_waiver_at_the_source_stops_it(self):
        files = dict(TWO_HOP)
        files["src/repro/net/wl_gamma.py"] = files[
            "src/repro/net/wl_gamma.py"
        ].replace("ok D-wallclock", "ok D")
        assert lint_sources(files).clean

    def test_waiver_on_the_task_decorator_line_stops_it(self):
        files = dict(TWO_HOP)
        files["src/repro/workloads/wl_alpha.py"] = files[
            "src/repro/workloads/wl_alpha.py"
        ].replace("@task", "@task  # simlint: ok D-taskpure-deep")
        assert lint_sources(files).clean

    def test_wallclock_allowlist_produces_no_taint(self):
        # The same two-hop shape, but the leaf lives under
        # repro.runner.pool — the sanctioned timing package — so there is
        # no taint at all.
        files = dict(TWO_HOP)
        del files["src/repro/net/wl_gamma.py"]
        files["src/repro/runner/pool/wl_gamma.py"] = textwrap.dedent("""\
            import time


            def jitter_sample(n):
                return n + time.time()
            """)
        files["src/repro/analysis/wl_beta.py"] = files[
            "src/repro/analysis/wl_beta.py"
        ].replace("repro.net.wl_gamma", "repro.runner.pool.wl_gamma")
        assert lint_sources(files).clean


class TestSimPure:
    SIM_FILES = _dedent_tree({
        "src/repro/net/wl_gamma.py": TWO_HOP["src/repro/net/wl_gamma.py"],
        "src/repro/net/burst.py": """\
            from repro.net.wl_gamma import jitter_sample


            class Burst:
                def __init__(self, scheduler):
                    self.scheduler = scheduler

                def start(self):
                    self.scheduler.schedule(1.0, self.tick)

                def tick(self):
                    return jitter_sample(3)
            """,
        "tests/use_burst.py": "from repro.net.burst import Burst\n",
    })

    def test_method_callback_reaching_wallclock_fires(self):
        report = lint_sources(self.SIM_FILES)
        assert _rules_of(report) == {"D-sim-pure"}
        [violation] = report.violations
        assert violation.path == "src/repro/net/burst.py"
        assert "Burst.tick" in violation.message
        assert "wall-clock" in violation.message

    def test_lambda_callback_is_a_root_too(self):
        files = {
            "src/repro/net/wl_gamma.py": TWO_HOP[
                "src/repro/net/wl_gamma.py"
            ],
            "src/repro/net/burst.py": textwrap.dedent("""\
                from repro.net.wl_gamma import jitter_sample


                def arm(scheduler):
                    scheduler.schedule_call(1.0, lambda: jitter_sample(1))
                """),
            "tests/use_burst.py": "from repro.net.burst import arm\n",
        }
        report = lint_sources(files)
        assert _rules_of(report) == {"D-sim-pure"}

    def test_global_mutation_does_not_fire_sim_pure(self):
        # D-sim-pure only audits wallclock/rng: callbacks may mutate
        # their owner's state (that is what callbacks do).
        assert TAINT_RULE_KINDS["D-sim-pure"] == ("wallclock", "rng")
        files = {
            "src/repro/net/wl_gamma.py": textwrap.dedent("""\
                SAMPLES = []


                def jitter_sample(n):
                    SAMPLES.append(n)
                    return len(SAMPLES)
                """),
            "src/repro/net/burst.py": self.SIM_FILES[
                "src/repro/net/burst.py"
            ],
        }
        report = lint_sources(files)
        assert "D-sim-pure" not in _rules_of(report)

    def test_clean_callback_is_clean(self):
        files = {
            "src/repro/net/burst.py": textwrap.dedent("""\
                class Burst:
                    def __init__(self, scheduler):
                        self.scheduler = scheduler

                    def start(self):
                        self.scheduler.schedule(1.0, self.tick)

                    def tick(self):
                        return 7
                """),
            "tests/use_burst.py": "from repro.net.burst import Burst\n",
        }
        assert lint_sources(files).clean

    def test_schedule_verbs_catalogue(self):
        assert SCHEDULE_VERBS == {"schedule", "schedule_call", "schedule_at"}


class TestApiDrift:
    def test_unreferenced_public_symbol_fires(self):
        files = {
            "src/repro/net/drift_a.py": "USED = 1\nUNUSED = 2\n",
            "tests/test_drift_user.py":
                "from repro.net.drift_a import USED\n\nassert USED\n",
        }
        report = lint_sources(files)
        assert [(v.rule, v.path, v.line) for v in report.violations] == [
            ("L-api-drift", "src/repro/net/drift_a.py", 2),
        ]
        assert "UNUSED" in report.violations[0].message

    def test_string_dotted_path_counts_as_usage(self):
        # TaskSpec-style "module:attr" strings must keep the task library
        # alive: the runner resolves those names at run time.
        files = {
            "src/repro/net/drift_a.py": "def spot_check(n):\n    return n\n",
            "tests/test_drift_user.py":
                'SPEC = "repro.net.drift_a:spot_check"\n',
        }
        assert lint_sources(files).clean

    def test_waiver_keeps_an_intentional_export(self):
        files = {
            "src/repro/net/drift_a.py":
                "KEPT = 3  # simlint: ok L-api-drift\n",
        }
        assert lint_sources(files).clean

    def test_main_modules_are_entry_points_not_exports(self):
        files = {
            "src/repro/net/__main__.py": "ENTRY = 1\n\nprint(ENTRY)\n",
        }
        assert lint_sources(files).clean

    def test_non_repro_files_are_not_audited(self):
        files = {
            "tests/helper_mod.py": "ORPHAN = 1\n",
        }
        assert lint_sources(files).clean

    def test_reference_sources_feed_the_pool_without_being_linted(self):
        files = {
            "src/repro/net/drift_a.py": "TUNABLE = 1\n",
        }
        refs = {
            # A reference-only file may itself be wildly non-compliant;
            # only the names it mentions matter.
            "examples/demo.py":
                "import random\nfrom repro.net.drift_a import TUNABLE\n",
        }
        assert lint_sources(files, reference_sources=refs).clean
        assert not lint_sources(files).clean


class TestCallGraph:
    def test_deep_module_name(self):
        assert deep_module_name("src/repro/sim/engine.py") == \
            "repro.sim.engine"
        assert deep_module_name("tests/runner_task_fixtures.py") == \
            "tests.runner_task_fixtures"
        assert deep_module_name("benchmarks/pkg/__init__.py") == \
            "benchmarks.pkg"

    def test_summary_shape_is_json_plain(self):
        source = "def f():\n    return g()\n\n\ndef g():\n    return 1\n"
        tree = ast.parse(source)
        summary = summarize_tree("src/repro/net/mini.py", tree, {})
        assert summary["schema"] == SUMMARY_SCHEMA
        assert json.loads(json.dumps(summary)) == summary
        assert [fn["qualname"] for fn in summary["functions"]] == ["f", "g"]

    def test_cross_module_from_import_resolves(self):
        index = _index_of({
            "src/repro/net/a.py":
                "from repro.net.b import helper\n\n\ndef f():\n"
                "    return helper()\n",
            "src/repro/net/b.py": "def helper():\n    return 1\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == \
            ["repro.net.b:helper"]

    def test_module_alias_dotted_call_resolves(self):
        index = _index_of({
            "src/repro/net/a.py":
                "import repro.net.b as nb\n\n\ndef f():\n"
                "    return nb.helper()\n",
            "src/repro/net/b.py": "def helper():\n    return 1\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == \
            ["repro.net.b:helper"]

    def test_instantiation_resolves_to_init(self):
        index = _index_of({
            "src/repro/net/a.py":
                "class Widget:\n"
                "    def __init__(self):\n"
                "        self.n = 0\n\n\n"
                "def f():\n"
                "    return Widget()\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == \
            ["repro.net.a:Widget.__init__"]

    def test_local_variable_method_call_resolves_by_class(self):
        index = _index_of({
            "src/repro/net/a.py":
                "class Widget:\n"
                "    def poke(self):\n"
                "        return 1\n\n\n"
                "def f():\n"
                "    w = Widget()\n"
                "    return w.poke()\n",
        })
        assert "repro.net.a:Widget.poke" in \
            index.nodes["repro.net.a:f"]["edges"]

    def test_self_attribute_method_call_resolves_by_class(self):
        index = _index_of({
            "src/repro/net/a.py":
                "class Engine:\n"
                "    def step(self):\n"
                "        return 1\n\n\n"
                "class Sim:\n"
                "    def __init__(self):\n"
                "        self.engine = Engine()\n\n"
                "    def run(self):\n"
                "        return self.engine.step()\n",
        })
        assert "repro.net.a:Engine.step" in \
            index.nodes["repro.net.a:Sim.run"]["edges"]

    def test_inherited_method_resolves_through_bases(self):
        index = _index_of({
            "src/repro/net/a.py":
                "class Base:\n"
                "    def poke(self):\n"
                "        return 1\n\n\n"
                "class Child(Base):\n"
                "    def f(self):\n"
                "        return self.poke()\n",
        })
        assert index.nodes["repro.net.a:Child.f"]["edges"] == \
            ["repro.net.a:Base.poke"]

    def test_functools_partial_unwraps(self):
        index = _index_of({
            "src/repro/net/a.py":
                "from functools import partial\n\n\n"
                "def helper(n):\n"
                "    return n\n\n\n"
                "def f():\n"
                "    return partial(helper, 3)\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == \
            ["repro.net.a:helper"]

    def test_scheduled_callback_becomes_a_sim_root(self):
        index = _index_of({
            "src/repro/net/a.py":
                "def tick():\n"
                "    return 1\n\n\n"
                "def arm(scheduler):\n"
                "    scheduler.schedule_call(1.0, tick)\n",
        })
        assert "repro.net.a:tick" in index.sim_roots
        assert "repro.net.a:tick" in index.nodes["repro.net.a:arm"]["edges"]

    def test_nested_function_is_an_implicit_edge(self):
        index = _index_of({
            "src/repro/net/a.py":
                "def f():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == \
            ["repro.net.a:f.<locals>.inner"]

    def test_unresolvable_calls_are_counted_not_guessed(self):
        index = _index_of({
            "src/repro/net/a.py":
                "def f(runner):\n"
                "    return runner()\n",
        })
        assert index.nodes["repro.net.a:f"]["edges"] == []
        assert index.stats["unresolved_calls"] == 1


class TestPurityPrimitives:
    def test_classify_and_witness_chain(self):
        index = _index_of(TWO_HOP)
        sources = collect_taint_sources(index)
        assert [s["kind"] for s in sources] == ["wallclock"]
        reach = propagate_taints(index, sources)
        kinds = classify(index, sources, reach)
        task_id = "repro.workloads.wl_alpha:alpha_sweep"
        assert kinds[task_id] == ["wallclock"]
        chain = witness_chain(index, reach, sources, task_id, 0)
        assert chain == [
            task_id,
            "repro.analysis.wl_beta:helper_total",
            "repro.net.wl_gamma:jitter_sample",
        ]

    def test_source_carries_its_waivers(self):
        index = _index_of(TWO_HOP)
        [source] = collect_taint_sources(index)
        assert source["waived"] == {"D-wallclock"}
        assert source["path"] == "src/repro/net/wl_gamma.py"


class TestSarifOutput:
    def _dirty_report(self):
        return lint_sources(TWO_HOP)

    def test_sarif_2_1_0_shape(self):
        doc = sarif_document(self._dirty_report())
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA_URI
        assert SARIF_VERSION in SARIF_SCHEMA_URI
        [run] = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        assert [r["id"] for r in driver["rules"]] == sorted(RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"] == RULES[rule["id"]]
        assert run["results"], "fixture should produce findings"
        for result in run["results"]:
            assert result["ruleId"] in RULES
            assert driver["rules"][result["ruleIndex"]]["id"] == \
                result["ruleId"]
            assert result["message"]["text"]
            [location] = result["locations"]
            physical = location["physicalLocation"]
            assert "\\" not in physical["artifactLocation"]["uri"]
            region = physical["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_render_round_trips_all_formats(self):
        report = self._dirty_report()
        assert "D-taskpure-deep" in render(report, "text")
        payload = json.loads(render(report, "json"))
        assert payload["clean"] is False
        assert payload["violations"][0]["rule"] == "D-taskpure-deep"
        sarif = json.loads(render(report, "sarif"))
        assert sarif["version"] == "2.1.0"

    def test_unknown_format_raises(self):
        try:
            render(self._dirty_report(), "xml")
        except ValueError as error:
            assert "xml" in str(error)
        else:
            raise AssertionError("render accepted an unknown format")

    def test_clean_report_has_empty_results(self):
        report = lint_sources({"src/repro/net/ok.py": "_X = 1\nprint(_X)\n"})
        doc = sarif_document(report)
        assert doc["runs"][0]["results"] == []


#: One firing fixture per per-file rule (rule -> (source, path)).
PER_FILE_FIXTURES = {
    "D-random": ("import random\n", "src/repro/net/snippet.py"),
    "D-nprandom": (
        "from numpy import random\n", "src/repro/net/snippet.py",
    ),
    "D-wallclock": (
        "import time\n\n\ndef f():\n    return time.time()\n",
        "src/repro/net/snippet.py",
    ),
    "D-set-iter": (
        "def f():\n    for x in {1, 2}:\n        pass\n",
        "src/repro/net/snippet.py",
    ),
    "D-id-key": (
        "def f(xs):\n    xs.sort(key=id)\n",
        "src/repro/net/snippet.py",
    ),
    "D-taskpure": (
        "@task\ndef t(spec, acc=[]):\n    return acc\n",
        "src/repro/net/snippet.py",
    ),
    "L-layer": (
        "from repro.net import topology\n",
        "src/repro/sim/snippet.py",
    ),
    "L-private": (
        "from repro.net.flow import _stat\n",
        "src/repro/net/snippet.py",
    ),
    "A-snapshot-pair": (
        "class C:\n    def register_metrics(self, registry):\n"
        "        pass\n",
        "src/repro/net/snippet.py",
    ),
    "A-snapshot-plain": (
        "class C:\n    def snapshot(self):\n        return {1, 2}\n",
        "src/repro/net/snippet.py",
    ),
    "A-flight-plain": (
        "class C:\n    def f(self):\n"
        "        self.flight.record('evt', {1, 2})\n",
        "src/repro/net/snippet.py",
    ),
}

#: One firing fixture per whole-program rule (rule -> files dict).
DEEP_FIXTURES = {
    "D-taskpure-deep": TWO_HOP,
    "D-sim-pure": TestSimPure.SIM_FILES,
    "L-api-drift": {"src/repro/net/drift_a.py": "ORPHAN = 1\n"},
}


class TestRuleCatalogue:
    def test_every_rule_has_a_firing_fixture(self):
        covered = set(PER_FILE_FIXTURES) | set(DEEP_FIXTURES)
        assert covered == set(RULES)

    def test_per_file_fixtures_fire_their_rule(self):
        for rule, (source, path) in PER_FILE_FIXTURES.items():
            fired = {v.rule for v in lint_source(source, path=path)}
            assert rule in fired, rule
            assert fired <= set(RULES), rule

    def test_deep_fixtures_fire_their_rule(self):
        for rule, files in DEEP_FIXTURES.items():
            report = lint_sources(files)
            fired = _rules_of(report)
            assert rule in fired, rule
            assert fired <= set(RULES), rule


class TestWaiverEdgeCases:
    def test_one_waiver_names_multiple_rules(self):
        source = "import random  # simlint: ok D-random L-layer\n"
        assert lint_source(source, path="src/repro/net/x.py") == []

    def test_multi_rule_waiver_does_not_cover_unnamed_rules(self):
        source = "import random  # simlint: ok D-wallclock L-layer\n"
        fired = {v.rule for v in lint_source(source, "src/repro/net/x.py")}
        assert fired == {"D-random"}

    def test_two_violations_on_one_line_need_both_names(self):
        # A layer break importing a private name is two findings on the
        # same line; the waiver must name both to silence both.
        source = "from repro.net.flow import _stat" \
            "  # simlint: ok L-layer L-private\n"
        assert lint_source(source, path="src/repro/sim/x.py") == []
        partial = "from repro.net.flow import _stat  # simlint: ok L-layer\n"
        fired = {v.rule for v in lint_source(partial, "src/repro/sim/x.py")}
        assert fired == {"L-private"}

    def test_decorator_line_waiver_covers_the_def(self):
        source = "@task  # simlint: ok D-taskpure\n" \
            "def t(spec, acc=[]):\n    return acc\n"
        assert lint_source(source, path="src/repro/net/x.py") == []

    def test_def_line_waiver_covers_the_body(self):
        source = "@task\n" \
            "def t(spec, acc=[]):  # simlint: ok D-taskpure\n" \
            "    return acc\n"
        assert lint_source(source, path="src/repro/net/x.py") == []

    def test_multiline_call_waives_on_first_line(self):
        source = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time(  # simlint: ok D-wallclock\n"
            "    )\n"
        )
        assert lint_source(source, path="src/repro/net/x.py") == []

    def test_multiline_call_waives_on_last_line(self):
        source = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time(\n"
            "    )  # simlint: ok D-wallclock\n"
        )
        assert lint_source(source, path="src/repro/net/x.py") == []

    def test_middle_line_of_a_multiline_call_does_not_waive(self):
        source = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time(\n"
            "        # simlint: ok D-wallclock\n"
            "    )\n"
        )
        fired = {v.rule for v in lint_source(source, "src/repro/net/x.py")}
        assert fired == {"D-wallclock"}

    def test_waiver_lines_for_covers_span_and_decorators(self):
        tree = ast.parse(
            "@task\n@other\ndef f():\n    return (1 +\n            2)\n"
        )
        fn = tree.body[0]
        assert waiver_lines_for(fn) == {1, 2, 3, 5}

    def test_rule_waived_at_family_and_star(self):
        assert rule_waived_at({3: {"D"}}, (3,), "D-taskpure-deep")
        assert rule_waived_at({3: {"*"}}, (3,), "L-api-drift")
        assert not rule_waived_at({3: {"L"}}, (3,), "D-taskpure-deep")
        assert not rule_waived_at({4: {"D"}}, (3,), "D-taskpure-deep")


class TestShippedTreeIsDeepClean:
    @pytest.mark.slow
    def test_whole_program_lint_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(repo, name)
                 for name in ("src", "tests", "benchmarks")]
        paths = [p for p in paths if os.path.isdir(p)]
        refs = [p for p in [os.path.join(repo, "examples")]
                if os.path.isdir(p)]
        report = lint_project(paths, use_cache=False, reference_paths=refs)
        assert report.clean, "\n".join(repr(v) for v in report.violations)
        # Every linted file was really parsed (no stale cache involved).
        assert report.stats["parsed"] >= report.stats["files"]
