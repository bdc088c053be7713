"""simlint rule tests: each rule fires on a seeded bad snippet and stays
quiet on the idiomatic equivalent — plus the gate that the shipped tree
itself lints clean."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    RULES,
    layer_violation,
    lint_paths,
    lint_source,
    module_name_for,
    parse_waivers,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rules_fired(source, path="src/repro/net/snippet.py"):
    return {v.rule for v in lint_source(textwrap.dedent(source), path=path)}


class TestDRandom:
    def test_import_random_fires(self):
        assert "D-random" in rules_fired("import random\n")

    def test_from_random_fires(self):
        assert "D-random" in rules_fired("from random import choice\n")

    def test_secrets_fires(self):
        assert "D-random" in rules_fired("import secrets\n")

    def test_numpy_random_attribute_fires(self):
        assert "D-random" in rules_fired(
            "def f(np, xs):\n    np.random.shuffle(xs)\n"
        )

    def test_rng_module_is_exempt(self):
        assert rules_fired(
            "import random\nr = random.Random(7)\n",
            path="src/repro/sim/rng.py",
        ) == set()

    def test_seeded_stream_is_clean(self):
        assert "D-random" not in rules_fired(
            "def f(self):\n    return self.rng.random()\n"
        )


class TestDNpRandom:
    def test_import_numpy_random_fires(self):
        assert "D-nprandom" in rules_fired("import numpy.random\n")

    def test_from_numpy_import_random_fires(self):
        assert "D-nprandom" in rules_fired("from numpy import random\n")

    def test_from_numpy_random_import_name_fires(self):
        assert "D-nprandom" in rules_fired(
            "from numpy.random import default_rng\n"
        )

    def test_aliased_import_fires(self):
        assert "D-nprandom" in rules_fired(
            "from numpy import random as npr\n"
        )

    def test_plain_numpy_import_is_clean(self):
        assert "D-nprandom" not in rules_fired(
            "import numpy as np\nfrom numpy import float64\n"
        )

    def test_rng_module_is_exempt(self):
        assert "D-nprandom" not in rules_fired(
            "from numpy.random import Generator\n",
            path="src/repro/sim/rng.py",
        )


class TestDWallclock:
    def test_time_time_fires(self):
        assert "D-wallclock" in rules_fired(
            "import time\n\ndef f():\n    return time.time()\n"
        )

    def test_perf_counter_import_fires(self):
        assert "D-wallclock" in rules_fired("from time import perf_counter\n")

    def test_datetime_now_fires(self):
        assert "D-wallclock" in rules_fired(
            "import datetime\n\ndef f():\n    return datetime.datetime.now()\n"
        )

    def test_obs_package_is_not_exempt(self):
        # Traces and digests describe simulated behaviour only, so the
        # observability layer gets no wall-clock exemption.
        assert "D-wallclock" in rules_fired(
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            path="src/repro/obs/profiler.py",
        )

    def test_perf_package_is_not_exempt(self):
        # Benchmark timing lives outside src/ (simbench); a perf module
        # inside the package gets no wall-clock exemption.
        assert "D-wallclock" in rules_fired(
            "from time import perf_counter\n\ndef t():\n"
            "    return perf_counter()\n",
            path="src/repro/perf/harness.py",
        )

    def test_exemption_does_not_leak_to_other_layers(self):
        # repro.runner.pool being sanctioned must not loosen the rule
        # anywhere else: the same snippet still fires across the layers.
        snippet = "import time\n\ndef f():\n    return time.perf_counter()\n"
        for path in (
            "src/repro/net/snippet.py",
            "src/repro/cluster/snippet.py",
            "src/repro/sim/snippet.py",
            "src/repro/workloads/snippet.py",
        ):
            assert "D-wallclock" in rules_fired(snippet, path=path), path

    def test_perflike_module_name_elsewhere_not_exempt(self):
        # A module named perf gets no exemption, whatever its layer.
        assert "D-wallclock" in rules_fired(
            "import time\n\ndef f():\n    return time.time()\n",
            path="src/repro/net/perf.py",
        )

    def test_scheduler_now_is_clean(self):
        assert "D-wallclock" not in rules_fired(
            "def f(scheduler):\n    return scheduler.now\n"
        )

    def test_time_sleep_is_clean(self):
        # Only clock *reads* are flagged, not the module import itself.
        assert "D-wallclock" not in rules_fired("import time\n")


class TestDSetIter:
    def test_for_over_set_literal_fires(self):
        assert "D-set-iter" in rules_fired(
            "for x in {1, 2, 3}:\n    print(x)\n"
        )

    def test_for_over_set_call_fires(self):
        assert "D-set-iter" in rules_fired(
            "def f(xs):\n    for x in set(xs):\n        yield x\n"
        )

    def test_comprehension_over_set_fires(self):
        assert "D-set-iter" in rules_fired(
            "def f(xs):\n    return [x for x in frozenset(xs)]\n"
        )

    def test_list_of_set_fires(self):
        assert "D-set-iter" in rules_fired("def f(xs):\n    return list(set(xs))\n")

    def test_sorted_set_is_clean(self):
        assert "D-set-iter" not in rules_fired(
            "def f(xs):\n    for x in sorted(set(xs)):\n        yield x\n"
        )

    def test_membership_is_clean(self):
        assert "D-set-iter" not in rules_fired(
            "def f(xs, y):\n    return y in set(xs)\n"
        )


class TestDIdKey:
    def test_key_id_fires(self):
        assert "D-id-key" in rules_fired("def f(xs):\n    return sorted(xs, key=id)\n")

    def test_lambda_id_fires(self):
        assert "D-id-key" in rules_fired(
            "def f(xs):\n    xs.sort(key=lambda e: id(e))\n"
        )

    def test_attribute_key_is_clean(self):
        assert "D-id-key" not in rules_fired(
            "def f(xs):\n    return sorted(xs, key=lambda e: e.name)\n"
        )


class TestLLayer:
    def test_sim_importing_domain_fires(self):
        assert "L-layer" in rules_fired(
            "from repro.core import StellarHost\n",
            path="src/repro/sim/helper.py",
        )

    def test_memory_importing_virt_fires(self):
        assert "L-layer" in rules_fired(
            "import repro.virt\n", path="src/repro/memory/helper.py",
        )

    def test_anything_importing_legacy_fires(self):
        assert "L-layer" in rules_fired(
            "from repro.legacy import LegacyHost\n",
            path="src/repro/net/helper.py",
        )

    def test_domain_importing_sim_is_clean(self):
        assert rules_fired(
            "from repro.sim import EventScheduler\n",
            path="src/repro/net/helper.py",
        ) == set()

    def test_tests_are_outside_the_dag(self):
        assert rules_fired(
            "from repro.legacy import LegacyHost\nfrom repro.core import X\n",
            path="tests/test_helper.py",
        ) == set()

    def test_layer_violation_helper(self):
        assert layer_violation("repro.sim.engine", "repro.core") is not None
        assert layer_violation("repro.obs.trace", "repro.net.topology") is not None
        assert layer_violation("repro.pcie.switch", "repro.training") is not None
        assert layer_violation("repro.net.topology", "repro.legacy") is not None
        assert layer_violation("repro.legacy.issues", "repro.legacy.framework") is None
        assert layer_violation("repro.net.topology", "repro.sim") is None
        assert layer_violation(None, "repro.legacy") is None

    def test_obs_plane_cannot_import_the_probe(self):
        # Events flow into flight/slo via hooks; importing the probe
        # (which drives domain workloads) would invert that direction.
        assert layer_violation("repro.obs.flight", "repro.obs.probe") is not None
        assert layer_violation("repro.obs.slo", "repro.obs.probe") is not None
        assert layer_violation("repro.obs.probe", "repro.obs.flight") is None
        assert layer_violation("repro.obs.export", "repro.obs.probe") is None
        assert "L-layer" in rules_fired(
            "from repro.obs.probe import run_probe\n",
            path="src/repro/obs/slo.py",
        )
        assert "L-layer" not in rules_fired(
            "from repro.obs.flight import FlightRecorder\n",
            path="src/repro/obs/slo.py",
        )


class TestLPrivate:
    def test_foreign_private_access_fires(self):
        assert "L-private" in rules_fired(
            "def f(sim):\n    return sim._ports\n"
        )

    def test_private_import_fires(self):
        assert "L-private" in rules_fired(
            "from repro.net.packet_sim import _hop\n"
        )

    def test_self_access_is_clean(self):
        assert "L-private" not in rules_fired(
            "class C:\n    def f(self):\n        return self._ports\n"
        )

    def test_module_local_private_is_clean(self):
        # The module assigns _plan itself, so sibling access is
        # intra-module coupling, not cross-module reaching.
        assert "L-private" not in rules_fired(
            "class Flow:\n"
            "    def __init__(self):\n"
            "        self._plan = None\n"
            "class Sim:\n"
            "    def touch(self, flow):\n"
            "        return flow._plan\n"
        )


class TestASnapshotPair:
    def test_register_without_snapshot_fires(self):
        assert "A-snapshot-pair" in rules_fired(
            "class C:\n"
            "    def register_metrics(self, registry):\n"
            "        registry.add_provider('c', dict)\n"
        )

    def test_register_with_snapshot_is_clean(self):
        assert "A-snapshot-pair" not in rules_fired(
            "class C:\n"
            "    def register_metrics(self, registry):\n"
            "        registry.add_provider('c', self.snapshot)\n"
            "    def snapshot(self):\n"
            "        return {'x': 1}\n"
        )


class TestASnapshotPlain:
    def test_returning_internal_object_fires(self):
        assert "A-snapshot-plain" in rules_fired(
            "class C:\n"
            "    def snapshot(self):\n"
            "        return self._entries\n"
        )

    def test_set_value_fires(self):
        assert "A-snapshot-plain" in rules_fired(
            "class C:\n"
            "    def snapshot(self):\n"
            "        return {'members': {1, 2}}\n"
        )

    def test_missing_return_fires(self):
        assert "A-snapshot-plain" in rules_fired(
            "class C:\n"
            "    def snapshot(self):\n"
            "        pass\n"
        )

    def test_dict_literal_is_clean(self):
        assert "A-snapshot-plain" not in rules_fired(
            "class C:\n"
            "    def snapshot(self):\n"
            "        return {'x': self.x, 'items': [1, 2]}\n"
        )

    def test_super_extension_is_clean(self):
        assert "A-snapshot-plain" not in rules_fired(
            "class C(B):\n"
            "    def snapshot(self):\n"
            "        snap = super().snapshot()\n"
            "        snap['extra'] = 1\n"
            "        return snap\n"
        )

    def test_module_level_snapshot_function_ignored(self):
        assert "A-snapshot-plain" not in rules_fired(
            "def snapshot(thing):\n    return thing\n"
        )


class TestAFlightPlain:
    def test_set_payload_fires(self):
        assert "A-flight-plain" in rules_fired(
            "def f(self, t):\n"
            "    self.flight.record(t, 'net', 'k', paths={1, 2})\n"
        )

    def test_lambda_payload_fires(self):
        assert "A-flight-plain" in rules_fired(
            "def f(flight, t):\n"
            "    flight.record(t, 'net', 'k', fn=lambda: 1)\n"
        )

    def test_generator_payload_fires(self):
        assert "A-flight-plain" in rules_fired(
            "def f(recorder, t, xs):\n"
            "    recorder.record(t, 'net', 'k', seqs=(x for x in xs))\n"
        )

    def test_plain_payload_is_clean(self):
        assert "A-flight-plain" not in rules_fired(
            "def f(self, t, seq):\n"
            "    self.sim.flight.record(t, 'net', 'retransmit',\n"
            "                           entity='flow', seq=seq,\n"
            "                           paths=[1, 2], info={'a': 1})\n"
        )

    def test_non_flight_record_calls_ignored(self):
        # A metrics recorder with a set argument is not this rule's
        # business (other rules may still apply to it).
        assert "A-flight-plain" not in rules_fired(
            "def f(registry):\n"
            "    registry.record('name', {1, 2})\n"
        )

    def test_positional_payload_checked_too(self):
        assert "A-flight-plain" in rules_fired(
            "def f(flight, t):\n"
            "    flight.record(t, 'net', 'k', {1, 2})\n"
        )

    def test_rule_is_listed(self):
        assert "A-flight-plain" in RULES


class TestWaivers:
    def test_exact_rule_waiver(self):
        assert rules_fired(
            "import random  # simlint: ok D-random\n"
        ) == set()

    def test_family_waiver(self):
        assert rules_fired(
            "import random  # simlint: ok D\n"
        ) == set()

    def test_bare_waiver_waives_all(self):
        assert rules_fired(
            "import random  # simlint: ok\n"
        ) == set()

    def test_waiver_is_rule_specific(self):
        fired = rules_fired(
            "from random import choice  # simlint: ok D-wallclock\n"
        )
        assert "D-random" in fired

    def test_waiver_in_string_does_not_count(self):
        fired = rules_fired(
            'MESSAGE = "# simlint: ok D-random"\nimport random\n'
        )
        assert "D-random" in fired

    def test_multiline_statement_end_line_waiver(self):
        source = (
            "from random import (\n"
            "    choice,\n"
            ")  # simlint: ok D-random\n"
        )
        assert rules_fired(source) == set()

    def test_parse_waivers_shape(self):
        waivers = parse_waivers("x = 1  # simlint: ok D-random L-layer\n")
        assert waivers == {1: {"D-random", "L-layer"}}


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"

    def test_package_init(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_outside_package(self):
        assert module_name_for("tests/test_sim_engine.py") is None


class TestHarness:
    def test_every_rule_has_description(self):
        assert set(RULES) == {
            "D-random", "D-nprandom", "D-wallclock", "D-set-iter",
            "D-id-key", "D-taskpure", "D-taskpure-deep", "D-sim-pure",
            "L-layer", "L-private", "L-api-drift", "A-snapshot-pair",
            "A-snapshot-plain", "A-flight-plain",
        }
        assert all(RULES.values())

    def test_violation_locations_are_reported(self):
        violations = lint_source(
            "x = 1\nimport random\n", path="src/repro/net/snippet.py",
        )
        assert [(v.rule, v.line) for v in violations] == [("D-random", 2)]

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n")


class TestShippedTreeIsClean:
    def test_src_tests_benchmarks_lint_clean(self):
        paths = [os.path.join(REPO_ROOT, name)
                 for name in ("src", "tests", "benchmarks")]
        paths = [p for p in paths if os.path.isdir(p)]
        assert paths, "repo layout changed; update this test"
        violations = lint_paths(paths)
        assert violations == [], "\n".join(repr(v) for v in violations)

    @pytest.mark.slow
    def test_cli_exit_status(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        ok = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(clean)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        bad = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(dirty)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert bad.returncode == 1
        assert "D-random" in bad.stdout


class TestClusterLayer:
    def test_domain_importing_cluster_fires(self):
        assert "L-layer" in rules_fired(
            "from repro.cluster import FleetHost\n",
            path="src/repro/net/helper.py",
        )
        assert "L-layer" in rules_fired(
            "import repro.cluster.fleet\n",
            path="src/repro/training/helper.py",
        )

    def test_infra_importing_cluster_fires(self):
        assert "L-layer" in rules_fired(
            "from repro.cluster import FleetSimulation\n",
            path="src/repro/obs/helper.py",
        )

    def test_workloads_importing_cluster_is_clean(self):
        assert rules_fired(
            "from repro.cluster import FleetSimulation\n",
            path="src/repro/workloads/helper.py",
        ) == set()

    def test_cluster_may_import_domains_but_not_legacy(self):
        assert rules_fired(
            "from repro.net import DualPlaneTopology\n"
            "from repro.core import StellarHost\n"
            "from repro.training import TrainingSimulation\n",
            path="src/repro/cluster/helper.py",
        ) == set()
        assert "L-layer" in rules_fired(
            "from repro.legacy import LegacyHost\n",
            path="src/repro/cluster/helper.py",
        )

    def test_layer_violation_helper_covers_cluster(self):
        assert layer_violation("repro.net.topology", "repro.cluster") is not None
        assert layer_violation("repro.workloads.fleet_bench",
                               "repro.cluster") is None
        assert layer_violation("repro.cluster.fleet", "repro.training") is None

    def test_fidelity_module_sits_inside_the_cluster_layer(self):
        # The hybrid-fidelity controller is cluster-internal policy: the
        # fleet may import it, but the packet/fluid engines it promotes
        # between must never reach back up into it.
        assert layer_violation("repro.cluster.fleet",
                               "repro.cluster.fidelity") is None
        assert layer_violation("repro.net.packet_sim",
                               "repro.cluster.fidelity") is not None
        assert layer_violation("repro.net.fluid_sim",
                               "repro.cluster.fidelity") is not None
        assert "L-layer" in rules_fired(
            "from repro.cluster.fidelity import FidelityController\n",
            path="src/repro/net/packet_sim.py",
        )
        assert rules_fired(
            "from repro.cluster.fidelity import FidelityController\n",
            path="src/repro/cluster/fleet.py",
        ) == set()
