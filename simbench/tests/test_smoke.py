"""One smallest pass of every workload through ``run.main``.

Each workload runs once untraced and once traced (``--seconds 0`` with
``MIN_SAMPLES`` set to 1); the result line must carry exactly the metrics that
``BENCHMARK.json`` names, the traced self times must add up to the
traced wall time, and each workload must leave the layers it bypasses
at zero.  About a minute in all.
"""

import json
import shutil
import subprocess
import sys

import pytest

from simbench import run
from simbench.layers import PER_LAYER, SELF_TIMES
from simbench.workloads import WORKLOADS

from .conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layer prefixes each workload must not touch.
BYPASSED = {
    "fleet_fluid": ("packet.",),
    "fleet_hybrid": (),
    "spray_permutation": ("memory.", "cluster.", "fluid.", "traces."),
    "trace_replay": ("memory.", "cluster.", "packet.", "training."),
}
#: Layer prefixes each workload must exercise.
EXERCISED = {
    "fleet_fluid": ("memory.", "fluid.", "cluster.", "host.", "training."),
    "fleet_hybrid": ("memory.", "fluid.", "packet.", "cluster.", "host.",
                     "training."),
    "spray_permutation": ("packet.",),
    "trace_replay": ("fluid.", "host.", "traces."),
}


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """``run.main`` in ``tmp_path`` with one timed repeat; returns the
    parsed result line."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)

    def bench(*args):
        assert run.main(list(args)) == 0
        out = capsys.readouterr()
        result = json.loads(out.out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], out.err
        assert result["failed"] == 0 and result["attempted"] >= 1
        return result

    return bench


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_pass_prints_every_end_to_end_metric(bench, workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "0")
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"].pop(metric["name"])
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert not result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_prints_every_layer_metric(bench, tmp_path, workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "1")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert sum(values[name] for name in SELF_TIMES) == pytest.approx(
        values["obs.traced_wall_s"], rel=1e-9)
    for prefix in BYPASSED[workload]:
        touched = {k: v for k, v in values.items() if k.startswith(prefix) and v}
        assert not touched, touched
    for prefix in EXERCISED[workload]:
        assert any(v for k, v in values.items() if k.startswith(prefix)), prefix
    if workload == "spray_permutation":
        assert values["packet.retransmissions"] > 0
        assert values["packet.goodput_gbps"] > 0
    spans = list((tmp_path / ".simbench").glob("*.json"))
    assert len(spans) == 1 and json.loads(spans[0].read_text())


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(str(ROOT / "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(str(ROOT / "simbench"), str(tmp_path / "simbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "trace_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
