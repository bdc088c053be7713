"""Self-time arithmetic and the wrapper plumbing of the traced run."""

import contextlib

import pytest

from simbench.layers import PER_LAYER, SELF_TIMES, SPANNED, Instrumentation
from simbench.tracing import (
    SpanRecorder,
    has_ancestor,
    self_time_by_name,
    self_times,
)


def recorder_with_clock(times):
    ticks = iter(times)
    return SpanRecorder("synthetic", clock=lambda: next(ticks))


def nested_tree():
    """root [0, 10] > a [1, 4] > a.leaf [2, 3]; root > b [5, 9] > b [6, 7]."""
    recorder = recorder_with_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    root = recorder.open("root")
    a = recorder.open("a")
    leaf = recorder.open("a.leaf")
    recorder.close(leaf)
    recorder.close(a)
    b = recorder.open("b")
    inner = recorder.open("b")
    recorder.close(inner)
    recorder.close(b)
    recorder.close(root)
    return recorder


def test_self_time_is_duration_minus_direct_children():
    spans = nested_tree().spans
    assert self_times(spans) == [3, 2, 1, 3, 1]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_by_name_sums_repeated_names():
    assert self_time_by_name(nested_tree().spans) == {
        "root": 3, "a": 2, "a.leaf": 1, "b": 4,
    }


def test_spans_record_parent_and_run_id():
    recorder = nested_tree()
    assert [span.parent for span in recorder.spans] == [None, 0, 1, 0, 3]
    assert {row["run_id"] for row in recorder.dump()} == {"synthetic"}
    assert has_ancestor(recorder.spans, 2, "root")
    assert not has_ancestor(recorder.spans, 2, "b")


def test_out_of_order_close_is_rejected():
    recorder = recorder_with_clock(range(10))
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_wrappers_live_only_inside_the_stack():
    originals = [owner.__dict__[attr] for owner, attr, _ in SPANNED]
    with contextlib.ExitStack() as stack:
        Instrumentation(SpanRecorder("install")).install(stack)
        assert all(owner.__dict__[attr] is not original for (owner, attr, _),
                   original in zip(SPANNED, originals))
    assert all(owner.__dict__[attr] is original for (owner, attr, _),
               original in zip(SPANNED, originals))


def test_layer_table_sums_to_traced_wall():
    recorder = nested_tree()
    recorder.spans[0].name = "cluster.run"
    recorder.spans[1].name = "fluid.run"
    recorder.spans[2].name = "training.train"
    recorder.spans[3].name = "packet.run_flows"
    recorder.spans[4].name = "packet.run"
    values = Instrumentation(recorder).metrics(12.0, 10.0, {"cluster.epochs": 4})
    assert list(values) == [name for name, _, _ in PER_LAYER]
    assert values["cluster.self_s"] == 3
    assert values["packet.run_s"] == 4
    assert values["other.self_s"] == 2
    assert sum(values[name] for name in SELF_TIMES) == 12.0
    assert values["cluster.fluid_solves"] == 1
    assert values["cluster.packet_solves"] == 1
    assert values["cluster.epochs"] == 4
    assert values["obs.trace_overhead"] == pytest.approx(0.2)


def test_unknown_fact_is_an_error():
    with pytest.raises(KeyError):
        Instrumentation(nested_tree()).metrics(10.0, 10.0, {"bogus": 1})
