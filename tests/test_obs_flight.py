"""FlightRecorder unit tests: ring semantics, export, and the Perfetto
merge (sampler counter tracks + flight instant tracks in one document)."""

import json

import pytest

from repro.obs import FlightRecorder, write_perfetto_trace
from repro.obs.export import load_chrome_trace, perfetto_document
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler


class TestRing:
    def test_records_in_order(self):
        flight = FlightRecorder()
        for i in range(5):
            flight.record(float(i), "net", "kind-%d" % i, seq=i)
        events = flight.events()
        assert [e["kind"] for e in events] == ["kind-%d" % i for i in range(5)]
        assert [e["t"] for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert flight.recorded == 5
        assert flight.dropped == 0

    def test_capacity_evicts_oldest_first(self):
        flight = FlightRecorder(capacity=4)
        for i in range(6):
            flight.record(float(i), "net", "k", seq=i)
        assert len(flight) == 4
        assert flight.dropped == 2
        assert flight.recorded == 6
        assert [e["payload"]["seq"] for e in flight.events()] == [2, 3, 4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_unknown_severity_rejected(self):
        flight = FlightRecorder()
        with pytest.raises(ValueError):
            flight.record(0.0, "net", "k", severity="fatal")

    def test_by_kind_and_severity_counts(self):
        flight = FlightRecorder()
        flight.record(0.0, "net", "retransmit", severity="warn")
        flight.record(1.0, "net", "path-down", severity="error")
        flight.record(2.0, "net", "retransmit", severity="warn")
        assert len(flight.by_kind("retransmit")) == 2
        counts = flight.severity_counts()
        assert counts["warn"] == 2 and counts["error"] == 1
        assert counts["info"] == 0

    def test_payload_omitted_when_empty(self):
        flight = FlightRecorder()
        flight.record(0.0, "net", "bare")
        assert "payload" not in flight.events()[0]


class TestExport:
    def test_dump_jsonl_round_trips(self, tmp_path):
        flight = FlightRecorder()
        flight.record(0.5, "net", "retransmit", entity="flow-0", seq=7)
        flight.record(1.5, "cluster", "job-admit", entity="job:a")
        path = tmp_path / "flight.jsonl"
        assert flight.dump_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "retransmit"
        assert lines[0]["payload"] == {"seq": 7}
        assert lines[1]["entity"] == "job:a"

    def test_digest_tracks_content(self):
        a, b = FlightRecorder(), FlightRecorder()
        for flight in (a, b):
            flight.record(0.0, "net", "k", seq=1)
        assert a.digest() == b.digest()
        b.record(1.0, "net", "k", seq=2)
        assert a.digest() != b.digest()

    def test_snapshot_and_registry(self):
        flight = FlightRecorder(capacity=8)
        flight.record(0.0, "net", "k", severity="warn")
        snap = flight.snapshot()
        assert snap["recorded"] == 1
        assert snap["buffered"] == 1
        assert snap["capacity"] == 8
        assert snap["severity.warn"] == 1
        registry = MetricsRegistry("flight-test")
        flight.register_metrics(registry)
        assert registry.snapshot()["flight.recorded"] == 1


class TestPerfettoMerge:
    def _sampler(self):
        sampler = TimeSeriesSampler(None, None)
        sampler.samples = [
            (0.0, {"net.queue": 1}),
            (0.001, {"net.queue": 3}),
        ]
        return sampler

    def test_merged_trace_validates_and_has_all_tracks(self, tmp_path):
        flight = FlightRecorder()
        flight.record(0.002, "net", "retransmit", severity="warn", seq=1)
        flight.record(0.001, "cluster", "job-admit", entity="job:a")
        path = tmp_path / "trace.json"
        count = write_perfetto_trace(
            str(path), sampler=self._sampler(), flight=flight)
        document = load_chrome_trace(str(path))  # validates monotonicity
        events = document["traceEvents"]
        assert count == len(events)
        tracks = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert {"sampled counters", "flight recorder",
                "flight severity"} <= tracks
        counters = [e for e in events if e.get("cat") == "counter"]
        assert any(e["name"] == "net.queue" for e in counters)
        assert any(e["name"] == "flight.severity" for e in counters)
        instants = [e for e in events if e.get("ph") == "i"]
        # Stable-sorted by t: the admit (t=0.001) precedes the retransmit.
        assert [e["name"] for e in instants] == ["job-admit", "retransmit"]
        assert instants[1]["args"]["severity"] == "warn"
        assert instants[1]["args"]["seq"] == 1

    def test_severity_counter_is_cumulative(self):
        flight = FlightRecorder()
        flight.record(0.0, "net", "a", severity="warn")
        flight.record(1.0, "net", "b", severity="warn")
        document = perfetto_document(flight=flight)
        series = [
            e["args"] for e in document["traceEvents"]
            if e.get("name") == "flight.severity"
        ]
        assert series == [{"warn": 1}, {"warn": 2}]

    def test_empty_inputs_produce_empty_document(self):
        document = perfetto_document(flight=FlightRecorder())
        assert document["traceEvents"] == []
