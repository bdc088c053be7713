"""Every output check rejects a cooked result, and accepts the real one."""

import copy

import pytest

from simbench.reference import REFERENCE_SECONDS
from simbench.run import Run, scaled
from simbench.workloads import WORKLOADS

FLUID = WORKLOADS["fleet_fluid"]
HYBRID = WORKLOADS["fleet_hybrid"]
SPRAY = WORKLOADS["spray_permutation"]
TRACE = WORKLOADS["trace_replay"]


def fleet_out(fidelity):
    packet = 6 if fidelity == "hybrid" else 0
    return {
        "fidelity": fidelity,
        "arrivals": 3,
        "snapshot": {
            "jobs_submitted": 3, "jobs_completed": 2, "jobs_failed": 1,
            "jobs_queued": 0, "jobs_starting": 0, "jobs_running": 0,
            "dp_bytes_fluid": 10, "dp_bytes_packet": packet,
            "dp_bytes_total": 10 + packet, "link_failures": 1,
            "fidelity_promotions": 2 if packet else 0,
        },
    }


def spray_out():
    return {
        "flows": [["f0", 100, 0.002, 3, 0], ["f1", 50, 0.002, 0, 0]],
        "sim": {"packets_sent": 20, "packets_delivered": 15,
                "packets_dropped": 3, "packets_in_flight": 2},
        "port_drops": 3,
    }


def trace_out():
    replay = {"trace": "moe", "ops": 4, "replayed": 4, "makespan": 0.5}
    return {"replays": [dict(replay), dict(replay)]}


def cooked(out, path, value):
    out = copy.deepcopy(out)
    *parents, leaf = path
    target = out
    for key in parents:
        target = target[key]
    target[leaf] = value
    return out


@pytest.mark.parametrize("workload,out", [
    (FLUID, fleet_out("fluid")),
    (HYBRID, fleet_out("hybrid")),
    (SPRAY, spray_out()),
    (TRACE, trace_out()),
])
def test_well_formed_outputs_pass(workload, out):
    assert workload.check(out) == []


@pytest.mark.parametrize("workload,path,value", [
    (FLUID, ("snapshot", "jobs_completed"), 1),           # a job vanished
    (FLUID, ("snapshot", "jobs_submitted"), 2),           # an arrival lost
    (FLUID, ("snapshot", "jobs_running"), 1),             # did not drain
    (FLUID, ("snapshot", "dp_bytes_fluid"), 9),           # byte ledger broken
    (FLUID, ("snapshot", "link_failures"), 0),            # failure never hit
    (FLUID, ("snapshot", "fidelity_promotions"), 1),      # fluid run promoted
    (HYBRID, ("snapshot", "dp_bytes_packet"), 7),         # byte ledger broken
    (HYBRID, ("snapshot", "fidelity_promotions"), 0),     # never promoted
])
def test_fleet_checks_reject_cooked_results(workload, path, value):
    out = fleet_out(workload.fidelity)
    if path[-1] == "fidelity_promotions" and workload is FLUID:
        out = cooked(out, ("snapshot", "dp_bytes_packet"), 1)
        out = cooked(out, ("snapshot", "dp_bytes_total"), 11)
    assert workload.check(cooked(out, path, value))


@pytest.mark.parametrize("path,value", [
    (("sim", "packets_sent"), 21),           # sent != delivered + dropped + in flight
    (("port_drops",), 2),                    # fabric and port drop counters disagree
    (("flows", 0, 3), 0),                    # the lossy uplink caused no retransmission
    (("flows", 1, 1), 0),                    # a flow made no progress
])
def test_spray_checks_reject_cooked_results(path, value):
    assert SPRAY.check(cooked(spray_out(), path, value))


def test_negative_in_flight_is_rejected():
    out = cooked(spray_out(), ("sim", "packets_in_flight"), -1)
    out = cooked(out, ("sim", "packets_dropped"), 6)
    assert SPRAY.check(out)


@pytest.mark.parametrize("path,value", [
    (("replays", 1, "replayed"), 3),         # an op never completed
    (("replays", 1, "makespan"), 0.6),       # repeat replays disagree
])
def test_trace_checks_reject_cooked_results(path, value):
    assert TRACE.check(cooked(trace_out(), path, value))


class DriftingWorkload:
    """Passes its own checks but simulates differently on every repeat."""

    name = "drifting"

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        return seed

    def run(self, state):
        self.calls += 1
        yield

    def outputs(self, state):
        return {"calls": self.calls}

    def check(self, out):
        return []


def test_digest_mismatch_between_repeats_counts_as_failure():
    run = Run(DriftingWorkload(), seed=1)
    assert run.attempt() is not None
    assert run.attempt() is None
    assert (run.attempted, run.failed, run.correct) == (2, 1, False)


def test_raising_repeat_counts_as_failure():
    class Raising(DriftingWorkload):
        def run(self, state):
            yield
            raise RuntimeError("boom")

    run = Run(Raising(), seed=1)
    assert run.attempt() is None
    assert (run.attempted, run.failed) == (1, 1)


def test_scaled_time_is_in_units_of_the_mean_reference():
    # A host running the reference at half speed doubles both.
    assert scaled(0.3, [2 * REFERENCE_SECONDS]) == pytest.approx(0.15)
    assert scaled(0.3, [0.001, 0.002]) == pytest.approx(0.2 * REFERENCE_SECONDS / 0.001)
