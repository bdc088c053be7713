"""Failure injection: random drop, link-down, and flap scenarios.

The paper's Figure 11 drops packets with 1% and 3% probability on a
single link under a 960-GPU AllReduce; complete link failures are
recovered first by the 250 us RTO re-spraying onto other paths, then by
the control plane (BGP) rerouting — both modelled here.
"""

from repro import calibration


class FailureScenario:
    """Drives failures against a :class:`PacketNetSim`."""

    def __init__(self, sim):
        self.sim = sim
        self.injected = []

    def random_drop(self, link, probability):
        """Figure 11: random loss on one link."""
        self.sim.inject_loss(link, probability)
        self.injected.append((link, probability))
        return link

    def fail_link(self, link):
        """Complete failure: every packet on the link is lost."""
        return self.random_drop(link, 1.0)

    def heal_link(self, link):
        self.sim.inject_loss(link, 0.0)

    def flap(self, link, down_at, up_at):
        """Schedule a down/up cycle (optical flap)."""
        if up_at <= down_at:
            raise ValueError("flap must come back up after it goes down")
        if self.sim.flight is not None:
            # The down/up transitions themselves record via inject_loss;
            # this marks the scenario decision, at decision time.
            self.sim.flight.record(
                self.sim.now, "net.failure", "flap-armed",
                entity=repr(link), severity="info",
                down_at=down_at, up_at=up_at,
            )
        self.sim.scheduler.schedule_at(down_at, lambda: self.fail_link(link))
        self.sim.scheduler.schedule_at(up_at, lambda: self.heal_link(link))


def pick_victim_uplink(topology):
    """A deterministic ToR uplink to injure (tests/benches need stability):
    segment 0, rail 0, plane 0, aggregation switch 0."""
    return topology.tor_up(0, 0, 0, 0)


def effective_loss_rate(link_loss_probability, path_count,
                        paths_crossing_link=1):
    """The paper's Figure 11 argument, as arithmetic: spraying over N paths
    divides the loss a connection perceives on one bad link by ~N."""
    if path_count <= 0:
        raise ValueError("path_count must be positive")
    share = min(1.0, paths_crossing_link / path_count)
    return link_loss_probability * share


def bgp_reroute(topology, sim, link, detect_seconds=1.0):
    """Long-term recovery: after the control plane detects the failure the
    link stops being offered to ECMP.  We model detection latency plus the
    capacity effect (the link drains nothing until healed)."""
    scenario = FailureScenario(sim)
    scenario.fail_link(link)
    if sim.flight is not None:
        sim.flight.record(
            sim.now, "net.failure", "bgp-reroute",
            entity=repr(link), severity="warn",
            detect_seconds=detect_seconds,
        )
    sim.scheduler.schedule(detect_seconds, lambda: scenario.heal_link(link))
    return scenario


__all__ = [
    "FailureScenario",
    "pick_victim_uplink",
    "effective_loss_rate",
    "bgp_reroute",
]

# Re-export the RTO the recovery story depends on, for discoverability.
_RECOVERY_RTO_SECONDS = calibration.SPRAY_RTO_SECONDS
