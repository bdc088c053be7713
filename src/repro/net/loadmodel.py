"""Static port-load analysis: where does each flow's traffic land?

The fastest of the three network models: distribute each flow's bytes
across ECMP buckets exactly as its path selector would, then study the
per-port load distribution.  This is precisely the measurement behind
Figure 12 (max-min load delta on ToR uplink ports vs. path count) and a
good first-order proxy for the queue-depth orderings of Figure 9.
"""

import collections

from repro.sim.rng import RngStream

#: Bytes per sprayed packet: the selector is consulted once per packet.
PACKET_BYTES = 4096


class PortLoads:
    """Accumulated byte loads per directed link."""

    def __init__(self, topology):
        self.topology = topology
        self.bytes_by_link = collections.defaultdict(float)
        self.total_bytes = 0.0

    def add(self, link, byte_count):
        self.bytes_by_link[link] += byte_count
        self.total_bytes += byte_count

    def load(self, link):
        return self.bytes_by_link.get(link, 0.0)

    def rates_for(self, links, duration):
        """Offered rate in bits/second per port over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive: %r" % duration)
        return [self.load(link) * 8.0 / duration for link in links]


class StaticLoadModel:
    """Distributes flow traffic across paths via the real selectors."""

    def __init__(self, topology, seed=0):
        self.topology = topology
        self.seed = seed
        self.loads = PortLoads(topology)
        self._rng = RngStream(seed, "loadmodel")

    def add_flow(
        self,
        src,
        dst,
        rail,
        selector,
        total_bytes,
        connection_id=0,
        max_draws=4096,
    ):
        """Spray one flow's bytes across the fabric.

        The selector is consulted per packet; when the flow has more
        packets than ``max_draws``, draws are scaled up so huge transfers
        stay cheap to model without changing the distribution.
        """
        packets = max(1, int(total_bytes // PACKET_BYTES))
        draws = min(packets, max_draws)
        bytes_per_draw = total_bytes / draws
        for _ in range(draws):
            path_id = selector.next_path()
            route = self.topology.route(
                src, dst, rail, path_id=path_id, connection_id=connection_id
            )
            for link in route:
                self.loads.add(link, bytes_per_draw)

    # -- metrics ----------------------------------------------------------

    def tor_uplink_rates(self, duration, segment=None, rail=None):
        links = self.topology.tor_uplinks(segment=segment, rail=rail)
        return self.loads.rates_for(links, duration)

    def imbalance(self, duration, segment=None, rail=None):
        """Figure 12's metric: (max - min) uplink load over port bandwidth."""
        rates = self.tor_uplink_rates(duration, segment=segment, rail=rail)
        if not rates:
            return 0.0
        return (max(rates) - min(rates)) / self.topology.tor_uplink_rate

    def queue_depth_proxy(self, duration, segment=None, rail=None):
        """First-order queue depths: bytes in excess of line rate per port.

        Returns ``(average_bytes, max_bytes)`` over all ToR uplink ports —
        the quantities Figure 9 plots (averaged over time there; offered
        load in excess of drain capacity here).
        """
        links = self.topology.tor_uplinks(segment=segment, rail=rail)
        depths = []
        for link in links:
            offered = self.loads.load(link)
            capacity = self.topology.link_rate(link) / 8.0 * duration
            depths.append(max(0.0, offered - capacity))
        if not depths:
            return 0.0, 0.0
        return sum(depths) / len(depths), max(depths)
