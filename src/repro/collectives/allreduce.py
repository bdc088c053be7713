"""Ring AllReduce as network traffic.

A ring AllReduce over ``n`` ranks moves ``2*(n-1)/n * size`` bytes over
each rank's wire; in the rail-optimized fabric NCCL builds one ring per
rail, so a server with 4 RNICs runs 4 concurrent rings over the same
server set.  The *bus bandwidth* the paper plots (Figure 10: "fully
utilize the RNIC's bandwidth (50 GB/s)") is exactly each RNIC's achieved
wire rate, bounded by the slowest hop of the ring.
"""

from repro import calibration
from repro.sim.units import GB


def ring_wire_bytes(data_bytes, ranks):
    """Bytes each rank transmits for one AllReduce of ``data_bytes``."""
    if ranks < 2:
        raise ValueError("a ring needs at least 2 ranks, got %r" % ranks)
    return 2.0 * (ranks - 1) / ranks * data_bytes


class RingAllReduceTask:
    """One AllReduce job over a set of servers (all their rails)."""

    def __init__(
        self,
        name,
        servers,
        data_bytes,
        rails=calibration.SERVER_RNICS,
        algorithm="obs",
        path_count=calibration.SPRAY_PATH_COUNT,
    ):
        if len(servers) < 2:
            raise ValueError("AllReduce task %r needs >= 2 servers" % name)
        self.name = name
        self.servers = list(servers)
        self.data_bytes = data_bytes
        self.rails = rails
        self.algorithm = algorithm
        self.path_count = path_count
        self.flows = []

    def flow_bytes(self):
        """Wire bytes per flow: the ring share of this rail's data slice."""
        per_rail = self.data_bytes / self.rails
        return ring_wire_bytes(per_rail, len(self.servers))

    def launch(self, sim, start_time=0.0, on_seconds=None, off_seconds=None,
               continuous=False, connection_base=0):
        """Create this task's flows in a :class:`FluidSimulation`.

        ``continuous=True`` makes the rings persistent (background load);
        otherwise each flow carries one AllReduce's worth of bytes.
        """
        n = len(self.servers)
        total = None if continuous else self.flow_bytes()
        for rail in range(self.rails):
            for i, src in enumerate(self.servers):
                dst = self.servers[(i + 1) % n]
                flow = sim.add_flow(
                    "%s-r%d-s%d" % (self.name, rail, i),
                    src,
                    dst,
                    rail,
                    algorithm=self.algorithm,
                    path_count=self.path_count,
                    total_bytes=total,
                    connection_id=connection_base + rail * n + i,
                    start_time=start_time,
                    on_seconds=on_seconds,
                    off_seconds=off_seconds,
                )
                self.flows.append(flow)
        return self.flows

    # -- metrics ---------------------------------------------------------

    def bus_bandwidth_bytes(self):
        """Achieved bus bandwidth per RNIC in bytes/second.

        The ring turns at the rate of its slowest flow; report the mean
        over rails of each rail-ring's bottleneck rate.
        """
        if not self.flows:
            raise ValueError("task %r has no launched flows" % self.name)
        n = len(self.servers)
        per_rail = []
        for rail in range(self.rails):
            rail_flows = self.flows[rail * n:(rail + 1) * n]
            per_rail.append(min(f.mean_rate() for f in rail_flows) / 8.0)
        return sum(per_rail) / len(per_rail)

    def bus_bandwidth_gb(self):
        """Bus bandwidth in the paper's unit (GB/s per RNIC)."""
        return self.bus_bandwidth_bytes() / GB

    def completion_time(self):
        """Wall-clock seconds until every flow finished (bounded flows)."""
        times = [f.finish_time for f in self.flows]
        if any(t is None for t in times):
            return None
        return max(times)

    def __repr__(self):
        return "RingAllReduceTask(%r, servers=%d, %s x %d)" % (
            self.name,
            len(self.servers),
            self.algorithm,
            self.path_count,
        )
