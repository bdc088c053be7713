"""The dual-plane, rail-optimized training fabric (HPN7.0-style).

Topology model (Section 3.1 problem 6 and Section 7.2 of the paper):

* Each **server** has 4 RNICs ("rails"), each with two 200 Gbps ports —
  port 0 on network **plane A**, port 1 on **plane B**.
* Each (segment, rail, plane) triple has one **ToR** switch; a server's
  rail-``r`` RNIC connects to the rail-``r`` ToRs of its segment.
* Each plane has ``aggs_per_plane`` (60 in production) **aggregation**
  switches; every ToR uplinks to all of them.  Cross-segment traffic on
  one rail goes ToR -> agg -> ToR within a plane, so the equivalent-path
  count per rail is ``planes x aggs_per_plane`` (120).
* The planes are additionally joined at a **core** layer that serves as a
  failure-escape route; normal traffic never uses it, and neither do our
  experiments, so the core is represented only as spare capacity.

Links are directed; a :class:`LinkRef` names one transmit port.  The
topology owns the fabric's one link numbering: every LinkRef it hands
out carries a dense ``index``, :meth:`DualPlaneTopology.link_rates` is
the capacity array in that order, and :meth:`DualPlaneTopology.spray`
memoizes each uniform spray's plan row and route shares in it.  The
packet/fluid simulators attach their own state (queues, rates) to those
links.

Routes are resolved once per topology.  :meth:`DualPlaneTopology.route`
interns one route per (src, dst, rail, path id, connection);
:meth:`DualPlaneTopology.connection_paths` memoizes a spray connection's
whole :class:`ConnectionPaths` table, which the packet simulator's flows
read instead of calling ``route()`` per new path id.  A table picks every
path id's (plane, agg) in one vector pass but builds each route on its
first use, so links are numbered in the same order as the equivalent
sequence of ``route()`` calls.
"""

import numpy as np

from repro import calibration
from repro.net.ecmp import (
    EcmpHasher,
    flow_entropy,
    hash_combine,
    splitmix64_array,
)


def link_row(flat_ids, flat_vals):
    """Canonical sparse row from (link index, weight) pairs in path order.

    ``np.add.at`` applies the additions in array order, which is the same
    accumulation order the scalar engine's ``dict[id] += w`` loop used —
    so repeated-sum floats (k additions of 1/P) come out bit-identical,
    not merely close.  Returns ``(sorted link indices, weights)``.
    """
    cols, inverse = np.unique(flat_ids, return_inverse=True)
    vals = np.zeros(len(cols))
    np.add.at(vals, inverse.ravel(), flat_vals)
    return cols, vals


class LinkRef:
    """A directed link (transmit port) in the fabric.

    LinkRefs key every per-port dict in the packet simulator, so the hash
    is computed once at construction and equality tests identity first —
    the topology hands out interned instances, which makes the identity
    test hit on the per-packet fast path.  ``index`` is the link's column
    in its topology's numbering (``link_rates()[index]`` is its
    capacity); the fluid solver's sparse rows are built from it.
    """

    __slots__ = ("kind", "key", "index", "_hash")

    # kinds: "host_up", "host_down", "tor_up", "tor_down",
    # "core_up", "core_down"
    def __init__(self, kind, key, index):
        self.kind = kind
        self.key = key
        self.index = index
        self._hash = hash((kind, key))

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, LinkRef)
            and self.kind == other.kind
            and self.key == other.key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "LinkRef(%s, %r)" % (self.kind, self.key)


class ServerAddress:
    """Where a server lives: (segment, index within segment)."""

    __slots__ = ("segment", "index")

    def __init__(self, segment, index):
        self.segment = segment
        self.index = index

    def as_tuple(self):
        return (self.segment, self.index)

    @property
    def node_id(self):
        return self.segment * 100_000 + self.index

    def __eq__(self, other):
        return (
            isinstance(other, ServerAddress) and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "ServerAddress(seg=%d, idx=%d)" % (self.segment, self.index)


class ConnectionPaths:
    """One spray connection's routes, indexed by path id.

    Built by :meth:`DualPlaneTopology.connection_paths`: the (plane, agg)
    choice of every path id ``0..path_count-1`` comes from one
    :meth:`DualPlaneTopology.path_choices` vector pass, and ``table[p]``
    builds path ``p``'s links on its first read and returns the same
    tuple forever after.  ``table[p]`` equals the topology's
    ``route(src, dst, rail, p, connection_id)``, and because each route is
    built when it is first read, a sequence of ``table[p]`` reads interns
    links (and so numbers them) exactly as the same sequence of
    ``route()`` calls would.
    """

    __slots__ = ("_topology", "src", "dst", "rail", "_planes", "_aggs",
                 "_routes")

    def __init__(self, topology, src, dst, rail, path_count, connection_id):
        planes, aggs = topology.path_choices(src, dst, path_count,
                                             connection_id)
        self._topology = topology
        self.src = src
        self.dst = dst
        self.rail = rail
        self._planes = planes.tolist()
        self._aggs = aggs.tolist()
        self._routes = [None] * path_count

    def __getitem__(self, path_id):
        """The interned route of ``path_id``, built on first read."""
        route = self._routes[path_id]
        if route is None:
            route = self._topology._route_links(
                self.src, self.dst, self.rail,
                self._planes[path_id], self._aggs[path_id],
            )
            self._routes[path_id] = route
        return route


class DualPlaneTopology:
    """Structure + routing for the rail-optimized dual-plane fabric."""

    def __init__(
        self,
        segments=2,
        servers_per_segment=16,
        rails=calibration.SERVER_RNICS,
        planes=2,
        aggs_per_plane=calibration.AGG_SWITCHES_PER_PLANE,
        port_rate=calibration.RNIC_PORT_RATE,
        tor_uplink_rate=None,
    ):
        if min(segments, servers_per_segment, rails, planes, aggs_per_plane) <= 0:
            raise ValueError("all topology dimensions must be positive")
        self.segments = segments
        self.servers_per_segment = servers_per_segment
        self.rails = rails
        self.planes = planes
        self.aggs_per_plane = aggs_per_plane
        self.port_rate = port_rate
        self.tor_uplink_rate = (
            tor_uplink_rate if tor_uplink_rate is not None else port_rate
        )
        self._hasher = EcmpHasher(planes * aggs_per_plane)
        # Per-(src, dst, rail, path, connection) resolved routes of
        # route() callers.  Topology structure is immutable after
        # construction, so the cache never invalidates.
        self._route_cache = {}
        # Interned LinkRefs: one instance per directed port, so the
        # simulators' per-port dict lookups hit CPython's identity
        # short-circuit instead of tuple-comparing keys per packet.  A
        # link's index is its interning order; _rates[index] its rate.
        self._link_cache = {}
        self._rates = []
        self._rates_array = np.zeros(0)
        # Per-(src, dst, rail, path count, connection) uniform sprays:
        # one entry per distinct static spray flow, see spray().
        self._spray_cache = {}
        # Per-(src, dst, rail, path count, connection) route tables of
        # packet-level spray connections, see connection_paths().
        self._connection_paths = {}

    # -- enumeration -------------------------------------------------------

    @property
    def path_diversity(self):
        """Equivalent cross-segment paths per rail (plane x agg choices)."""
        return self.planes * self.aggs_per_plane

    def servers(self):
        for segment in range(self.segments):
            for index in range(self.servers_per_segment):
                yield ServerAddress(segment, index)

    @property
    def server_count(self):
        return self.segments * self.servers_per_segment

    def gpu_count(self, gpus_per_server=calibration.SERVER_GPUS):
        return self.server_count * gpus_per_server

    # -- link naming ---------------------------------------------------------

    def _link(self, kind, key):
        """Intern one LinkRef per directed port (see ``_link_cache``)."""
        ident = (kind, key)
        ref = self._link_cache.get(ident)
        if ref is None:
            ref = LinkRef(kind, key, len(self._rates))
            self._link_cache[ident] = ref
            self._rates.append(self.link_rate(ref))
        return ref

    def host_up(self, server, rail, plane):
        return self._link("host_up", (server.segment, server.index, rail, plane))

    def host_down(self, server, rail, plane):
        return self._link("host_down", (server.segment, server.index, rail, plane))

    def tor_up(self, segment, rail, plane, agg):
        """ToR(segment, rail, plane) -> aggregation switch ``agg``.

        These are the ports whose queue depth Figures 9 and 12 report.
        """
        return self._link("tor_up", (segment, rail, plane, agg))

    def tor_down(self, segment, rail, plane, agg):
        """Aggregation switch ``agg`` -> ToR(segment, rail, plane)."""
        return self._link("tor_down", (segment, rail, plane, agg))

    def link_rate(self, link):
        if link.kind in ("host_up", "host_down"):
            return self.port_rate
        # ToR uplinks and core escape links run at the fabric rate.
        return self.tor_uplink_rate

    def link_rates(self):
        """Capacity of every link handed out so far, by ``LinkRef.index``.

        The array grows as routes intern new links; it is read-only.
        """
        if len(self._rates_array) != len(self._rates):
            self._rates_array = np.array(self._rates, dtype=float)
            self._rates_array.flags.writeable = False
        return self._rates_array

    def tor_uplinks(self, segment=None, rail=None):
        """All ToR uplink ports, optionally filtered (for imbalance stats)."""
        segments = range(self.segments) if segment is None else [segment]
        rails = range(self.rails) if rail is None else [rail]
        refs = []
        for seg in segments:
            for r in rails:
                for plane in range(self.planes):
                    for agg in range(self.aggs_per_plane):
                        refs.append(self.tor_up(seg, r, plane, agg))
        return refs

    # -- routing ---------------------------------------------------------

    def ecmp_choice(self, entropy, path_id):
        """Map a (flow, path id) to a (plane, agg) choice.

        The plane (i.e. which of the RNIC's two ports) alternates
        deterministically with the path id — the NIC spreads its ports
        evenly by construction, with a per-connection random base so
        single-path flows still pick a random port ("the RNIC randomly
        chooses one of its two ports", Section 3).  Only the aggregation
        switch is ECMP-hashed in the network.
        """
        plane = (path_id + entropy) % self.planes
        agg = self._hasher.bucket(entropy, path_id) % self.aggs_per_plane
        return plane, agg

    def path_choices(self, src, dst, path_count, connection_id=0):
        """``(plane, agg)`` int64 arrays over path ids ``0..path_count-1``.

        Element ``p`` equals :meth:`ecmp_choice` for path id ``p`` of the
        ``(src, dst, connection_id)`` flow, but the ECMP hash runs as one
        vector round over all path ids instead of ``path_count`` Python
        calls.
        """
        entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        path = np.arange(path_count, dtype=np.int64)
        return self._planes(entropy, path), self._aggs(entropy, path)

    def _planes(self, entropy, path):
        planes = self.planes
        return (path % planes + entropy % planes) % planes

    def _aggs(self, entropy, path):
        # hash_combine(entropy, p) is splitmix64(state ^ p) with the
        # entropy already folded into ``state``.
        state = np.uint64(hash_combine(entropy))
        hashed = splitmix64_array(state ^ path.astype(np.uint64))
        bucket = (hashed % np.uint64(self._hasher.bucket_count)).astype(np.int64)
        return bucket % self.aggs_per_plane

    def path_table(self, src, dst, rail, path_count, connection_id=0):
        """The distinct routes of a flow's path ids ``0..path_count-1``.

        Returns ``(routes, inverse)``: ``routes`` lists each distinct
        route once, in (plane, agg) order, and ``routes[inverse[p]]`` is
        ``route(src, dst, rail, p, connection_id)``.  Paths that share a
        (plane, agg) choice share a route, so a 128-path spray needs at
        most ``planes x aggs`` route resolutions instead of 128, and a
        same-segment one at most ``planes``.
        """
        entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        path = np.arange(path_count, dtype=np.int64)
        aggs = self.aggs_per_plane
        codes = self._planes(entropy, path) * aggs
        if src.segment != dst.segment:
            # Only a cross-segment route reaches the agg layer.
            codes += self._aggs(entropy, path)
        codes, inverse = np.unique(codes, return_inverse=True)
        routes = [
            self._route_links(src, dst, rail, code // aggs, code % aggs)
            for code in codes.tolist()
        ]
        return routes, inverse.ravel()

    def spray(self, src, dst, rail, path_count, connection_id=0):
        """A uniform spray over path ids ``0..path_count-1``, memoized.

        Returns ``(cols, vals, table, paths)``.  ``(cols, vals)`` is the
        flow's canonical plan row: sorted link indices and the summed
        ``1/path_count`` share each link carries.  Row ``r`` of ``table``
        holds the link indices of :meth:`path_table`'s route ``r``, and
        ``paths[r]`` counts the path ids that resolve to it.  Routes are
        static, so an entry never invalidates; there is one per distinct
        spray flow, all of it in read-only arrays.
        """
        key = (
            src.segment, src.index, dst.segment, dst.index,
            rail, path_count, connection_id,
        )
        entry = self._spray_cache.get(key)
        if entry is None:
            if src == dst:
                raise ValueError("route to self: %r" % (src,))
            routes, inverse = self.path_table(src, dst, rail, path_count,
                                              connection_id)
            table = np.array(
                [[link.index for link in route] for route in routes],
                dtype=np.int64,
            )
            flat = table[inverse].ravel()
            cols, vals = link_row(flat, np.full(len(flat), 1.0 / path_count))
            entry = (cols, vals, table, np.bincount(inverse))
            for array in entry:
                array.flags.writeable = False
            self._spray_cache[key] = entry
        return entry

    def connection_paths(self, src, dst, rail, path_count, connection_id=0):
        """The memoized :class:`ConnectionPaths` of one spray connection.

        One table per (src, dst, rail, path count, connection) for the
        topology's lifetime, so every simulator run on this topology (and
        on views that delegate to it) resolves a path id's route once.
        """
        key = (
            src.segment, src.index, dst.segment, dst.index,
            rail, path_count, connection_id,
        )
        table = self._connection_paths.get(key)
        if table is None:
            if src == dst:
                raise ValueError("route to self: %r" % (src,))
            table = ConnectionPaths(self, src, dst, rail, path_count,
                                    connection_id)
            self._connection_paths[key] = table
        return table

    def _route_links(self, src, dst, rail, plane, agg):
        if src.segment == dst.segment:
            # Same ToR: host -> ToR -> host; the plane still matters (two
            # single-plane ToRs), the agg layer is not involved.
            return (
                self.host_up(src, rail, plane),
                self.host_down(dst, rail, plane),
            )
        return (
            self.host_up(src, rail, plane),
            self.tor_up(src.segment, rail, plane, agg),
            self.tor_down(dst.segment, rail, plane, agg),
            self.host_down(dst, rail, plane),
        )

    def route(self, src, dst, rail, path_id=0, connection_id=0):
        """The directed links from ``src`` to ``dst`` on ``rail`` for one
        path id.  Rail-optimized: traffic never changes rails.

        Returns an interned, immutable tuple — the same object for the
        same (src, dst, rail, path, connection).  Callers that resolve
        many path ids of one connection read its
        :meth:`connection_paths` table instead.
        """
        key = (
            src.segment, src.index, dst.segment, dst.index,
            rail, path_id, connection_id,
        )
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            raise ValueError("route to self: %r" % (src,))
        entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        plane, agg = self.ecmp_choice(entropy, path_id)
        route = self._route_links(src, dst, rail, plane, agg)
        self._route_cache[key] = route
        return route

    def escape_route(self, src, dst, rail, path_id=0, connection_id=0):
        """The core-layer escape path (Section 3.1 problem 6 context).

        "Both planes are connected at the core switch to create an
        'escape' layer for failure resiliency."  When a rail's selected
        plane is unusable end-to-end, traffic climbs one plane, crosses
        the core, and descends the other — longer, but it keeps the rail
        alive through a whole-plane event.
        """
        entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        plane, agg = self.ecmp_choice(entropy, path_id)
        other_plane = (plane + 1) % self.planes
        if src.segment == dst.segment:
            # Same ToR on the healthy plane suffices; no core needed.
            return [
                self.host_up(src, rail, other_plane),
                self.host_down(dst, rail, other_plane),
            ]
        return [
            self.host_up(src, rail, plane),
            self.tor_up(src.segment, rail, plane, agg),
            self._link("core_up", (rail, plane, agg)),
            self._link("core_down", (rail, other_plane, agg)),
            self.tor_down(dst.segment, rail, other_plane, agg),
            self.host_down(dst, rail, other_plane),
        ]

    def __repr__(self):
        return (
            "DualPlaneTopology(segments=%d, servers/seg=%d, rails=%d, "
            "planes=%d, aggs=%d)"
            % (
                self.segments,
                self.servers_per_segment,
                self.rails,
                self.planes,
                self.aggs_per_plane,
            )
        )
