"""Multi-path RDMA path-selection algorithms (Section 7).

A connection owns ``path_count`` virtual paths; each packet is stamped
with a path id that the network maps (via ECMP-style hashing) to a
concrete route.  The paper evaluates six algorithms; Stellar ships
128-path Oblivious Packet Spraying (OBS) with a single shared
congestion-control context and a 250 us RTO.

All selectors share one interface so the packet/fluid simulators and the
benchmarks can sweep them uniformly:

* :meth:`PathSelector.next_path` — pick the path for the next packet;
* :meth:`PathSelector.on_feedback` — per-ACK signal (RTT, ECN, loss).
"""

from repro import calibration
from repro.sim.rng import RngStream


class PathSelector:
    """Base class: uniform-interface path selection for one connection."""

    #: registry name -> class, filled by ``register``
    REGISTRY = {}

    def __init__(self, path_count, rng=None):
        if path_count <= 0:
            raise ValueError("path_count must be positive: %r" % path_count)
        self.path_count = path_count
        self.rng = rng if rng is not None else RngStream(0, "spray", type(self).__name__)
        self.packets_sent = 0

    @classmethod
    def register(cls, name):
        def deco(subclass):
            cls.REGISTRY[name] = subclass
            subclass.name = name
            return subclass

        return deco

    def next_path(self, now=None):
        """Pick the path for the next packet.

        ``now`` is the simulation time of the send; only time-sensitive
        selectors (flowlet) use it, everyone else may ignore it.
        """
        raise NotImplementedError

    def on_feedback(self, path, rtt=None, ecn=False, loss=False):
        """Default: oblivious algorithms ignore feedback."""

    def _count(self):
        self.packets_sent += 1


@PathSelector.register("single")
class SinglePathSelector(PathSelector):
    """The pre-Stellar baseline: every packet takes one pinned path.

    The RNIC picks one of its ports (and thus one ECMP route) per
    connection at random; all packets share the header (problem 6).
    """

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        self._pinned = self.rng.randint(0, path_count - 1)

    def next_path(self, now=None):
        self._count()
        return self._pinned

    @property
    def pinned_path(self):
        """The single path this connection is pinned to (public, for
        diagnostics: "which uplink did the victim flow land on?")."""
        return self._pinned


@PathSelector.register("rr")
class RoundRobinSelector(PathSelector):
    """Deterministic cyclic spraying across all paths."""

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        # Start at a random offset so synchronized connections don't beat.
        self._next = self.rng.randint(0, path_count - 1)

    def next_path(self, now=None):
        self._count()
        path = self._next
        self._next = (self._next + 1) % self.path_count
        return path


@PathSelector.register("obs")
class ObliviousSpraySelector(PathSelector):
    """Oblivious Packet Spraying: uniform pseudo-random path per packet.

    Stellar's production choice.  Its "pseudo-random nature interacts more
    favorably with our CC algorithm" than RR under bursty load (Fig. 10b).
    """

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        # randint(0, n-1) bottoms out in Random._randbelow_with_getrandbits:
        # draw n.bit_length() bits and reject draws >= n.  Replicating that
        # loop on a bound getrandbits consumes the generator draw-for-draw
        # identically (tests/test_packet_differential.py pins it) while
        # skipping the
        # randrange call chain — this is the per-packet path draw of every
        # sprayed flow.  Plain random.Random rngs (no getrandbits binding
        # on RngStream-less test doubles) keep the randint path.
        self._bits = path_count.bit_length()
        self._getrandbits = getattr(self.rng, "getrandbits", None)

    def next_path(self, now=None):
        # Inlined _count(): this is the per-packet selector (Stellar's
        # production default), so skip the helper-call overhead.
        self.packets_sent += 1
        getrandbits = self._getrandbits
        if getrandbits is None:
            return self.rng.randint(0, self.path_count - 1)
        n = self.path_count
        r = getrandbits(self._bits)
        while r >= n:
            r = getrandbits(self._bits)
        return r


@PathSelector.register("dwrr")
class DwrrSelector(PathSelector):
    """Dynamic Weighted Round-Robin: weights decay on congestion signals.

    Paths that report ECN or inflated RTT lose weight; clean ACKs slowly
    recover it.  The failure mode the paper observed — activating only a
    few paths and congesting them — emerges when a transient signal
    de-weights most paths and traffic concentrates on the survivors.
    """

    MIN_WEIGHT = 0.05
    DECAY = 0.5
    RECOVER = 0.02

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        self.weights = [1.0] * path_count
        self._deficits = [0.0] * path_count
        self._cursor = 0

    def next_path(self, now=None):
        self._count()
        # Deficit round robin: accumulate weight, pick the first path whose
        # deficit crosses 1 packet.
        for _ in range(2 * self.path_count):
            self._deficits[self._cursor] += self.weights[self._cursor]
            if self._deficits[self._cursor] >= 1.0:
                self._deficits[self._cursor] -= 1.0
                path = self._cursor
                self._cursor = (self._cursor + 1) % self.path_count
                return path
            self._cursor = (self._cursor + 1) % self.path_count
        # All weights collapsed; fall back to the max-weight path.
        return max(range(self.path_count), key=lambda p: self.weights[p])

    def on_feedback(self, path, rtt=None, ecn=False, loss=False):
        if ecn or loss or (rtt is not None and rtt > calibration.SPRAY_RTO_SECONDS / 4):
            self.weights[path] = max(self.MIN_WEIGHT, self.weights[path] * self.DECAY)
        else:
            self.weights[path] = min(1.0, self.weights[path] + self.RECOVER)


@PathSelector.register("best_rtt")
class BestRttSelector(PathSelector):
    """Greedy lowest-EWMA-RTT path with epsilon exploration.

    Tends to herd traffic onto the handful of paths that last looked good
    — the paper found it "activated only a small number of paths, leading
    to congestion" (Fig. 10a).
    """

    EXPLORE = 0.02
    ALPHA = 0.2

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        self.rtt_ewma = [None] * path_count

    def next_path(self, now=None):
        self._count()
        if self.rng.random() < self.EXPLORE:
            return self.rng.randint(0, self.path_count - 1)
        unmeasured = [p for p in range(self.path_count) if self.rtt_ewma[p] is None]
        if unmeasured:
            return unmeasured[0]
        best = min(range(self.path_count), key=lambda p: self.rtt_ewma[p])
        return best

    def on_feedback(self, path, rtt=None, ecn=False, loss=False):
        if rtt is None:
            return
        prev = self.rtt_ewma[path]
        self.rtt_ewma[path] = rtt if prev is None else (
            (1 - self.ALPHA) * prev + self.ALPHA * rtt
        )


@PathSelector.register("mprdma")
class MpRdmaSelector(PathSelector):
    """MP-RDMA-style congestion-aware spraying.

    Each path keeps a virtual congestion score driven by ECN marks (as in
    MP-RDMA's per-path virtual windows); packets are distributed with
    probability proportional to the inverse congestion score.
    """

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        self.scores = [1.0] * path_count  # higher == healthier

    def next_path(self, now=None):
        self._count()
        total = sum(self.scores)
        draw = self.rng.uniform(0.0, total)
        acc = 0.0
        for path, score in enumerate(self.scores):
            acc += score
            if draw <= acc:
                return path
        return self.path_count - 1

    def on_feedback(self, path, rtt=None, ecn=False, loss=False):
        if ecn or loss:
            self.scores[path] = max(0.1, self.scores[path] * 0.6)
        else:
            self.scores[path] = min(1.0, self.scores[path] + 0.05)


@PathSelector.register("flowlet")
class FlowletSelector(PathSelector):
    """Flowlet switching (Section 7.1): re-hash only on inter-packet gaps.

    A flow is cut into flowlets wherever the gap between packets exceeds
    the path-skew threshold; each flowlet rides one path.  The paper notes
    this is "often ineffective for RDMA load balancing due to RDMA's bulk
    traffic patterns" — continuous bulk transfers have no gaps, so the
    whole flow degenerates to a single path — but keeps it for
    older-generation clusters for its simplicity.
    """

    #: Minimum idle gap that opens a new flowlet (~ path-delay skew).
    GAP_SECONDS = 50e-6

    def __init__(self, path_count, rng=None, gap_seconds=None):
        super().__init__(path_count, rng)
        self.gap_seconds = gap_seconds if gap_seconds is not None else self.GAP_SECONDS
        self._current = self.rng.randint(0, path_count - 1)
        self._last_send = None
        self.flowlets = 1

    def next_path(self, now=None):
        self._count()
        if (
            now is not None
            and self._last_send is not None
            and now - self._last_send >= self.gap_seconds
        ):
            self._current = self.rng.randint(0, self.path_count - 1)
            self.flowlets += 1
        if now is not None:
            self._last_send = now
        return self._current


@PathSelector.register("path_aware")
# Wired through the selector registry: consumers instantiate it via
# make_selector("path_aware"), never by importing the class name.
class PathAwareSelector(PathSelector):  # simlint: ok L-api-drift
    """A path-aware sprayer in the SMaRTT-REPS / STrack family (Section 9).

    Recently-successful paths are cached and reused; congested paths are
    evicted and replaced by random exploration.  The paper implemented a
    similar algorithm and "did not observe a significant performance
    advantage over the simpler OBS algorithm" on their regular traffic —
    the ablation benchmark reproduces that finding.
    """

    CACHE_LIMIT = 256

    def __init__(self, path_count, rng=None):
        super().__init__(path_count, rng)
        self._good = []  # FIFO of recently-clean path ids
        self._cursor = 0

    def next_path(self, now=None):
        self._count()
        if self._good:
            self._cursor = (self._cursor + 1) % len(self._good)
            return self._good[self._cursor]
        return self.rng.randint(0, self.path_count - 1)

    def on_feedback(self, path, rtt=None, ecn=False, loss=False):
        if ecn or loss:
            self._good = [p for p in self._good if p != path]
            return
        if len(self._good) < self.CACHE_LIMIT:
            self._good.append(path)

    @property
    def good_paths(self):
        """The recently-clean path cache, oldest first (read-only copy)."""
        return tuple(self._good)


#: Algorithm names in the order the paper's figures list them.
ALGORITHMS = ("single", "rr", "obs", "dwrr", "best_rtt", "mprdma")

#: Extensions beyond the paper's headline six (Sections 7.1 and 9).
EXTENDED_ALGORITHMS = ALGORITHMS + ("flowlet", "path_aware")


def make_selector(name, path_count, rng=None):
    """Instantiate a selector by registry name."""
    try:
        cls = PathSelector.REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown multi-path algorithm %r (known: %s)"
            % (name, ", ".join(sorted(PathSelector.REGISTRY)))
        )
    return cls(path_count, rng=rng)


class SprayConnection:
    """A multi-path RDMA connection: selector + shared CC + RTO policy.

    Binds together the three production choices of Section 7: the path
    selection algorithm, the path fan-out, and timeout-based loss recovery
    that *re-sprays* the retransmission on a fresh path.
    """

    def __init__(self, conn_id, algorithm="obs",
                 path_count=calibration.SPRAY_PATH_COUNT,
                 rng=None, cc=None,
                 rto=calibration.SPRAY_RTO_SECONDS):
        from repro.rnic.cc import WindowCC

        self.conn_id = conn_id
        self.rng = rng if rng is not None else RngStream(0, "conn", conn_id)
        self.selector = make_selector(algorithm, path_count, rng=self.rng.child("sel"))
        self.cc = cc if cc is not None else WindowCC()
        self.rto = rto
        self.retransmissions = 0

    @property
    def algorithm(self):
        return type(self.selector).name

    @property
    def path_count(self):
        return self.selector.path_count

    def next_path(self, now=None):
        return self.selector.next_path(now=now)

    def retransmit_path(self, lost_path):
        """Pick the retransmission path: never the one that just lost.

        "Stellar uses a short RTO to retransmit lost packets on a
        different path for instant recovery."
        """
        self.retransmissions += 1
        if self.path_count == 1:
            return lost_path
        for _ in range(64):
            path = self.selector.next_path()
            if path != lost_path:
                return path
        return (lost_path + 1) % self.path_count

    def on_ack(self, path, byte_count, rtt=None, ecn=False, now=None):
        self.cc.on_ack(byte_count, ecn=ecn, rtt=rtt, now=now)
        self.selector.on_feedback(path, rtt=rtt, ecn=ecn)

    def on_loss(self, path):
        self.selector.on_feedback(path, loss=True)

    def __repr__(self):
        return "SprayConnection(%r, %s x %d paths)" % (
            self.conn_id,
            self.algorithm,
            self.path_count,
        )
