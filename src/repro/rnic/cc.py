"""Window-based congestion control with ECN and RTT signals.

The paper's RNIC "runs an in-house, window-based congestion control (CC)
algorithm that adjusts based on ECN and RTT" (Section 7.2) and keeps a
*single* congestion-control context shared by all 128 spray paths
(Section 9).  :class:`WindowCC` models that context; :class:`PerPathCC`
models the 4-path per-path alternative for the ablation.
"""

from repro.sim.units import usec


class WindowCC:
    """One congestion-control context: a byte window, AI/MD on ECN + RTT."""

    def __init__(
        self,
        init_window=64 * 1024,
        min_window=4 * 1024,
        max_window=4 * 1024 * 1024,
        additive_bytes=8 * 1024,
        ecn_backoff=0.8,
        target_rtt=usec(30),
        rtt_backoff=0.95,
    ):
        self.window = float(init_window)
        self.min_window = min_window
        self.max_window = max_window
        self.additive_bytes = additive_bytes
        self.ecn_backoff = ecn_backoff
        self.target_rtt = target_rtt
        self.rtt_backoff = rtt_backoff
        self.in_flight = 0
        self.acks = 0
        self.ecn_marks = 0
        self.rtos = 0
        self._last_cut_time = None

    def can_send(self, byte_count):
        """Window check, with the standard liveness floor: when nothing is
        in flight one packet may always go, even if the window has been
        beaten below a single MTU."""
        if self.in_flight == 0:
            return True
        return self.in_flight + byte_count <= self.window

    def on_send(self, byte_count):
        self.in_flight += byte_count

    def grant(self, mtu, unsent):
        """Admit a burst: the packet sizes the window allows right now.

        One call per pump for a message with ``unsent`` bytes left, the
        same comparisons as a per-packet ``can_send(mtu)``/``on_send``
        loop (the last packet may be a short tail).  The granted bytes
        are charged to ``in_flight``.
        """
        in_flight = self.in_flight
        window = self.window
        sizes = []
        while unsent > 0:
            if in_flight != 0 and in_flight + mtu > window:
                break
            size = mtu if mtu < unsent else unsent
            unsent -= size
            in_flight += size
            sizes.append(size)
        self.in_flight = in_flight
        return sizes

    def on_ack(self, byte_count, ecn=False, rtt=None, now=None):
        """Credit the window: AI per acked window-fraction, MD on ECN or
        sustained RTT inflation.

        The multiplicative decrease fires at most once per RTT (standard
        DCTCP-style gating) — ``now`` enables the gate; without a clock
        every mark cuts, which is only appropriate for unit tests.
        """
        self.in_flight = max(0, self.in_flight - byte_count)
        self.acks += 1
        if ecn:
            self.ecn_marks += 1
            holdoff = rtt if rtt is not None else self.target_rtt
            if (
                now is None
                or self._last_cut_time is None
                or now - self._last_cut_time >= holdoff
            ):
                self.window = max(self.min_window, self.window * self.ecn_backoff)
                self._last_cut_time = now
            return
        if rtt is not None and rtt > self.target_rtt:
            holdoff = max(rtt, self.target_rtt)
            if (
                now is None
                or self._last_cut_time is None
                or now - self._last_cut_time >= holdoff
            ):
                self.window = max(self.min_window, self.window * self.rtt_backoff)
                self._last_cut_time = now
            return
        self.window = min(
            self.max_window,
            self.window + self.additive_bytes * byte_count / max(self.window, 1.0),
        )

    def on_rto(self, byte_count=None):
        """Timeout on one packet (or, with no argument, a full stall).

        Per-packet timeouts release just the lost bytes and apply a mild
        backoff — the Stellar recovery re-sprays the retransmission on a
        different path, so one lossy link must not collapse the whole
        connection.  A full stall (no argument) halves the window and
        clears the in-flight account.
        """
        self.rtos += 1
        if byte_count is None:
            self.window = max(self.min_window, self.window * 0.5)
            self.in_flight = 0
        else:
            self.window = max(self.min_window, self.window * 0.9)
            self.in_flight = max(0, self.in_flight - byte_count)

    def __repr__(self):
        return "WindowCC(window=%.0fB, in_flight=%d)" % (self.window, self.in_flight)


class PerPathCC:
    """Per-path CC contexts (the Section 9 alternative design).

    Hardware cost limits this to ~4 paths; each path gets an equal share of
    the aggregate initial window so total aggressiveness matches the shared
    context at start.
    """

    def __init__(self, path_count=4, init_window=64 * 1024, **kwargs):
        if path_count <= 0:
            raise ValueError("path_count must be positive: %r" % path_count)
        self.paths = [
            WindowCC(init_window=init_window / path_count, **kwargs)
            for _ in range(path_count)
        ]

    def __getitem__(self, path_id):
        return self.paths[path_id % len(self.paths)]

    @property
    def window(self):
        return sum(path.window for path in self.paths)

    @property
    def in_flight(self):
        return sum(path.in_flight for path in self.paths)

    def can_send(self, byte_count, path_id):
        return self[path_id].can_send(byte_count)

    def on_send(self, byte_count, path_id):
        self[path_id].on_send(byte_count)

    def on_ack(self, byte_count, path_id, ecn=False, rtt=None, now=None):
        self[path_id].on_ack(byte_count, ecn=ecn, rtt=rtt, now=now)

    def on_rto(self, path_id):
        self[path_id].on_rto()

    def __repr__(self):
        return "PerPathCC(paths=%d, window=%.0fB)" % (len(self.paths), self.window)
