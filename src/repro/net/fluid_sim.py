"""Time-stepped fluid (flow-level) network simulator.

For 512-GPU-and-up collective workloads (Figures 10, 15, 16) packet
granularity is unnecessary: what matters is how each algorithm's *path
distribution* interacts with link capacities.  Each step:

1. every active flow turns its selector into a weight vector over ECMP
   buckets (analytic for single/RR/OBS, sampled for feedback-driven
   algorithms),
2. a max-min fair allocation is computed over all directed links
   (vectorized with scipy.sparse),
3. flows advance and selectors receive per-path congestion feedback
   derived from bottleneck utilization — so BestRTT's herding and DWRR's
   weight collapse emerge from the same code paths production would run.

The engine is struct-of-arrays: mutable flow state (transferred bytes,
finish times, rate accumulators, activity) lives in numpy arrays owned
by :class:`FluidSimulation`, and :class:`FluidFlow` objects are views
into those arrays.  Per-flow link weights are kept as canonical sparse
rows (sorted link-index / weight arrays) in the topology's link
numbering (``LinkRef.index``, capacities from ``topology.link_rates()``),
built once per static flow, so the flow x link incidence matrix is
re-assembled only when the active membership changes, never per step.
The float semantics of the original scalar engine are preserved
operation-for-operation (same accumulation order, same per-step
arithmetic), which keeps every determinism digest bit-identical across
the vectorization.
"""

import collections

import numpy as np
from scipy import sparse

from repro import calibration
from repro.core.spray import make_selector
from repro.net.ecmp import flow_entropy
from repro.net.topology import link_row
from repro.sim.rng import RngStream

#: Selector draws per step used to estimate feedback-driven weights.
_FEEDBACK_SAMPLE_DRAWS = 192

#: Utilization above which a path is considered congested (ECN proxy).
_CONGESTION_UTILIZATION = 0.95

#: Analytic-weight algorithms: the per-packet distribution over path ids
#: is uniform, so bucket weights follow directly from the hash map.
_ANALYTIC = {"rr", "obs"}

class FluidFlow:
    """One long-lived transfer between two servers on one rail.

    Built only by :meth:`FluidSimulation.add_flow`, which keeps the
    mutable state in the simulation's arrays; the attributes below are
    views — reading ``flow.transferred`` reads the array slot.
    """

    def __init__(
        self,
        flow_id,
        src,
        dst,
        rail,
        algorithm="obs",
        path_count=calibration.SPRAY_PATH_COUNT,
        total_bytes=None,
        connection_id=0,
        start_time=0.0,
        on_seconds=None,
        off_seconds=None,
        *,
        rng,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.rail = rail
        self.algorithm = algorithm
        self.path_count = path_count
        self.total_bytes = total_bytes
        self.connection_id = connection_id
        self.start_time = start_time
        self.on_seconds = on_seconds
        self.off_seconds = off_seconds
        #: Per-step achieved rates; only populated when the owning
        #: simulation was built with ``record_history=True`` (figure
        #: paths that plot the timeline) — mean_rate() never needs it.
        self.rate_history = []
        self.entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        self.selector = make_selector(algorithm, path_count, rng=rng)
        #: Static path distributions (single/RR/OBS) resolve to one
        #: canonical sparse row (sorted link indices, weights), built
        #: lazily at the flow's first active step.
        self._static = algorithm in _ANALYTIC or algorithm == "single"
        self._plan = None
        #: Feedback flows: path_id -> link-index array (route order), so
        #: re-sampled weights re-use resolved routes.
        self._path_link_ids = {}
        self._sim = None
        self._idx = None

    # -- array-backed state views ---------------------------------------

    @property
    def transferred(self):
        return float(self._sim._arr_transferred[self._idx])

    @property
    def finish_time(self):
        value = self._sim._arr_finish[self._idx]
        return None if np.isnan(value) else float(value)

    @property
    def done(self):
        return self.total_bytes is not None and self.transferred >= self.total_bytes

    def mean_rate(self):
        """Average achieved rate over active steps, bits/second."""
        count = self._sim._arr_rate_count[self._idx]
        if not count:
            return 0.0
        return float(self._sim._arr_rate_sum[self._idx] / count)

    def __repr__(self):
        return "FluidFlow(%r, %s x %d)" % (
            self.flow_id,
            self.algorithm,
            self.path_count,
        )


class FluidSimulation:
    """Max-min fluid allocation over the dual-plane topology.

    ``record_history`` opts into per-step ``FluidFlow.rate_history``
    lists (unbounded; figure-scale runs only).  Link columns and
    capacities come from the topology (``LinkRef.index``,
    ``link_rates()``), and uniform-spray plan rows from its
    :meth:`~repro.net.topology.DualPlaneTopology.spray` memo, so every
    simulation on one topology — each fleet congestion epoch, each
    replayed trace op — shares them instead of re-deriving identical
    path distributions.
    """

    def __init__(self, topology, dt=0.01, seed=0, record_history=False):
        self.topology = topology
        self.dt = dt
        self.seed = seed
        self.now = 0.0
        self.flows = []
        self.steps_run = 0
        self.record_history = record_history
        self._rng = RngStream(seed, "fluid-sim")
        #: (active indices, link count, rates, utilization) of the last
        #: solve, reused while the inputs are provably unchanged —
        #: see step().
        self._solve_cache = None
        # Struct-of-arrays flow state; _n live rows, doubling growth.
        self._n = 0
        self._arr_transferred = np.zeros(0)
        self._arr_total = np.zeros(0)       # +inf = unbounded
        self._arr_start = np.zeros(0)
        self._arr_on = np.zeros(0)          # nan = always on
        self._arr_period = np.zeros(0)      # on + off; nan = always on
        self._arr_finish = np.zeros(0)      # nan = not finished
        self._arr_rate_sum = np.zeros(0)
        self._arr_rate_count = np.zeros(0)
        self._arr_static = np.zeros(0, dtype=bool)
        self._arr_has_plan = np.zeros(0, dtype=bool)

    def add_flow(self, *args, **kwargs):
        kwargs.setdefault(
            "rng", RngStream(self.seed, "fluid-flow", len(self.flows))
        )
        flow = FluidFlow(*args, **kwargs)
        self._attach(flow)
        self.flows.append(flow)
        return flow

    # -- flow state arrays ----------------------------------------------

    def _ensure_capacity(self, count):
        capacity = len(self._arr_transferred)
        if count <= capacity:
            return
        new_cap = max(8, capacity * 2, count)
        for name in (
            "_arr_transferred", "_arr_total", "_arr_start", "_arr_on",
            "_arr_period", "_arr_finish", "_arr_rate_sum",
            "_arr_rate_count",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_cap)
            grown[: len(old)] = old
            setattr(self, name, grown)
        for name in ("_arr_static", "_arr_has_plan"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=bool)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _attach(self, flow):
        idx = self._n
        self._ensure_capacity(idx + 1)
        self._n = idx + 1
        self._arr_transferred[idx] = 0.0
        self._arr_total[idx] = (
            np.inf if flow.total_bytes is None else flow.total_bytes
        )
        self._arr_start[idx] = flow.start_time
        if flow.on_seconds is None:
            self._arr_on[idx] = np.nan
            self._arr_period[idx] = np.nan
        else:
            self._arr_on[idx] = flow.on_seconds
            self._arr_period[idx] = flow.on_seconds + (flow.off_seconds or 0.0)
        self._arr_finish[idx] = np.nan
        self._arr_rate_sum[idx] = 0.0
        self._arr_rate_count[idx] = 0.0
        self._arr_static[idx] = flow._static
        self._arr_has_plan[idx] = False
        flow._sim = self
        flow._idx = idx

    def _active_indices(self):
        """Indices of flows active at ``self.now`` (vectorized)."""
        n = self._n
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        now = self.now
        started = self._arr_start[:n] <= now
        not_done = self._arr_transferred[:n] < self._arr_total[:n]
        always_on = np.isnan(self._arr_on[:n])
        with np.errstate(invalid="ignore"):
            phase = np.mod(now - self._arr_start[:n], self._arr_period[:n])
            on_phase = always_on | (phase < self._arr_on[:n])
        return np.flatnonzero(started & not_done & on_phase)

    # -- weights ---------------------------------------------------------

    def _flow_paths(self, flow):
        """(path_id -> probability) for this step."""
        if flow.algorithm == "single":
            return {flow.selector.next_path(now=self.now): 1.0}
        if flow.algorithm in _ANALYTIC:
            share = 1.0 / flow.path_count
            return {p: share for p in range(flow.path_count)}
        draws = collections.Counter(
            flow.selector.next_path(now=self.now)
            for _ in range(_FEEDBACK_SAMPLE_DRAWS)
        )
        return {p: n / _FEEDBACK_SAMPLE_DRAWS for p, n in draws.items()}

    def _path_ids(self, flow, path_id):
        """Link-index array for one resolved path (route order), memoized."""
        ids = flow._path_link_ids.get(path_id)
        if ids is None:
            route = self.topology.route(
                flow.src, flow.dst, flow.rail,
                path_id=path_id, connection_id=flow.connection_id,
            )
            ids = np.array([link.index for link in route], dtype=np.int64)
            flow._path_link_ids[path_id] = ids
        return ids

    def _feedback_row(self, flow, probs):
        """Sparse row for a feedback flow's freshly sampled distribution."""
        ids_list = [self._path_ids(flow, p) for p in probs]
        flat = np.concatenate(ids_list)
        lens = [len(ids) for ids in ids_list]
        vals = np.repeat(
            np.fromiter(probs.values(), dtype=float, count=len(probs)), lens
        )
        return link_row(flat, vals)

    def _build_static_plan(self, flow):
        """Resolve a static flow's canonical row (uniform sprays via the
        topology's memo)."""
        if flow.algorithm == "single":
            # The selector draw (and its packets_sent side effect) must
            # happen here, at the flow's first active step, exactly as
            # the scalar engine did.
            probs = self._flow_paths(flow)
            path_id = next(iter(probs))
            ids = self._path_ids(flow, path_id)
            order = np.argsort(ids, kind="stable")
            flow._plan = (ids[order], np.ones(len(ids))[order])
            return
        cols, vals, _, _ = self.topology.spray(
            flow.src, flow.dst, flow.rail, flow.path_count,
            flow.connection_id,
        )
        flow._plan = (cols, vals)

    # -- the max-min allocator ------------------------------------------

    @staticmethod
    def max_min_rates(weight_rows, capacities):
        """Progressive-filling max-min fairness.

        ``weight_rows[f]`` maps link index -> weight; returns rates such
        that no flow can increase without decreasing a poorer flow.
        """
        flow_count = len(weight_rows)
        if flow_count == 0:
            return np.zeros(0)
        rows, cols, vals = [], [], []
        for f, weights in enumerate(weight_rows):
            for link, weight in weights.items():
                rows.append(f)
                cols.append(link)
                vals.append(weight)
        link_count = len(capacities)
        matrix = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(flow_count, link_count)
        )
        caps = np.asarray(capacities, dtype=float)
        return FluidSimulation._max_min_rates_csr(matrix, caps)

    @staticmethod
    def _max_min_rates_csr(matrix, caps):
        """Progressive filling over a canonical flows x links CSR matrix."""
        flow_count = matrix.shape[0]
        if flow_count == 0:
            return np.zeros(0)
        transposed = matrix.T
        rates = np.zeros(flow_count)
        active = np.ones(flow_count, dtype=bool)
        for _ in range(flow_count + 1):
            if not active.any():
                break
            demand = transposed @ active.astype(float)
            load = transposed @ rates
            headroom = caps - load
            constrained = demand > 1e-12
            if not constrained.any():
                break
            delta = np.min(headroom[constrained] / demand[constrained])
            delta = max(delta, 0.0)
            rates[active] += delta
            load = transposed @ rates
            saturated = (caps - load) <= caps * 1e-9 + 1.0
            if not saturated.any():
                break
            # Positive weights make "touches any saturated link" the
            # same predicate as "weight mass on saturated links > 0",
            # which is one csr matvec instead of a column slice.
            touching = (matrix @ saturated.astype(float)) > 0
            touching &= active
            if not touching.any():
                break
            active &= ~touching
        return rates

    # -- stepping -------------------------------------------------------

    def step(self):
        """Advance the simulation by one dt.

        Incremental re-solve: the max-min allocation depends only on the
        active flow set and their link weights.  When every active flow
        has a static path distribution (single/RR/OBS) and the active set
        and link count match the previous solve exactly, last step's
        rates and utilization are bit-identical by construction and are
        reused instead of re-running progressive filling — the dominant
        cost for steady-state collectives and fleet congestion epochs.
        Any feedback-driven flow (its weights re-sample every step) or
        any membership change invalidates the cache.
        """
        now = self.now
        active_idx = self._active_indices()
        all_static = bool(self._arr_static[active_idx].all())
        # Resolve plans lazily, in flow order, for exactly the flows the
        # scalar engine would have resolved this step (static flows at
        # their first active step; feedback flows every step).
        feedback_rows = None
        missing = active_idx[~self._arr_has_plan[active_idx]]
        if len(missing):
            feedback_rows = {}
            for i in missing:
                flow = self.flows[i]
                if flow._static:
                    if flow._plan is None:
                        self._build_static_plan(flow)
                    self._arr_has_plan[i] = True
                else:
                    probs = self._flow_paths(flow)
                    feedback_rows[i] = (probs, self._feedback_row(flow, probs))
        caps = self.topology.link_rates()
        link_count = len(caps)
        cache = self._solve_cache
        if (
            all_static
            and cache is not None
            and cache[1] == link_count
            and np.array_equal(cache[0], active_idx)
        ):
            rates = cache[2]
            utilization = cache[3]
        else:
            if len(active_idx):
                rows = [
                    feedback_rows[i][1]
                    if feedback_rows is not None and i in feedback_rows
                    else self.flows[i]._plan
                    for i in active_idx
                ]
                lens = np.fromiter(
                    (len(cols) for cols, _ in rows),
                    dtype=np.int64, count=len(rows),
                )
                indptr = np.zeros(len(rows) + 1, dtype=np.int64)
                np.cumsum(lens, out=indptr[1:])
                indices = (
                    np.concatenate([cols for cols, _ in rows])
                    if len(rows) else np.zeros(0, dtype=np.int64)
                )
                data = (
                    np.concatenate([vals for _, vals in rows])
                    if len(rows) else np.zeros(0)
                )
                matrix = sparse.csr_matrix(
                    (data, indices, indptr),
                    shape=(len(active_idx), link_count),
                )
                rates = self._max_min_rates_csr(matrix, caps)
                if link_count:
                    loads = matrix.T @ rates
                    utilization = np.divide(
                        loads, caps, out=np.zeros_like(loads),
                        where=caps > 0,
                    )
                else:
                    utilization = np.zeros(0)
            else:
                rates = np.zeros(0)
                utilization = np.zeros(link_count, dtype=float)
            self._solve_cache = (
                (active_idx.copy(), link_count, rates, utilization)
                if all_static else None
            )
        if self.record_history:
            for flow in self.flows:
                flow.rate_history.append(None)
            for pos, i in enumerate(active_idx):
                self.flows[i].rate_history[-1] = float(rates[pos])
        # Batch advancement: same per-flow arithmetic (rate/8.0*dt) the
        # scalar loop ran, applied elementwise.
        self._arr_rate_sum[active_idx] += rates
        self._arr_rate_count[active_idx] += 1.0
        self._arr_transferred[active_idx] += rates / 8.0 * self.dt
        newly_done = active_idx[
            (self._arr_transferred[active_idx] >= self._arr_total[active_idx])
            & np.isnan(self._arr_finish[active_idx])
        ]
        self._arr_finish[newly_done] = now + self.dt
        if not all_static:
            for i in active_idx:
                row = feedback_rows.get(i) if feedback_rows else None
                if row is not None:
                    self._feed_back(self.flows[i], row[0], utilization)
        self.now += self.dt
        self.steps_run += 1
        return rates

    def _feed_back(self, flow, probs, utilization):
        """Translate link utilization into selector feedback signals."""
        base_rtt = 8e-6
        for path_id in probs:
            ids = flow._path_link_ids[path_id]
            worst = utilization[ids].max()
            # ECN marking is probabilistic in utilization, like a RED/ECN
            # threshold seen through sampled ACKs.  The stochastic
            # asymmetry is what lets DWRR's weights diverge and collapse
            # onto few paths — the pathology Figure 10a reports.
            mark_probability = min(1.0, max(0.0, (worst - 0.8) / 0.4))
            congested = self._rng.random() < mark_probability
            rtt = base_rtt * (1.0 + 8.0 * max(0.0, worst - 0.8))
            flow.selector.on_feedback(path_id, rtt=rtt, ecn=congested)

    def _all_bounded_done(self):
        n = self._n
        bounded = np.isfinite(self._arr_total[:n])
        return bool(
            np.all(self._arr_transferred[:n][bounded]
                   >= self._arr_total[:n][bounded])
        )

    def run(self, duration=None, until_done=False, max_steps=10_000):
        """Run for a duration and/or until all bounded flows finish."""
        if duration is None and not until_done:
            raise ValueError("run() needs a duration or until_done=True")
        steps = 0
        while steps < max_steps:
            if duration is not None and self.now >= duration - 1e-12:
                break
            if until_done and self._all_bounded_done():
                break
            self.step()
            steps += 1
        return steps
