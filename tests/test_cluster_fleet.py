"""End-to-end FleetSimulation tests.

Three scenarios:

* the CI smoke fleet (two hosts, three jobs, one abort, one failure),
* a purpose-built failure-locality fleet proving a dead uplink degrades
  only the job whose sprayed paths cross it,
* the canonical 16-host / 3-tenant churn scenario, asserting the
  paper-level effects (Figure 6 cold-start growth with pinned GB,
  bounded ATC with multi-tenant miss growth, nonzero queue waits).
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import calibration
from repro.cluster import FleetSimulation, JobSpec, JobState, PlacementPolicy
from repro.cluster.fleet import CONNECTION_STRIDE
from repro.core.spray import make_selector
from repro.net.failure import effective_loss_rate
from repro.net.loadmodel import StaticLoadModel
from repro.net.topology import DualPlaneTopology, ServerAddress
from repro.obs.metrics import MetricsRegistry
from repro.sim import SimSanitizer
from repro.sim.rng import RngStream
from repro.sim.units import GiB, MiB
from repro.training.trainer import TRANSPORTS
from repro.workloads.fleet_bench import (
    CHURN_FAILURE_AT,
    CHURN_FAILURE_SECONDS,
    build_churn_fleet,
    churn_tenants,
    run_churn,
    run_fleet_smoke,
)


@pytest.fixture(scope="module")
def smoke():
    registry = MetricsRegistry("fleet-smoke-test")
    fleet, result = run_fleet_smoke(registry=registry)
    return fleet, result, registry


@pytest.fixture(scope="module")
def churn():
    registry = MetricsRegistry("fleet-churn-test")
    fleet, result = run_churn(registry=registry)
    return fleet, result, registry


def job_named(result, name):
    return next(job for job in result.jobs if job.spec.name == name)


class TestSmokeScenario:
    def test_every_job_reaches_a_terminal_state(self, smoke):
        fleet, result, registry = smoke
        counters = result.counters
        assert counters["jobs_submitted"] == 3
        assert counters["jobs_completed"] == 2
        assert counters["jobs_failed"] == 1
        assert counters["jobs_queued"] == 0
        assert counters["jobs_running"] == 0

    def test_abort_job_queued_then_failed(self, smoke):
        fleet, result, registry = smoke
        abort = job_named(result, "smoke-abort")
        assert abort.state is JobState.FAILED
        assert abort.wait_seconds > 0  # queued behind the full hosts
        assert abort.iterations_done < abort.spec.iterations

    def test_hosts_fully_drained_after_run(self, smoke):
        fleet, result, registry = smoke
        for host in fleet.scheduler.hosts:
            assert host.gpus_reserved == 0
            assert host.dram_reserved == 0
            assert len(host.host.hypervisor.containers) == 0

    def test_full_pin_starts_slower_than_pvdma(self, smoke):
        fleet, result, registry = smoke
        pinned = job_named(result, "smoke-pinned")
        pvdma = job_named(result, "smoke-pvdma")
        assert pinned.startup_seconds > pvdma.startup_seconds

    def test_link_failure_was_injected_and_healed(self, smoke):
        fleet, result, registry = smoke
        assert result.counters["link_failures"] == 1
        assert result.counters["links_down"] == 0

    def test_registry_snapshot_passes_conservation(self, smoke):
        fleet, result, registry = smoke
        SimSanitizer(fleet.engine, registry).check_conservation(drained=True)


class TestFailureLocality:
    @pytest.fixture(scope="class")
    def outcome(self):
        topology = DualPlaneTopology(
            segments=2, servers_per_segment=1, rails=1, planes=2,
            aggs_per_plane=2,
        )
        fleet = FleetSimulation(
            topology, policy=PlacementPolicy.SPREAD, seed=7,
            host_config=dict(gpus=2, rnics=1, dram_bytes=8 * GiB,
                             gpu_hbm_bytes=1 * GiB, atc_capacity=128),
            sample_pages=32,
        )
        # The victim: a 4-QP legacy transport spanning both segments, so
        # a quarter of its sprayed paths can die with one uplink.
        fleet.submit(JobSpec(
            "affected", "a", containers=2, gpus_per_container=1,
            memory_bytes=1 * GiB, working_set_bytes=4 * MiB,
            iterations=120, transport="cx7",
        ), at=0.0)
        # The bystander: a single-host job; no fabric traffic at all.
        fleet.submit(JobSpec(
            "solo", "b", containers=1, gpus_per_container=1,
            memory_bytes=1 * GiB, working_set_bytes=4 * MiB,
            iterations=120, transport="stellar",
        ), at=0.0)
        fleet.inject_link_failure(at=10.0, duration=6.0)
        registry = MetricsRegistry("failure-locality")
        fleet.register_metrics(registry)
        with SimSanitizer(fleet.engine, registry):
            result = fleet.run()
        return fleet, result

    def test_both_jobs_complete(self, outcome):
        fleet, result = outcome
        assert result.counters["jobs_completed"] == 2

    def test_victim_is_penalized_only_during_the_window(self, outcome):
        fleet, result = outcome
        affected = job_named(result, "affected")
        during = [entry for entry in affected.iteration_log
                  if 10.0 <= entry[0] < 16.0]
        outside = [entry for entry in affected.iteration_log
                   if not 10.0 <= entry[0] < 16.0]
        assert during and outside
        assert all(entry[3] < 1.0 for entry in during)
        assert all(entry[3] == 1.0 for entry in outside)

    def test_victim_iterations_slow_down_then_recover(self, outcome):
        fleet, result = outcome
        affected = job_named(result, "affected")
        degraded = [entry[2] for entry in affected.iteration_log
                    if entry[3] < 1.0]
        healthy = [entry[2] for entry in affected.iteration_log
                   if entry[3] == 1.0]
        assert min(degraded) > max(healthy)
        # Entries after the heal exist and run at the healthy rate again.
        post = [entry for entry in affected.iteration_log if entry[0] >= 16.0]
        assert post and all(entry[3] == 1.0 for entry in post)

    def test_bystander_never_notices(self, outcome):
        fleet, result = outcome
        solo = job_named(result, "solo")
        assert all(entry[3] == 1.0 for entry in solo.iteration_log)
        assert all(s == pytest.approx(1.0) for s in solo.slowdown_samples)


class TestChurnScenario:
    def test_all_jobs_accounted(self, churn):
        fleet, result, registry = churn
        counters = result.counters
        assert counters["jobs_submitted"] > 0
        assert (counters["jobs_completed"] + counters["jobs_failed"]
                == counters["jobs_submitted"])
        assert counters["jobs_queued"] == 0
        SimSanitizer(fleet.engine, registry).check_conservation(drained=True)

    def test_contention_produces_queue_waits(self, churn):
        fleet, result, registry = churn
        waits = [job.wait_seconds for job in result.jobs
                 if job.wait_seconds is not None]
        assert max(waits) > 0

    def test_cold_start_grows_with_pinned_memory(self, churn):
        fleet, result, registry = churn
        by_pinned_gb = {}
        pvdma_startups = []
        for job in result.jobs:
            if job.startup_seconds is None:
                continue
            if job.spec.memory_mode.value == "full_pin":
                by_pinned_gb.setdefault(
                    job.spec.memory_bytes, []).append(job.startup_seconds)
            else:
                pvdma_startups.append(job.startup_seconds)
        assert len(by_pinned_gb) >= 2  # both legacy sizes showed up
        sizes = sorted(by_pinned_gb)
        means = [sum(by_pinned_gb[s]) / len(by_pinned_gb[s]) for s in sizes]
        assert means == sorted(means)  # monotone in pinned bytes
        assert means[-1] > means[0] * 1.5
        # PVDMA start-up is decoupled from container memory.
        assert max(pvdma_startups) < min(by_pinned_gb[sizes[-1]])

    def test_failure_degrades_some_jobs_but_not_all(self, churn):
        fleet, result, registry = churn
        window_end = CHURN_FAILURE_AT + CHURN_FAILURE_SECONDS
        degraded, unaffected = [], []
        for job in result.jobs:
            penalties = [entry[3] for entry in job.iteration_log]
            if penalties and min(penalties) < 1.0:
                degraded.append(job)
            elif penalties:
                unaffected.append(job)
        assert degraded and unaffected
        for job in degraded:
            bad = [entry[0] for entry in job.iteration_log if entry[3] < 1.0]
            assert all(CHURN_FAILURE_AT <= t < window_end for t in bad)

    def test_atc_stays_bounded_on_every_host(self, churn):
        fleet, result, registry = churn
        for host in fleet.scheduler.hosts:
            snap = host.snapshot()
            assert snap["atc"]["size"] <= snap["atc"]["capacity"]
            assert snap["lut_used"] <= snap["lut_capacity"]

    def test_translation_indexes_hold_only_live_domains(self, churn):
        """Memory stays bounded: a stopped tenant leaves no key and no
        empty index entry in its host's shared ATC or IOTLB."""
        fleet, result, registry = churn
        launched = {c.domain_name for job in result.jobs
                    for c in job.containers}
        assert launched
        for host in fleet.scheduler.hosts:
            live = {c.domain_name
                    for c in host.host.hypervisor.containers.values()}
            for cache in (host.atc.cache, host.host.hypervisor.iommu.iotlb):
                held = {d for d in launched if cache.holds_domain(d)}
                assert held <= live, (host.name, cache.name)
                # Dropping every held domain empties the cache: the
                # index holds each cached key, and no stale one.
                probe = copy.deepcopy(cache)
                for domain in held:
                    probe.invalidate_domain(domain)
                assert len(probe) == 0, (host.name, cache.name)

    def test_multi_tenant_atc_misses_exceed_single_tenant(self, churn):
        fleet, result, registry = churn

        def miss_rate(run_fleet):
            hits = misses = 0
            for host in run_fleet.scheduler.hosts:
                snap = host.atc.snapshot()
                hits += snap["hits"]
                misses += snap["misses"]
            return misses / max(1, hits + misses)

        solo_fleet, _ = run_churn(tenants=[churn_tenants()[0]], failure=False)
        assert miss_rate(fleet) > miss_rate(solo_fleet)

    def test_slowdown_tail_reflects_contention(self, churn):
        fleet, result, registry = churn
        assert result.p99_slowdown() > 1.0


class TestBackgroundLoad:
    """``FleetSimulation._background_rates`` against its docstring claim:
    the per-link load equals spraying every running job's background
    flows through one shared :class:`StaticLoadModel`.  The running
    per-link ledger behind it is checked at every epoch."""

    def test_equals_static_load_model(self):
        fleet = build_churn_fleet(seed=17)
        # At every epoch the running ledger must equal a fresh merge of
        # the RUNNING jobs' draw counts, recomputed from scratch.
        recompute = fleet._recompute_rates  # simlint: ok L-private
        epochs = []

        def checked_recompute():
            fresh = {}
            for job in fleet.jobs:
                if job.state is JobState.RUNNING:
                    counts = fleet._background_counts(job)  # simlint: ok L-private
                    assert job.bg_counts == counts
                    for link, count in counts.items():
                        fresh[link] = fresh.get(link, 0) + count
                    continue
                assert job.bg_counts == {}
                if job.state in (JobState.COMPLETED, JobState.FAILED):
                    assert job.touch_pages == {}  # finished: sample dropped
            assert fleet._bg_totals == fresh  # simlint: ok L-private
            epochs.append(len(fresh))
            recompute()

        fleet._recompute_rates = checked_recompute  # simlint: ok L-private
        fleet.run(until=100.0)
        assert epochs and max(epochs) > 0
        running = [job for job in fleet.jobs if job.state is JobState.RUNNING]
        assert running
        topology = fleet.topology
        model = StaticLoadModel(topology, seed=fleet.seed)
        for job in running:
            for k, host in enumerate(job.unique_hosts()):
                src = host.address
                dst = ServerAddress((src.segment + 1) % topology.segments,
                                    src.index)
                selector = make_selector(
                    "obs", 16,
                    rng=RngStream(fleet.seed, "bg", job.spec.name, str(k)),
                )
                # 10 Gbit/s of storage/checkpoint traffic for one second.
                model.add_flow(
                    src, dst, 0, selector, 10e9 / 8,
                    connection_id=1_000_000 + job.index * 64 + k,
                    max_draws=64,
                )
        expected = dict(zip(
            model.loads.bytes_by_link,
            model.loads.rates_for(model.loads.bytes_by_link, 1.0),
        ))
        assert expected
        # The private helper is the unit under test.
        rates = fleet._background_rates()  # simlint: ok L-private
        assert rates == expected
        # Run the churn out: every job leaves RUNNING, and the ledger
        # drains to empty instead of keeping zero entries.
        checked = len(epochs)
        fleet.run()
        assert len(epochs) > checked
        assert all(job.state is not JobState.RUNNING for job in fleet.jobs)
        assert fleet._bg_totals == {}  # simlint: ok L-private


def walk_pages(chunks, page, sample_pages):
    """The page sample as a full walk of every chunk's pages."""
    pages = []
    for _, gpa, length in chunks:
        cursor = gpa - (gpa % page)
        while cursor < gpa + length:
            pages.append(cursor)
            cursor += page
    stride = max(1, len(pages) // sample_pages)
    return pages[::stride][:sample_pages]


class TestPageSample:
    FLEET = FleetSimulation(
        DualPlaneTopology(segments=1, servers_per_segment=1, rails=1),
        host_config=dict(gpus=2, rnics=1, dram_bytes=8 * GiB,
                         gpu_hbm_bytes=1 * GiB),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        chunks=st.lists(
            st.tuples(st.integers(0, 1 << 40),
                      st.integers(0, 40 * calibration.GDR_PAGE_BYTES)),
            max_size=12,
        ),
        sample_pages=st.integers(1, 300),
    )
    def test_strided_arithmetic_matches_the_full_walk(self, chunks,
                                                      sample_pages):
        # Unaligned starts and lengths, zero-length chunks, and samples
        # both smaller and larger than the working set's page count.
        fleet = self.FLEET
        fleet.sample_pages = sample_pages
        triples = [(0, gpa, length) for gpa, length in chunks]
        container = SimpleNamespace(
            gva_to_gpa_chunks=lambda start, length: triples
        )
        region = SimpleNamespace(start=0, length=0)
        sample = fleet._sample_pages(container, region)  # simlint: ok L-private
        assert isinstance(sample, tuple)
        assert list(sample) == walk_pages(triples, fleet.atc_page, sample_pages)


def route_penalty(fleet, job):
    """``failure_penalty`` counted path by path through ``route()``."""
    topology = fleet.topology
    servers = [host.address for host in job.unique_hosts()]
    n = len(servers)
    transport = TRANSPORTS[job.spec.transport]
    worst = 0.0
    for rail in range(topology.rails):
        for i, src in enumerate(servers):
            dst = servers[(i + 1) % n]
            connection_id = job.index * CONNECTION_STRIDE + rail * n + i
            crossing = sum(
                any(link in fleet.failed_links for link in topology.route(
                    src, dst, rail, path_id=p, connection_id=connection_id))
                for p in range(transport.path_count)
            )
            share = effective_loss_rate(1.0, transport.path_count, crossing)
            worst = max(worst, share)
    return max(0.05, 1.0 - worst)


class TestFailurePenalty:
    """``failure_penalty`` (one path table per ring edge, each distinct
    route tested once) against a per-path ``route()`` count."""

    def fleet(self):
        topology = DualPlaneTopology(
            segments=2, servers_per_segment=4, rails=2, planes=2,
            aggs_per_plane=6,
        )
        return FleetSimulation(
            topology,
            host_config=dict(gpus=2, rnics=1, dram_bytes=8 * GiB,
                             gpu_hbm_bytes=1 * GiB),
        )

    def job(self, fleet, index, transport, addresses):
        hosts = {host.address: host for host in fleet.scheduler.hosts}
        ring = [hosts[ServerAddress(*a)] for a in addresses]
        return SimpleNamespace(
            index=index, spec=SimpleNamespace(transport=transport),
            unique_hosts=lambda: ring,
        )

    @pytest.mark.parametrize("transport", ["stellar", "cx7"])
    def test_cross_segment_ring_with_tor_down_and_host_link_failed(
        self, transport
    ):
        fleet = self.fleet()
        topology = fleet.topology
        job = self.job(fleet, 5, transport, [(0, 1), (1, 2), (0, 3)])
        src, dst = ServerAddress(0, 1), ServerAddress(1, 2)
        tor_down = topology.route(
            src, dst, 1, path_id=0, connection_id=5 * CONNECTION_STRIDE + 3
        )[2]
        assert tor_down.kind == "tor_down"
        fleet.failed_links = [tor_down, topology.host_up(dst, 0, 1)]
        penalty = fleet.failure_penalty(job)
        assert penalty < 1.0
        assert penalty == route_penalty(fleet, job)

    @pytest.mark.parametrize("transport", ["stellar", "cx7"])
    def test_same_segment_ring(self, transport):
        fleet = self.fleet()
        topology = fleet.topology
        job = self.job(fleet, 2, transport, [(1, 0), (1, 1), (1, 3)])
        fleet.failed_links = [
            topology.tor_down(1, 0, 0, 4),  # unused by same-ToR routes
            topology.host_down(ServerAddress(1, 3), 0, 1),
        ]
        penalty = fleet.failure_penalty(job)
        assert penalty < 1.0
        assert penalty == route_penalty(fleet, job)


class TestFleet1024:
    """Paper-scale (1024-host) variant behind simbench's fleet workloads."""

    def test_topology_is_paper_scale(self):
        from repro.workloads.fleet_bench import fleet1024_topology

        topology = fleet1024_topology()
        assert len(list(topology.servers())) == 1024
        assert topology.planes == 2

    def test_tenants_cover_the_three_bands(self):
        from repro.workloads.fleet_bench import fleet1024_tenants

        tenants = fleet1024_tenants()
        assert [t.name for t in tenants] == ["pretrain", "mid", "svc"]

    def test_build_does_not_run(self):
        from repro.workloads.fleet_bench import build_fleet1024

        fleet = build_fleet1024(seed=5)
        assert fleet.engine.events_executed == 0

    def test_smoke_run_is_deterministic(self):
        from repro.workloads.fleet_bench import run_fleet1024_smoke

        fleet_a, result_a = run_fleet1024_smoke()
        fleet_b, result_b = run_fleet1024_smoke()
        assert fleet_a.engine.events_executed == fleet_b.engine.events_executed
        completed_a = result_a.by_state(JobState.COMPLETED)
        completed_b = result_b.by_state(JobState.COMPLETED)
        assert len(completed_a) >= 1
        assert [j.spec.name for j in completed_a] == [
            j.spec.name for j in completed_b
        ]
        assert result_a.total_goodput() == result_b.total_goodput()
