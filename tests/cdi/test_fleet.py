"""Tests for the vectorized fleet-scale simulation engine.

The load-bearing property is *bit*-parity: on any shared
configuration the fleet engine must reproduce the scalar reference
DES per job — wait, start, end, cores-grant time, and trapped
core/GPU accounting — exactly, not approximately. Everything layered
on top (placement, penalties, traces, metrics) must never perturb the
schedule.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdi import (
    PLACEMENT_POLICIES,
    ClusterSpec,
    FleetConfig,
    FleetJobs,
    FleetTopology,
    SimJob,
    TenantSpec,
    assert_fleet_parity,
    generate_fleet_jobs,
    run_fleet,
    synthetic_job_mix,
)
from repro.cdi import fleet as fleet_engine
from repro.cdi.placement import (
    RackPool,
    place_locality,
    place_pack,
    place_spread,
)
from repro.des import quantize
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.trace import EventKind, Trace

from ..oracles import fleet as fleet_oracle
from ..oracles import placement as placement_oracle

CLUSTER = ClusterSpec(nodes=4)


def fleet_jobs(n=200, seed=3, mean_gap=120.0, cluster=CLUSTER):
    return FleetJobs.from_sim_jobs(
        synthetic_job_mix(
            n, np.random.default_rng(seed),
            mean_interarrival_s=mean_gap, cluster=cluster,
        )
    )


class TestFleetJobs:
    def test_roundtrip_through_sim_jobs(self):
        jobs = fleet_jobs(50)
        back = FleetJobs.from_sim_jobs(jobs.to_sim_jobs())
        assert (back.arrival_s == jobs.arrival_s).all()
        assert (back.duration_s == jobs.duration_s).all()
        assert (back.cores == jobs.cores).all()
        assert (back.gpus == jobs.gpus).all()
        assert (back.tenant == jobs.tenant).all()
        assert back.tenant_names == jobs.tenant_names

    def test_validation(self):
        one = np.ones(1)
        with pytest.raises(ValueError, match="align"):
            FleetJobs(one, np.ones(2), np.ones(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64), ("t",))
        with pytest.raises(ValueError, match="timing"):
            FleetJobs(one, np.zeros(1), np.ones(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64), ("t",))
        with pytest.raises(ValueError, match="tenant"):
            FleetJobs(one, one, np.ones(1, dtype=np.int64),
                      np.zeros(1, dtype=np.int64),
                      np.ones(1, dtype=np.int64), ("t",))

    @pytest.mark.parametrize("arrival, duration", [
        (np.nan, 10.0), (np.inf, 10.0), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_non_finite_timing_rejected(self, arrival, duration):
        # A NaN slipped past `< 0` and hung run_fleet; inf gave an
        # infinite makespan. Both columns and SimJob refuse them.
        with pytest.raises(ValueError, match="invalid job timing"):
            FleetJobs(np.array([0.0, arrival, 2.0]),
                      np.array([5.0, duration, 5.0]),
                      np.ones(3, dtype=np.int64),
                      np.zeros(3, dtype=np.int64),
                      np.zeros(3, dtype=np.int64), ("t",))
        with pytest.raises(ValueError, match="invalid job timing"):
            SimJob("t-0", arrival_s=arrival, duration_s=duration,
                   cores=1, gpus=0)


class TestGeneration:
    def test_deterministic(self):
        config = FleetConfig(horizon_s=3.0e5, seed=99)
        a = generate_fleet_jobs(config)
        b = generate_fleet_jobs(config)
        assert (a.arrival_s == b.arrival_s).all()
        assert (a.duration_s == b.duration_s).all()
        assert (a.cores == b.cores).all()
        assert (a.gpus == b.gpus).all()

    def test_arrivals_are_tick_quantized(self):
        jobs = generate_fleet_jobs(FleetConfig(horizon_s=2.0e5))
        for t in jobs.arrival_s[:64]:
            assert float(t) == quantize(float(t))

    def test_tenants_independent(self):
        """Adding a tenant must not perturb existing tenants' draws."""
        base = FleetConfig(
            horizon_s=3.0e5,
            tenants=(TenantSpec(name="batch", rate_per_s=1 / 900.0),),
        )
        both = FleetConfig(
            horizon_s=3.0e5,
            tenants=(
                TenantSpec(name="batch", rate_per_s=1 / 900.0),
                TenantSpec(name="extra", rate_per_s=1 / 500.0),
            ),
        )
        a = generate_fleet_jobs(base)
        b = generate_fleet_jobs(both)
        mask = b.tenant == 0
        assert (b.arrival_s[mask] == a.arrival_s).all()
        assert (b.duration_s[mask] == a.duration_s).all()

    def test_shares_respected_roughly(self):
        config = FleetConfig(
            horizon_s=2.0e6,
            tenants=(TenantSpec(name="t", rate_per_s=1 / 300.0,
                                cpu_heavy_share=0.0,
                                gpu_heavy_share=1.0),),
        )
        jobs = generate_fleet_jobs(config)
        assert (jobs.gpus >= 4).all()  # all GPU-heavy

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="", rate_per_s=1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate_per_s=1.0, cpu_heavy_share=0.7,
                       gpu_heavy_share=0.5)
        with pytest.raises(ValueError, match="unique"):
            FleetConfig(tenants=(TenantSpec(name="t", rate_per_s=1.0),
                                 TenantSpec(name="t", rate_per_s=2.0)))
        with pytest.raises(ValueError, match="GPUs"):
            generate_fleet_jobs(FleetConfig(
                cluster=ClusterSpec(nodes=2, gpus_per_node=0),
                horizon_s=1.0e5,
            ))
        assert len(generate_fleet_jobs(
            FleetConfig(horizon_s=5.0e5, max_jobs=10)
        )) == 10


class TestBitParity:
    """The acceptance property: per-job bit-parity with the reference."""

    @pytest.mark.parametrize("mode", ["traditional", "cdi"])
    def test_parity_on_synthetic_mix(self, mode):
        assert_fleet_parity(fleet_jobs(400, seed=11, mean_gap=60.0),
                            CLUSTER, mode)

    @pytest.mark.parametrize("mode", ["traditional", "cdi"])
    def test_parity_on_generated_stream(self, mode):
        config = FleetConfig(cluster=CLUSTER, horizon_s=5.0e5, seed=5)
        assert_fleet_parity(generate_fleet_jobs(config), CLUSTER, mode)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        mean_gap=st.floats(min_value=10.0, max_value=1000.0),
        nodes=st.integers(min_value=1, max_value=8),
    )
    def test_parity_under_random_load(self, seed, mean_gap, nodes):
        cluster = ClusterSpec(nodes=nodes)
        jobs = fleet_jobs(60, seed=seed, mean_gap=mean_gap, cluster=cluster)
        for mode in ("traditional", "cdi"):
            assert_fleet_parity(jobs, cluster, mode)

    def test_simultaneous_arrivals_keep_submission_order(self):
        # Three same-instant jobs: FIFO must follow submission order,
        # and the over-sized head blocks the queue (no backfilling).
        jobs = FleetJobs.from_sim_jobs([
            SimJob("t-0", arrival_s=0.0, duration_s=50.0, cores=40, gpus=0),
            SimJob("t-1", arrival_s=0.0, duration_s=50.0, cores=40, gpus=0),
            SimJob("t-2", arrival_s=0.0, duration_s=10.0, cores=8, gpus=0),
        ])
        cluster = ClusterSpec(nodes=1, cores_per_node=48, gpus_per_node=0)
        result, _ = assert_fleet_parity(jobs, cluster, "cdi")
        assert result.start_s.tolist() == [0.0, 50.0, 50.0]

    def test_hold_and_wait_parity(self):
        # Cores granted while blocked on GPUs: the trapped accounting
        # must match the reference bit for bit.
        jobs = FleetJobs.from_sim_jobs([
            SimJob("t-0", arrival_s=0.0, duration_s=100.0, cores=1, gpus=16),
            SimJob("t-1", arrival_s=1.0, duration_s=10.0, cores=2, gpus=1),
        ])
        result, _ = assert_fleet_parity(jobs, CLUSTER, "cdi")
        assert float(result.cores_start_s[1]) == 1.0
        assert float(result.start_s[1]) == 100.0
        assert float(result.trapped_core_s[1]) == 2 * 99.0


class TestRunFleetValidation:
    def test_bad_inputs(self):
        jobs = fleet_jobs(10)
        with pytest.raises(ValueError, match="mode"):
            run_fleet(jobs, CLUSTER, "magic")
        with pytest.raises(ValueError, match="placement"):
            run_fleet(jobs, CLUSTER, "cdi", placement="nope")
        with pytest.raises(ValueError, match="topology"):
            run_fleet(jobs, CLUSTER, "cdi",
                      topology=FleetTopology.uniform(2, 1))
        with pytest.raises(ValueError, match="empty"):
            run_fleet(FleetJobs(
                np.empty(0), np.empty(0),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64), ()), CLUSTER)

    def test_oversized_job_rejected(self):
        jobs = FleetJobs.from_sim_jobs(
            [SimJob("t-0", arrival_s=0.0, duration_s=1.0,
                    cores=10_000, gpus=0)]
        )
        for mode in ("traditional", "cdi"):
            with pytest.raises(ValueError, match="larger than the machine"):
                run_fleet(jobs, CLUSTER, mode)


class TestFaultFreeze:
    def test_flap_delays_gpu_admission(self):
        jobs = FleetJobs.from_sim_jobs([
            SimJob("t-0", arrival_s=10.0, duration_s=5.0, cores=1, gpus=1),
        ])
        plan = FaultPlan.from_spec("seed=1;flap:start=5,down=20")
        healthy = run_fleet(jobs, CLUSTER, "cdi")
        flapped = run_fleet(jobs, CLUSTER, "cdi", faults=plan)
        assert float(healthy.start_s[0]) == 10.0
        # Frozen until the window ends at t=25; cores held throughout.
        assert float(flapped.start_s[0]) == 25.0
        assert float(flapped.cores_start_s[0]) == 10.0
        assert float(flapped.trapped_core_s[0]) == 15.0

    def test_traditional_untouched_by_flaps(self):
        jobs = fleet_jobs(50)
        plan = FaultPlan.from_spec("seed=1;flap:start=100,down=1e6")
        a = run_fleet(jobs, CLUSTER, "traditional")
        b = run_fleet(jobs, CLUSTER, "traditional", faults=plan)
        assert (a.start_s == b.start_s).all()


def pool_free(pool):
    """The pool's free counts, after checking its sorted keys match."""
    n = pool.racks
    assert pool.keys == sorted(f * n + r for r, f in enumerate(pool.free))
    return pool.free


class TestPlacementPolicies:
    def test_pack_prefers_tightest_fit(self):
        pool = RackPool([2, 8, 4])
        assert place_pack(pool, 3, [0, 1, 2]) == [(2, 3)]
        assert pool_free(pool) == [2, 8, 1]

    def test_pack_spans_when_needed(self):
        pool = RackPool([2, 3, 1])
        assert place_pack(pool, 5, [0, 1, 2]) == [(1, 3), (0, 2)]
        assert pool_free(pool) == [0, 0, 1]

    def test_spread_balances(self):
        pool = RackPool([4, 4])
        assert place_spread(pool, 2, [0, 1]) == [(0, 1), (1, 1)]
        assert pool_free(pool) == [3, 3]

    def test_locality_prefers_low_slack(self):
        pool = RackPool([4, 4])
        # slack_order says rack 1 is nearer: it wins the whole fit.
        assert place_locality(pool, 2, [1, 0]) == [(1, 2)]
        assert pool_free(pool) == [4, 2]

    def test_exhaustion_raises(self):
        for policy in PLACEMENT_POLICIES.values():
            with pytest.raises(ValueError, match="cannot place"):
                policy(RackPool([1, 1]), 3, [0, 1])

    @pytest.mark.parametrize("policy", sorted(PLACEMENT_POLICIES))
    def test_replay_conserves_rack_inventory(self, policy):
        jobs = fleet_jobs(300, seed=13, mean_gap=60.0)
        topo = FleetTopology.uniform(4, CLUSTER.total_gpus // 4)
        result = run_fleet(jobs, CLUSTER, "cdi",
                           placement=policy, topology=topo)
        assert result.placement == policy
        gpu_jobs = jobs.gpus > 0
        placed = np.array([len(r) > 0 for r in result.rack_of_gpus])
        assert (placed == gpu_jobs).all()
        for i in np.flatnonzero(gpu_jobs):
            counts = result.rack_of_gpus[i]
            assert sum(c for _, c in counts) == int(jobs.gpus[i])
            want = max(topo.rack_slack_s[r] for r, _ in counts)
            assert float(result.slack_s[i]) == want
        assert np.isnan(result.slack_s[~gpu_jobs]).all()

    def test_placement_does_not_perturb_schedule(self):
        jobs = fleet_jobs(200, seed=17)
        plain = run_fleet(jobs, CLUSTER, "cdi")
        placed = run_fleet(
            jobs, CLUSTER, "cdi", placement="spread",
            topology=FleetTopology.uniform(2, CLUSTER.total_gpus // 2),
        )
        assert (plain.start_s == placed.start_s).all()

    def test_topology_helpers(self):
        topo = FleetTopology.uniform(3, 8)
        assert topo.racks == 3 and topo.total_gpus == 24
        assert topo.rack_slack_s[0] < topo.rack_slack_s[2]
        with pytest.raises(ValueError):
            FleetTopology(rack_slack_s=(), gpus_per_rack=8)
        with pytest.raises(ValueError):
            FleetTopology(rack_slack_s=(1e-6,), gpus_per_rack=0)


class _StubSurrogate:
    """Evaluates to slack*1000 with every odd row refused."""

    def evaluate(self, sizes, threads, slacks):
        n = len(slacks)
        reason = np.zeros(n, dtype=np.int64)
        reason[1::2] = 3
        return np.asarray(slacks) * 1000.0, np.zeros(n), reason


class TestPenaltiesAndStats:
    def test_penalty_distribution(self):
        jobs = fleet_jobs(100, seed=23)
        topo = FleetTopology.uniform(2, CLUSTER.total_gpus // 2)
        result = run_fleet(jobs, CLUSTER, "cdi", topology=topo,
                           surrogate=_StubSurrogate())
        gpu_rows = int((jobs.gpus > 0).sum())
        assert result.penalty is not None
        assert int((~np.isnan(result.penalty)).sum()) == gpu_rows
        assert result.penalty_refusals == gpu_rows // 2
        stats = result.tenant_stats()
        assert any(s.penalty_p50 is not None for s in stats.values())

    def test_tenant_stats_partition_jobs(self):
        jobs = fleet_jobs(150, seed=29)
        result = run_fleet(jobs, CLUSTER, "cdi")
        stats = result.tenant_stats()
        assert set(stats) <= set(jobs.tenant_names)
        assert sum(s.jobs for s in stats.values()) == len(jobs)
        for name, s in stats.items():
            mask = jobs.tenant == jobs.tenant_names.index(name)
            assert s.mean_wait_s == pytest.approx(
                float(result.wait_s[mask].mean())
            )
            assert s.wait_p50_s <= s.wait_p99_s

    def test_tenant_stats_edge_cases(self):
        # Tenant "idle" has no jobs; "cpu" has only NaN penalties.
        result = _stats_result(
            tenant=[0, 2, 0, 2, 0], names=("gpu", "idle", "cpu"),
            waits=[1.0, 2.0, 1.0, 0.0, 3.0], gpus=[1, 0, 2, 0, 1],
            durations=[10.0, 5.0, 10.0, 5.0, 2.5],
            penalty=[0.5, np.nan, 0.5, np.nan, 0.25],
        )
        stats = result.tenant_stats()
        assert stats == fleet_oracle.tenant_stats(result)
        assert set(stats) == {"gpu", "cpu"}
        assert stats["cpu"].penalty_p50 is None
        assert stats["gpu"].penalty_p50 == 0.5
        result.penalty = None
        stats = result.tenant_stats()
        assert stats == fleet_oracle.tenant_stats(result)
        assert stats["gpu"].penalty_p99 is None

    @settings(max_examples=200, deadline=None)
    @given(
        tenants=st.integers(1, 4),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        nan_share=st.sampled_from([None, 0.0, 0.3, 1.0]),
    )
    def test_tenant_stats_property(self, tenants, n, seed, nan_share):
        """Grouped stats == the mask loop, field for field. Some tenants
        get no jobs; ``nan_share`` None drops the penalty column and 1.0
        makes every penalty NaN."""
        rng = np.random.default_rng(seed)
        used = rng.permutation(tenants)[: rng.integers(1, tenants + 1)]

        def column():
            # Half the rows from a few values (ties), half wide floats.
            tied = rng.choice([0.0, 0.5, 1.0, 3600.0], n)
            return np.where(rng.random(n) < 0.5, tied, rng.random(n) * 1e6)

        penalty = None
        if nan_share is not None:
            penalty = np.where(rng.random(n) < nan_share, np.nan, column())
        result = _stats_result(
            tenant=rng.choice(used, n),
            names=tuple(f"t{i}" for i in range(tenants)),
            waits=column(),
            gpus=rng.integers(0, 17, n),
            durations=column() + 1e-3,
            trapped_core=column(),
            trapped_gpu=column(),
            penalty=penalty,
        )
        assert result.tenant_stats() == fleet_oracle.tenant_stats(result)


def _stats_result(tenant, names, waits, gpus, durations, penalty=None,
                  trapped_core=None, trapped_gpu=None):
    """A FleetResult holding just the columns ``tenant_stats`` reads."""
    n = len(tenant)
    zeros = np.zeros(n)
    jobs = FleetJobs(
        arrival_s=zeros.copy(),
        duration_s=np.asarray(durations, dtype=np.float64),
        cores=np.ones(n, dtype=np.int64),
        gpus=np.asarray(gpus, dtype=np.int64),
        tenant=np.asarray(tenant, dtype=np.int64),
        tenant_names=names,
    )
    return fleet_engine.FleetResult(
        mode="cdi", cluster=CLUSTER, jobs=jobs,
        start_s=zeros, end_s=zeros, cores_start_s=zeros,
        wait_s=np.asarray(waits, dtype=np.float64),
        trapped_core_s=np.asarray(
            trapped_core if trapped_core is not None else zeros,
            dtype=np.float64),
        trapped_gpu_s=np.asarray(
            trapped_gpu if trapped_gpu is not None else zeros,
            dtype=np.float64),
        makespan_s=0.0, core_busy_s=0.0, gpu_busy_s=0.0,
        penalty=None if penalty is None else np.asarray(
            penalty, dtype=np.float64),
    )


class TestObservability:
    def test_trace_records_one_event_per_job(self):
        jobs = fleet_jobs(80, seed=31)
        trace = Trace(name="fleet")
        result = run_fleet(jobs, CLUSTER, "cdi", trace=trace)
        assert len(trace) == len(jobs)
        events = sorted(trace, key=lambda e: (e.start, e.name))
        want = sorted(
            zip(result.start_s.tolist(), (
                f"job:{jobs.tenant_names[t]}" for t in jobs.tenant.tolist()
            ))
        )
        assert [(e.start, e.name) for e in events] == want
        assert all(e.kind is EventKind.KERNEL for e in events)

    def test_metrics_published_to_registry(self):
        jobs = fleet_jobs(60, seed=37)
        reg = MetricsRegistry()  # fresh registries are enabled
        run_fleet(jobs, CLUSTER, "cdi", registry=reg)
        doc = reg.to_doc()["fleet"]
        assert doc["runs"] == 1.0
        assert doc["jobs"] == float(len(jobs))
        assert 0.0 < doc["core_utilization"] <= 1.0

    def test_report_kind_and_meta(self):
        result = run_fleet(fleet_jobs(60, seed=41), CLUSTER, "cdi")
        rep = result.report(meta={"extra": 1})
        assert rep.kind == "fleet"
        assert rep.meta["mode"] == "cdi"
        assert rep.meta["jobs"] == 60
        assert rep.meta["extra"] == 1
        assert rep.metrics["fleet"]["jobs"] == 60.0


# ---------------------------------------------------------------------------
# Certified admission: the numpy path for uncontended chunks must give
# exactly what the pointer-FIFO drain gives, whatever the chunking.
# ---------------------------------------------------------------------------

GRID = ClusterSpec(nodes=2)  # 96 cores, 8 GPUs


def columns(arrival, duration, cores, gpus):
    n = len(arrival)
    return FleetJobs(
        np.asarray(arrival, dtype=np.float64),
        np.asarray(duration, dtype=np.float64),
        np.asarray(cores, dtype=np.int64),
        np.asarray(gpus, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        ("t",),
    )


@st.composite
def grid_streams(draw):
    """Arrivals and durations on a 10 s grid: arrivals tie, and ends land
    exactly on later arrivals (release-before-admission matters)."""
    n = draw(st.integers(min_value=1, max_value=40))
    max_cores = draw(st.sampled_from([4, 24, 96]))
    max_gpus = draw(st.sampled_from([0, 2, 8]))
    ints = lambda lo, hi: st.lists(  # noqa: E731
        st.integers(min_value=lo, max_value=hi), min_size=n, max_size=n
    )
    ticks = sorted(draw(ints(0, 30)))
    return columns(
        [10.0 * t for t in ticks],
        [10.0 * d for d in draw(ints(1, 12))],
        draw(ints(1, max_cores)),
        draw(ints(0, max_gpus)),
    )


def bursty_stream():
    """Contended bursts between idle stretches of light, spaced jobs."""
    arrival, duration, cores, gpus = [], [], [], []
    t = 0.0
    for burst in range(4):
        for k in range(12):  # light and spaced: certifiable
            arrival.append(t + 500.0 * k)
            duration.append(300.0)
            cores.append(8)
            gpus.append(k % 3)
        t += 12 * 500.0
        for k in range(20):  # one instant, far over capacity
            arrival.append(t)
            duration.append(100.0 + 10.0 * k)
            cores.append(24 + burst)
            gpus.append(k % 4)
        t += 20_000.0
    return columns(arrival, duration, cores, gpus)


class TestCertifiedAdmission:
    @settings(max_examples=60, deadline=None)
    @given(jobs=grid_streams(), chunk=st.integers(min_value=1, max_value=16))
    def test_grid_streams_match_reference(self, jobs, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_engine, "_CHUNK_JOBS", chunk)
            for mode in ("traditional", "cdi"):
                assert_fleet_parity(jobs, GRID, mode)

    @pytest.mark.parametrize("chunk", list(range(1, 17)) + [4096])
    def test_bursts_between_idle_stretches(self, monkeypatch, chunk):
        monkeypatch.setattr(fleet_engine, "_CHUNK_JOBS", chunk)
        jobs = bursty_stream()
        for mode in ("traditional", "cdi"):
            result, _ = assert_fleet_parity(jobs, GRID, mode)
            assert result.wait_s.max() > 0  # the bursts queue
            if chunk <= 12:
                # Idle stretches certify; every burst hands off.
                assert 0 < result.certified_jobs < len(jobs)
                assert result.handoffs >= 4

    @pytest.mark.parametrize("chunk", [1, 3, 16, 4096])
    def test_flap_windows_match_the_drain_alone(self, monkeypatch, chunk):
        jobs = fleet_jobs(300, seed=43, mean_gap=900.0)
        horizon = float(jobs.arrival_s.max())
        plan = FaultPlan.from_spec(";".join(
            ["seed=1"] + [
                f"flap:start={horizon * f:.0f},down={down:.0f}"
                for f, down in ((0.1, 5000.0), (0.4, 200.0), (0.7, 20000.0))
            ]
        ))
        roomy = ClusterSpec(nodes=16)
        monkeypatch.setattr(fleet_engine, "_CHUNK_JOBS", chunk)
        hybrid = run_fleet(jobs, roomy, "cdi", faults=plan)
        # The oracle: a certificate that refuses every chunk leaves the
        # whole stream to the pointer-FIFO drain.
        monkeypatch.setattr(fleet_engine, "_certify", lambda *a: False)
        drain = run_fleet(jobs, roomy, "cdi", faults=plan)
        assert drain.certified_jobs == 0 and drain.handoffs >= 1
        # Chunks away from the windows certify; one chunk holding the
        # whole stream meets a window and is refused.
        assert (hybrid.certified_jobs > 0) == (chunk < len(jobs))
        for name in ("start_s", "cores_start_s", "end_s", "trapped_core_s"):
            assert (getattr(hybrid, name) == getattr(drain, name)).all(), name
        assert (hybrid.start_s > hybrid.cores_start_s).any()  # flaps bit

    def test_uncontended_stream_is_fully_certified(self):
        jobs = fleet_jobs(200, seed=47, mean_gap=5000.0)
        for mode in ("traditional", "cdi"):
            result, _ = assert_fleet_parity(jobs, ClusterSpec(nodes=64), mode)
            assert result.certified_jobs == len(jobs)
            assert result.handoffs == 0
            assert (result.wait_s == 0).all()

    def test_congested_stream_hands_off_once(self):
        jobs = fleet_jobs(400, seed=11, mean_gap=60.0)
        result, _ = assert_fleet_parity(jobs, CLUSTER, "cdi")
        assert result.certified_jobs == 0 and result.handoffs == 1


def _spanning_reference(free, need):
    """The spanning fallback as first written: fullest racks first."""
    placements, remaining = [], need
    for rack in sorted(range(len(free)), key=lambda r: (-free[r], r)):
        if remaining == 0:
            break
        take = min(free[rack], remaining)
        if take > 0:
            free[rack] -= take
            placements.append((rack, take))
            remaining -= take
    return placements, remaining


class TestPackProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        free=st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                      max_size=24),
        need=st.integers(min_value=1, max_value=40),
    )
    def test_pack_is_brute_force_best_fit(self, free, need):
        pool = RackPool(free)
        fits = [(f, r) for r, f in enumerate(free) if f >= need]
        if fits:
            _, rack = min(fits)
            assert place_pack(pool, need, []) == [(rack, need)]
            want_free = list(free)
            want_free[rack] -= need
            assert pool_free(pool) == want_free
            return
        want_free = list(free)
        placements, remaining = _spanning_reference(want_free, need)
        if remaining:
            with pytest.raises(ValueError, match="cannot place"):
                place_pack(pool, need, [])
        else:
            assert place_pack(pool, need, []) == placements
            assert pool_free(pool) == want_free


class TestPoolProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(sorted(PLACEMENT_POLICIES)),
        free=st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                      max_size=10),
        data=st.data(),
    )
    def test_pool_equals_plain_list_oracle(self, policy, free, data):
        """Random grants and releases give the oracle's placements and
        free counts after every step."""
        place = PLACEMENT_POLICIES[policy]
        oracle = placement_oracle.PLACEMENT_POLICIES[policy]
        slack_order = data.draw(st.permutations(range(len(free))))
        pool, want = RackPool(free), list(free)
        live = []
        steps = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
            max_size=40,
        ))
        for grant, value in steps:
            if grant or not live:
                need = value % 16 + 1
                try:
                    expected = oracle(want, need, slack_order)
                except ValueError:
                    with pytest.raises(ValueError, match="cannot place"):
                        place(pool, need, slack_order)
                else:
                    assert place(pool, need, slack_order) == expected
                    live.append(expected)
            else:
                got = live.pop(value % len(live))
                pool.release(got)
                for rack, count in got:
                    want[rack] += count
            assert pool_free(pool) == want


class TestLazyRacks:
    def test_rack_lists_built_on_first_read(self):
        jobs = fleet_jobs(120, seed=53, mean_gap=60.0)
        topo = FleetTopology.uniform(4, CLUSTER.total_gpus // 4)
        result = run_fleet(jobs, CLUSTER, "cdi", topology=topo)
        assert callable(result.__dict__["_rack_of_gpus"])  # pending
        racks = result.rack_of_gpus
        assert result.rack_of_gpus is racks  # built once
        assert [bool(r) for r in racks] == (jobs.gpus > 0).tolist()
        gpu_job = int(np.flatnonzero(jobs.gpus > 0)[0])
        result.rack_of_gpus[gpu_job] = [(3, 1)]
        assert result.rack_of_gpus[gpu_job] == [(3, 1)]

    def test_given_value_kept(self):
        base = run_fleet(fleet_jobs(10, seed=59), CLUSTER, "cdi")
        assert base.rack_of_gpus is None
        racks = [[(0, 1)]] * 10
        given = dataclasses.replace(base, rack_of_gpus=racks)
        assert given.rack_of_gpus == racks
        base.rack_of_gpus = racks
        assert base.rack_of_gpus is racks
