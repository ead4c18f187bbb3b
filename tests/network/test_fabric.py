"""Unit tests for links, fabric topology, and congestion models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.network import (
    CongestionModel,
    Fabric,
    FabricSpec,
    Link,
    LinkSpec,
    NIC,
    NICSpec,
    Scale,
    latency_for_fibre_distance,
    utilization_for_inflation,
)


class TestLink:
    def test_single_message_time(self):
        env = Environment()
        spec = LinkSpec(latency_s=1e-6, bandwidth_Bps=10e9)
        link = Link(env, spec)

        def proc(env, link):
            t0 = env.now
            yield link.transmit(10_000_000)  # 1 ms serialization
            return env.now - t0

        p = env.process(proc(env, link))
        env.run()
        assert p.value == pytest.approx(1e-6 + 1e-3)
        assert link.messages_carried == 1

    def test_concurrent_messages_serialize_on_wire(self):
        env = Environment()
        spec = LinkSpec(latency_s=0.0, bandwidth_Bps=1e9)
        link = Link(env, spec)
        done = []

        def sender(env, link, name):
            yield link.transmit(1e9)  # 1 s serialization each
            done.append((name, env.now))

        env.process(sender(env, link, "a"))
        env.process(sender(env, link, "b"))
        env.run()
        times = dict(done)
        assert times["a"] == pytest.approx(1.0)
        assert times["b"] == pytest.approx(2.0)

    def test_message_time_unloaded(self):
        spec = LinkSpec(latency_s=2e-6, bandwidth_Bps=1e9)
        assert spec.message_time(1e9) == pytest.approx(1.0 + 2e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_Bps=0)
        with pytest.raises(ValueError):
            LinkSpec().message_time(-5)


class TestNIC:
    def test_injection_time(self):
        env = Environment()
        nic = NIC(env, NICSpec(processing_s=1e-6, injection_rate_Bps=1e9))

        def proc(env, nic):
            t0 = env.now
            yield nic.inject(1_000_000)
            return env.now - t0

        p = env.process(proc(env, nic))
        env.run()
        assert p.value == pytest.approx(1e-6 + 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NICSpec(processing_s=-1)


class TestFabric:
    def test_row_scale_default_builds(self):
        fabric = Fabric(FabricSpec())
        assert len(fabric.hosts()) == 8 * 4
        assert fabric.chassis() == ["chassis:0"]

    def test_same_rack_path_is_shortest(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0,)))
        same_rack = fabric.path("host:0:0", "chassis:0")
        other_rack = fabric.path("host:7:0", "chassis:0")
        assert same_rack.slack_s < other_rack.slack_s
        assert same_rack.switch_hops == 1  # just the ToR
        assert other_rack.switch_hops == 3  # ToR, row switch, ToR

    def test_slack_increases_with_distance(self):
        fabric = Fabric(FabricSpec(racks_per_row=8, chassis_racks=(0,)))
        slacks = [
            fabric.path(f"host:{r}:0", "chassis:0").slack_s for r in range(1, 8)
        ]
        assert slacks == sorted(slacks)

    def test_nearest_chassis(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0, 7)))
        near = fabric.nearest_chassis("host:7:0")
        assert near.chassis == "chassis:7"

    def test_worst_case_slack_bounded(self):
        # A single-row fabric keeps worst-case slack in the few-us
        # range, far below the 100 us tolerance the paper establishes.
        fabric = Fabric(FabricSpec())
        assert fabric.worst_case_slack() < 10e-6

    def test_multi_row_cluster_scale(self):
        fabric = Fabric(
            FabricSpec(scale=Scale.CLUSTER, rows=4, racks_per_row=8,
                       chassis_racks=(0,))
        )
        cross_row = fabric.path("host:31:0", "chassis:0")
        same_row = fabric.path("host:7:0", "chassis:0")
        assert cross_row.slack_s > same_row.slack_s
        assert cross_row.switch_hops == 5  # tor, row, core, row, tor

    def test_path_slack_model(self):
        fabric = Fabric(FabricSpec())
        info = fabric.path("host:1:0", "chassis:0")
        model = info.slack_model()
        assert model.slack_s == info.slack_s

    def test_unknown_nodes_raise(self):
        fabric = Fabric(FabricSpec())
        with pytest.raises(KeyError):
            fabric.path("host:99:0", "chassis:0")
        with pytest.raises(KeyError):
            fabric.path("host:0:0", "chassis:99")

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            FabricSpec(racks_per_row=0)
        with pytest.raises(ValueError):
            FabricSpec(chassis_racks=(99,))


class TestCongestion:
    def test_idle_fabric_no_inflation(self):
        model = CongestionModel()
        assert model.inflation_at(0.0) == pytest.approx(1.0)
        assert model.extra_slack_at(0.0) == pytest.approx(0.0)

    def test_inflation_grows_with_load(self):
        model = CongestionModel()
        assert model.inflation_at(0.5) == pytest.approx(2.0)
        assert model.inflation_at(0.9) == pytest.approx(10.0)

    def test_unstable_load_rejected(self):
        model = CongestionModel(max_utilization=0.95)
        with pytest.raises(ValueError):
            model.latency_at(0.95)
        with pytest.raises(ValueError):
            model.latency_at(-0.1)

    def test_inverse(self):
        assert utilization_for_inflation(2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            utilization_for_inflation(0.5)

    def test_sampling(self):
        model = CongestionModel(service_time_s=1e-6)
        rng = np.random.default_rng(7)
        lat = model.sample_latencies(0.5, 10_000, rng)
        assert lat.mean() == pytest.approx(2e-6, rel=0.05)
        with pytest.raises(ValueError):
            model.sample_latencies(0.5, 0, rng)


class TestFabricFailures:
    def test_tor_failure_kills_same_rack_path(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0, 4)))
        assert fabric.path_with_failures("host:7:0", "chassis:0",
                                         ["tor:0"]) is None

    def test_failover_to_another_chassis(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0, 4)))
        # chassis:0's rack switch died; chassis:4 still reachable.
        alt = fabric.path_with_failures("host:7:0", "chassis:4", ["tor:0"])
        assert alt is not None
        assert alt.slack_s < 100e-6  # still far inside tolerance

    def test_row_switch_failure_strands_cross_rack_hosts(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0,)))
        # Cross-rack host loses everything...
        assert fabric.survivable("host:7:0", ["row:0"]) == []
        # ...but the same-rack host still reaches its chassis directly.
        same_rack = fabric.survivable("host:0:0", ["row:0"])
        assert len(same_rack) == 1
        assert same_rack[0].switch_hops == 1

    def test_failed_chassis_is_unreachable(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0,)))
        assert fabric.path_with_failures("host:0:0", "chassis:0",
                                         ["chassis:0"]) is None

    def test_no_failures_matches_normal_path(self):
        fabric = Fabric(FabricSpec(chassis_racks=(0,)))
        normal = fabric.path("host:3:0", "chassis:0")
        degraded = fabric.path_with_failures("host:3:0", "chassis:0", [])
        assert degraded is not None
        assert degraded.slack_s == pytest.approx(normal.slack_s)

    def test_unknown_component_rejected(self):
        fabric = Fabric(FabricSpec())
        with pytest.raises(KeyError):
            fabric.path_with_failures("host:0:0", "chassis:0", ["nope"])


def tree_route(spec, rack_a, rack_b):
    """Closed form of the unique host:rack_a -> chassis:rack_b path.

    Returns the switches on the path, its switch hops and its cable
    length: 2 m to the tor at each end, 1.5 m x (position + 1) from
    each tor to its row switch, and 30 m from each row switch to the
    core when the racks sit in different rows.
    """
    row_a, pos_a = divmod(rack_a, spec.racks_per_row)
    row_b, pos_b = divmod(rack_b, spec.racks_per_row)
    ends = 2 * spec.intra_rack_cable_m
    if rack_a == rack_b:
        return {f"tor:{rack_a}"}, 1, ends
    same_row = ends + spec.inter_rack_cable_m * (pos_a + 1 + pos_b + 1)
    tors = {f"tor:{rack_a}", f"tor:{rack_b}"}
    if row_a == row_b:
        return tors | {f"row:{row_a}"}, 3, same_row
    rows = {f"row:{row_a}", f"row:{row_b}", "core"}
    return tors | rows, 5, same_row + 2 * spec.inter_row_cable_m


def oracle_slack(spec, hops, cable_m):
    return (
        2 * spec.nic_latency_s
        + hops * spec.switch_hop_latency_s
        + latency_for_fibre_distance(cable_m)
    )


@st.composite
def fabric_case(draw):
    racks_per_row = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    total = racks_per_row * rows
    spec = FabricSpec(
        racks_per_row=racks_per_row,
        rows=rows,
        hosts_per_rack=draw(st.integers(1, 4)),
        chassis_racks=tuple(sorted(draw(st.sets(
            st.integers(0, total - 1), min_size=1
        )))),
    )
    components = (
        ["core"]
        + [f"row:{r}" for r in range(rows)]
        + [f"tor:{r}" for r in range(total)]
        + [f"chassis:{r}" for r in spec.chassis_racks]
    )
    failed = draw(st.lists(st.sampled_from(components), unique=True,
                           max_size=4))
    rack = draw(st.integers(0, total - 1))
    host = f"host:{rack}:{draw(st.integers(0, spec.hosts_per_rack - 1))}"
    return spec, failed, rack, host


class TestFabricTreeOracle:
    @settings(max_examples=60, deadline=None)
    @given(fabric_case())
    def test_paths_match_the_closed_form(self, case):
        spec, failed, rack, host = case
        fabric = Fabric(spec)
        survivors = []
        for c in spec.chassis_racks:
            chassis = f"chassis:{c}"
            switches, hops, cable_m = tree_route(spec, rack, c)
            slack = oracle_slack(spec, hops, cable_m)
            info = fabric.path(host, chassis)
            assert (info.host, info.chassis) == (host, chassis)
            assert info.switch_hops == hops
            assert info.cable_m == pytest.approx(cable_m, rel=1e-12)
            assert info.slack_s == pytest.approx(slack, rel=1e-12)
            degraded = fabric.path_with_failures(host, chassis, failed)
            if (switches | {chassis}) & set(failed):
                assert degraded is None
            else:
                assert degraded == info
                survivors.append(info)
        assert fabric.survivable(host, failed) == sorted(
            survivors, key=lambda p: p.chassis
        )
        near = fabric.nearest_chassis(host)
        assert near.slack_s == pytest.approx(
            min(oracle_slack(spec, *tree_route(spec, rack, c)[1:])
                for c in spec.chassis_racks),
            rel=1e-12,
        )
        assert near == fabric.path(host, near.chassis)
        assert fabric.worst_case_slack() == pytest.approx(
            max(oracle_slack(spec, *tree_route(spec, r, c)[1:])
                for r in range(spec.racks_per_row * spec.rows)
                for c in spec.chassis_racks),
            rel=1e-12,
        )
