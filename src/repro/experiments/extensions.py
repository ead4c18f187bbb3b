"""Extension experiments beyond the paper's published artifacts.

These quantify claims the paper makes in prose (Discussion, Background
and Methodology sections) that have no table or figure of their own:

* ``ext_collectives`` — GPU-to-GPU allreduce cost vs coupling
  (chassis-packed vs fabric-split), the Discussion's CosmoFlow
  argument;
* ``ext_congestion`` — how much background fabric load the 100 us
  tolerance leaves room for, relaxing the no-congestion assumption;
* ``ext_preload`` — the LD_PRELOAD shim's coverage problem: injected
  slack shortfall vs coverage fraction (why the paper built a proxy);
* ``ext_power`` — trapped-GPU idle power under traditional scheduling
  vs CDI power-down (the introduction's efficiency claim).
"""

from __future__ import annotations

import numpy as np

from ..apps.lammps.weak_scaling import find_basic_unit, project_weak_scaling
from ..cdi.power import compare_power
from ..cdi.simulation import ClusterSpec, compare_throughput, synthetic_job_mix
from ..cdi.utilization import discussion_example
from ..gpusim.multigpu import (
    CHASSIS_INTERNAL,
    CROSS_CHASSIS,
    NVLINK3,
    ring_allreduce_time,
)
from ..gpusim.preload import PreloadShim
from ..gpusim.flatcore import FlatDevice
from ..gpusim.remoting import RemotingSpec, make_remoting_device
from ..hw.specs import A100_SXM4_40GB, MiB, PCIE_GEN4_X16
from ..model.sensitivity import cap_sensitivity, ramp_sensitivity
from ..network.congestion import CongestionModel, utilization_for_inflation
from ..network.fabric import Fabric, FabricSpec
from ..network.slack import SlackModel
from ..proxy.matmul import ProxyConfig, run_proxy
from ..proxy.core import iteration_body
from .context import ExperimentContext
from .report import ExperimentResult, Series, Table

__all__ = [
    "run_collectives",
    "run_congestion",
    "run_preload",
    "run_power",
    "run_remoting",
    "run_sensitivity",
    "run_graphs",
    "run_throughput",
    "run_weak_scaling",
    "run_resilience",
]


def run_collectives(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Allreduce cost vs GPU count for three coupling tiers."""
    worlds = (2, 4, 8, 16, 24)
    buffer_bytes = 36 * MiB  # CosmoFlow-scale gradient buffer
    series = Series(
        title=f"Ring allreduce of {buffer_bytes // MiB} MiB vs world size",
        x_label="GPUs",
        y_label="allreduce time [ms]",
        x=[float(w) for w in worlds],
    )
    for link in (NVLINK3, CHASSIS_INTERNAL, CROSS_CHASSIS):
        series.add_line(
            link.name,
            [1e3 * ring_allreduce_time(buffer_bytes, w, link) for w in worlds],
        )
    series.notes.append(
        "a single chassis couples more GPUs than any node could hold; "
        "keeping a 16+-GPU collective inside one chassis avoids the "
        "cross-chassis fabric tier entirely (paper Section V)"
    )
    t_packed = ring_allreduce_time(buffer_bytes, 16, CHASSIS_INTERNAL)
    t_split = ring_allreduce_time(buffer_bytes, 16, CROSS_CHASSIS)
    return ExperimentResult(
        experiment_id="ext_collectives",
        series=[series],
        notes=[
            f"16-GPU allreduce: chassis-packed {1e3 * t_packed:.2f} ms vs "
            f"fabric-split {1e3 * t_split:.2f} ms "
            f"({t_split / t_packed:.2f}x)"
        ],
    )


def run_congestion(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Fabric-load headroom under the 100 us slack tolerance."""
    base_slack = 2.0e-6  # a row-scale worst-case path (figure1)
    tolerance = 100e-6
    model = CongestionModel(service_time_s=base_slack)
    table = Table(
        title="Slack under background fabric load (row-scale path, "
              "M/M/1 inflation)",
        headers=["utilization", "slack [us]", "within 100 us tolerance"],
    )
    for rho in (0.0, 0.5, 0.8, 0.9, 0.94):
        slack = model.latency_at(rho)
        table.add_row(rho, round(slack * 1e6, 2), slack < tolerance)
    # The load at which congestion alone exhausts the tolerance.
    inflation_limit = tolerance / base_slack
    rho_limit = utilization_for_inflation(inflation_limit)
    table.notes.append(
        f"the 100 us tolerance is only exceeded beyond "
        f"{100 * rho_limit:.1f}% sustained utilization — far past any "
        f"operable point, supporting the paper's no-congestion assumption"
    )
    return ExperimentResult(experiment_id="ext_congestion", tables=[table])


def run_preload(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """LD_PRELOAD shim coverage vs injected-slack shortfall."""
    config = ProxyConfig(matrix_size=512, iterations=50)
    slack = 1e-4
    reference = run_proxy(config, SlackModel(slack))
    table = Table(
        title="LD_PRELOAD-style interposition: coverage error "
              "(2^9 proxy, 100 us/call)",
        headers=["coverage", "injected [ms]", "shortfall [%]",
                 "observed coverage"],
    )
    for coverage in (1.0, 0.9, 0.7, 0.5):
        shim = PreloadShim(slack, coverage=coverage,
                           rng=np.random.default_rng(7))
        run = run_proxy(config, shim)
        shortfall = 1.0 - run.injected_slack_s / reference.injected_slack_s
        table.add_row(
            coverage,
            round(run.injected_slack_s * 1e3, 3),
            round(100 * shortfall, 1),
            round(shim.observed_coverage, 3),
        )
    table.notes.append(
        "statically linked call paths bypass the shim, so Equation 1's "
        "subtraction over-corrects by the shortfall — the coverage "
        "problem that made the paper reject LD_PRELOAD (Section III-B)"
    )
    return ExperimentResult(experiment_id="ext_preload", tables=[table])


def run_power(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Idle power trapped by traditional scheduling vs CDI."""
    cmp_sched = discussion_example()
    power = compare_power(cmp_sched.traditional, cmp_sched.cdi)
    table = Table(
        title="Trapped-resource idle power (Section V inventory)",
        headers=["scheduler", "trapped cores", "trapped GPUs",
                 "idle power [W]"],
    )
    table.add_row(
        "traditional",
        cmp_sched.traditional.trapped_cores,
        cmp_sched.traditional.trapped_gpus,
        round(power.traditional_w, 1),
    )
    table.add_row(
        "CDI",
        cmp_sched.cdi.trapped_cores,
        cmp_sched.cdi.trapped_gpus,
        round(power.cdi_w, 1),
    )
    return ExperimentResult(
        experiment_id="ext_power",
        tables=[table],
        notes=[
            f"CDI saves {power.saved_w:.0f} W while these jobs run "
            f"({power.saved_kwh(24):.1f} kWh/day) by powering down what "
            f"it does not allocate"
        ],
    )


def run_remoting(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """CDI (latency only) vs rCUDA-style remoting (latency + bandwidth).

    Related-work comparison: the same proxy loop behind a CDI fabric
    path and behind an API-remoting layer whose memcpys cross a
    100 Gb/s network instead of PCIe.
    """
    def loop_time(dev, n, iters=10):
        return dev.run([iteration_body(dev, n)], [0], count=iters).end_s

    rpc = 5e-6
    remoting = RemotingSpec(rpc_latency_s=rpc)
    table = Table(
        title="CDI vs API remoting (proxy loop, same 5 us per-call latency)",
        headers=["matrix", "native [s]", "CDI [s]", "remoting [s]",
                 "CDI overhead [%]", "remoting overhead [%]"],
    )
    for n in (2048, 8192):
        t_native = loop_time(FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16,
                                        SlackModel(0.0)), n)
        t_cdi = loop_time(FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16,
                                     SlackModel(rpc)), n)
        t_rem = loop_time(make_remoting_device(remoting), n)
        table.add_row(
            f"2^{n.bit_length() - 1}",
            round(t_native, 4), round(t_cdi, 4), round(t_rem, 4),
            round(100 * (t_cdi / t_native - 1), 2),
            round(100 * (t_rem / t_native - 1), 2),
        )
    table.notes.append(
        "CDI keeps the data path on PCIe and only adds latency; "
        "remoting forwards payloads over the network, so its overhead "
        "grows with transfer volume — the structural advantage of "
        "fabric-extended PCIe over RPC remoting"
    )
    return ExperimentResult(experiment_id="ext_remoting", tables=[table])


def run_sensitivity(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Sensitivity of the calibrated starvation constants.

    How the two headline anchors move when the simulator's calibrated
    constants change — the 'calibrated, not derived' caveat of
    EXPERIMENTS.md made quantitative.
    """
    ramp_table = Table(
        title="Idle-ramp fraction vs the 2^13 / 10 ms anchor (paper ~10%)",
        headers=["fraction", "penalty [%]"],
    )
    for p in ramp_sensitivity(iterations=10):
        ramp_table.add_row(p.value, round(100 * p.penalty, 2))
    ramp_table.notes.append("penalty scales ~proportionally: the paper's "
                            "anchor pins the default 0.9")

    cap_table = Table(
        title="Idle-ramp cap vs the 2^15 / 1 s immunity anchor (paper <1%)",
        headers=["cap [ms]", "penalty [%]", "anchor holds"],
    )
    for p in cap_sensitivity():
        cap_table.add_row(
            p.value * 1e3, round(100 * p.penalty, 3), p.penalty < 0.01
        )
    cap_table.notes.append("a 5x larger cap would violate the paper's "
                           "2^15 immunity observation")
    return ExperimentResult(
        experiment_id="ext_sensitivity", tables=[ramp_table, cap_table]
    )


def run_graphs(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """CUDA-Graphs batching as a slack mitigation.

    Replays the proxy iteration as one captured graph (one API call,
    one slack charge) versus five individual calls, across slack
    values — quantifying the obvious software mitigation for CDI
    deployments whose slack exceeds an application's tolerance.
    """

    def run(slack_s, use_graph, n=512, iters=50):
        dev = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, SlackModel(slack_s))
        body = iteration_body(dev, n)
        if use_graph:
            # The iteration's four device ops, captured as one graph.
            body = [dev.graph(body[:4], blocking=True)]
        return dev.run([body], [0], count=iters).end_s

    table = Table(
        title="CUDA-Graphs batching as slack mitigation (2^9 proxy loop)",
        headers=["slack [us]", "per-call overhead [%]",
                 "graph overhead [%]", "mitigation factor"],
    )
    base_calls = run(0.0, False)
    base_graph = run(0.0, True)
    for slack in (1e-5, 1e-4, 1e-3):
        over_calls = 100 * (run(slack, False) / base_calls - 1)
        over_graph = 100 * (run(slack, True) / base_graph - 1)
        table.add_row(
            slack * 1e6,
            round(over_calls, 1),
            round(over_graph, 1),
            round(over_calls / over_graph, 2) if over_graph > 0 else float("inf"),
        )
    table.notes.append(
        "one cudaGraphLaunch replaces the loop's five API calls: total "
        "slack exposure (direct + starvation gaps) drops ~5x — the "
        "software mitigation a slack-intolerant workload would adopt "
        "before rejecting CDI"
    )
    return ExperimentResult(experiment_id="ext_graphs", tables=[table])


def run_throughput(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Fleet-level throughput: a job stream under both disciplines.

    The introduction's claim that CDI "can lead to increased system
    efficiency for job throughput and time to solution", measured on a
    synthetic stream of the paper's three workload archetypes.
    """
    jobs = synthetic_job_mix(120, np.random.default_rng(7))
    trad, cdi = compare_throughput(jobs, ClusterSpec())
    table = Table(
        title="Job-stream scheduling: 120 mixed jobs on 16 nodes "
              "(48 cores + 4 GPUs each)",
        headers=["discipline", "makespan [h]", "mean wait [min]",
                 "core util", "GPU util", "trapped GPU-h"],
    )
    for label, m in (("traditional", trad), ("CDI", cdi)):
        table.add_row(
            label,
            round(m.makespan_s / 3600, 1),
            round(m.mean_wait_s / 60, 1),
            round(m.core_utilization, 3),
            round(m.gpu_utilization, 3),
            round(m.trapped_gpu_hours, 1),
        )
    speedup = trad.makespan_s / cdi.makespan_s
    return ExperimentResult(
        experiment_id="ext_throughput",
        tables=[table],
        notes=[
            f"CDI finishes the same stream {speedup:.2f}x sooner with "
            f"{trad.mean_wait_s / max(cdi.mean_wait_s, 1):.1f}x shorter "
            f"queues and zero trapped GPU-hours — the introduction's "
            f"throughput claim, quantified"
        ],
    )


def run_weak_scaling(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Weak-scaling projection from the strong-scaling basic unit.

    Section III-B's promise: the single-GPU ratio study "can inform
    weak scaling for large scale production applications". We find the
    best cores-per-GPU unit for LJ box 120 and replicate it across GPU
    counts under CDI (exact units) vs traditional nodes (12 cores/GPU).
    """
    unit = find_basic_unit(120)
    table = Table(
        title=f"LAMMPS weak scaling from the basic unit "
              f"({unit.cores} cores : 1 GPU, box 120 per GPU)",
        headers=["GPUs", "atoms [M]", "CDI cores", "trad cores",
                 "CDI [s]", "trad [s]", "CDI advantage",
                 "fabric slack [us]"],
    )
    for p in project_weak_scaling(unit, slack_penalty_per_second=10.0):
        table.add_row(
            p.gpus,
            round(p.total_atoms / 1e6, 1),
            p.cdi_cores,
            p.traditional_cores,
            round(p.cdi_runtime_s, 1),
            round(p.traditional_runtime_s, 1),
            round(p.cdi_advantage, 2),
            round(p.slack_s * 1e6, 2),
        )
    table.notes.append(
        "CDI grants each GPU the unit's full core complement (a whole "
        "CPU node per pair of GPUs); the fabric slack this costs stays "
        "in the microseconds — orders of magnitude inside the tolerance"
    )
    return ExperimentResult(experiment_id="ext_weak_scaling", tables=[table])


def run_resilience(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Fabric-failure resilience: slack and reachability degraded.

    The paper's future work asks what CDI characteristics beyond
    compute may bottleneck applications; operability under component
    failure is the first one a deployer meets. We fail each fabric
    component class in a two-chassis row and report the surviving
    placements and their slack.
    """
    fabric = Fabric(FabricSpec(racks_per_row=8, chassis_racks=(0, 4)))
    host = "host:7:0"
    table = Table(
        title="Row-scale fabric failures seen from host:7:0 "
              "(chassis in racks 0 and 4)",
        headers=["failed component", "reachable chassis",
                 "best slack [us]", "within tolerance"],
    )
    scenarios = [
        ("none", []),
        ("chassis rack's ToR (tor:0)", ["tor:0"]),
        ("one chassis (chassis:0)", ["chassis:0"]),
        ("the row switch (row:0)", ["row:0"]),
    ]
    for label, failed in scenarios:
        surviving = fabric.survivable(host, failed)
        best = min((p.slack_s for p in surviving), default=None)
        table.add_row(
            label,
            len(surviving),
            round(best * 1e6, 3) if best is not None else "-",
            best is not None and best < 100e-6,
        )
    table.notes.append(
        "chassis redundancy keeps placements alive through ToR and "
        "chassis failures at unchanged slack; the single row switch is "
        "the SPOF for cross-rack hosts — a redundancy requirement for "
        "production row-scale CDI, not a slack problem"
    )
    return ExperimentResult(experiment_id="ext_resilience", tables=[table])
