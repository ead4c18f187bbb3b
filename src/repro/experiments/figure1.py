"""Figure 1: traditional vs CDI CPU-to-GPU path decomposition.

The paper's Figure 1 is an illustration; we reproduce it as data — the
latency components of one CPU-to-GPU command on a traditional node
versus over a row-scale CDI fabric, at several deployment scales.
"""

from __future__ import annotations

from ..hw.specs import PCIE_GEN4_X16
from ..network.fabric import Fabric, FabricSpec, Scale
from ..network.slack import SlackComponents, fibre_distance_for_latency
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Quantify Figure 1's slack annotation per deployment scale."""
    table = Table(
        title="Figure 1: CPU-to-GPU one-way path components [us]",
        headers=["deployment", "PCIe [us]", "NICs [us]", "switches [us]",
                 "fibre [us]", "slack [us]", "cable [m]"],
    )
    pcie_us = PCIE_GEN4_X16.latency_s * 1e6

    table.add_row("traditional node", round(pcie_us, 3), 0, 0, 0, 0, 0)

    scenarios = [
        ("rack-scale CDI", FabricSpec(scale=Scale.RACK, racks_per_row=1,
                                      chassis_racks=(0,))),
        ("row-scale CDI", FabricSpec(scale=Scale.ROW, racks_per_row=8,
                                     chassis_racks=(0,))),
        ("cluster-scale CDI", FabricSpec(scale=Scale.CLUSTER, rows=4,
                                         racks_per_row=8, chassis_racks=(0,))),
    ]
    for name, spec in scenarios:
        fabric = Fabric(spec)
        # Worst-case host for this scale.
        worst = max(
            (fabric.path(h, c) for h in fabric.hosts() for c in fabric.chassis()),
            key=lambda p: p.slack_s,
        )
        nic_us = 2 * spec.nic_latency_s * 1e6
        sw_us = worst.switch_hops * spec.switch_hop_latency_s * 1e6
        fibre_us = (worst.slack_s * 1e6) - nic_us - sw_us
        table.add_row(
            name, round(pcie_us, 3), round(nic_us, 3), round(sw_us, 3),
            round(fibre_us, 4), round(worst.slack_s * 1e6, 3),
            round(worst.cable_m, 1),
        )

    km20 = SlackComponents(cable_m=20_000).total() * 1e6
    table.notes.append(
        f"20 km of fibre alone costs "
        f"{fibre_distance_for_latency(100e-6) / 1e3:.0f} km / 100 us "
        f"(one-way); with NICs and 2 switch hops: {km20:.1f} us"
    )
    return ExperimentResult(experiment_id="figure1", tables=[table])
