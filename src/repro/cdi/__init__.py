"""Composable Disaggregated Infrastructure: pools, composer, schedulers.

Models the resource-management side of the paper: CPU nodes and GPU
chassis as independent pools, exact-ratio composition, the
traditional-vs-CDI scheduling comparison of Section V, and the mapping
from physical placement to the slack a job experiences.
"""

from .._lazy import lazy_exports

__all__ = [
    "CPUNode",
    "GPUChassis",
    "ResourcePool",
    "Composition",
    "Composer",
    "CompositionError",
    "JobRequest",
    "JobPlacement",
    "ScheduleOutcome",
    "TraditionalScheduler",
    "CDIScheduler",
    "PlacementResolver",
    "CompositionSlack",
    "SchedulingComparison",
    "compare_schedulers",
    "discussion_example",
    "PowerModel",
    "PowerComparison",
    "compare_power",
    "SimJob",
    "ClusterSpec",
    "JobMetrics",
    "SimulationMetrics",
    "simulate_traditional",
    "simulate_cdi",
    "synthetic_job_mix",
    "compare_throughput",
    "FleetTopology",
    "PLACEMENT_POLICIES",
    "TenantSpec",
    "TenantStats",
    "FleetConfig",
    "FleetJobs",
    "FleetResult",
    "generate_fleet_jobs",
    "run_fleet",
    "assert_fleet_parity",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".resources": ("CPUNode", "GPUChassis", "ResourcePool", "Composition"),
        ".composer": ("Composer", "CompositionError"),
        ".scheduler": (
            "JobRequest",
            "JobPlacement",
            "ScheduleOutcome",
            "TraditionalScheduler",
            "CDIScheduler",
        ),
        ".placement": (
            "PlacementResolver",
            "CompositionSlack",
            "FleetTopology",
            "PLACEMENT_POLICIES",
        ),
        ".utilization": (
            "SchedulingComparison",
            "compare_schedulers",
            "discussion_example",
        ),
        ".power": ("PowerModel", "PowerComparison", "compare_power"),
        ".simulation": (
            "SimJob",
            "ClusterSpec",
            "JobMetrics",
            "SimulationMetrics",
            "simulate_traditional",
            "simulate_cdi",
            "synthetic_job_mix",
            "compare_throughput",
        ),
        ".fleet": (
            "TenantSpec",
            "TenantStats",
            "FleetConfig",
            "FleetJobs",
            "FleetResult",
            "generate_fleet_jobs",
            "run_fleet",
            "assert_fleet_parity",
        ),
    },
)
