"""Network substrate: slack models, links/NICs, CDI fabric topologies.

Slack — the CPU-to-GPU latency CDI introduces — is this package's
central object. :class:`SlackModel` supplies per-call delays for
injection; :class:`Fabric` derives those delays from physical
topology; :class:`CongestionModel` relaxes the paper's no-congestion
assumption.
"""

from .._lazy import lazy_exports

__all__ = [
    "SlackModel",
    "SlackComponents",
    "slack_budget",
    "fibre_distance_for_latency",
    "latency_for_fibre_distance",
    "SPEED_OF_LIGHT_VACUUM_M_PER_S",
    "SPEED_OF_LIGHT_FIBRE_M_PER_S",
    "FIBRE_REFRACTIVE_INDEX",
    "US",
    "MS",
    "Link",
    "LinkSpec",
    "NIC",
    "NICSpec",
    "Fabric",
    "FabricSpec",
    "PathInfo",
    "Scale",
    "CongestionModel",
    "utilization_for_inflation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".slack": (
            "SlackModel",
            "SlackComponents",
            "slack_budget",
            "fibre_distance_for_latency",
            "latency_for_fibre_distance",
            "SPEED_OF_LIGHT_VACUUM_M_PER_S",
            "SPEED_OF_LIGHT_FIBRE_M_PER_S",
            "FIBRE_REFRACTIVE_INDEX",
            "US",
            "MS",
        ),
        ".link": ("Link", "LinkSpec", "NIC", "NICSpec"),
        ".fabric": ("Fabric", "FabricSpec", "PathInfo", "Scale"),
        ".congestion": ("CongestionModel", "utilization_for_inflation"),
    },
)
