"""Per-table/figure experiment runners (see DESIGN.md's index).

Every table and figure of the paper's evaluation has a runner here;
``run_experiment(id)`` regenerates its rows/series from the simulator.
"""

from .._lazy import lazy_exports

__all__ = [
    "ExperimentContext",
    "default_cache_dir",
    "ExperimentResult",
    "Table",
    "Series",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "run_all",
    "results_to_markdown",
    "write_markdown_report",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".context": ("ExperimentContext", "default_cache_dir"),
        ".report": ("ExperimentResult", "Table", "Series"),
        ".runner": (
            "EXPERIMENTS",
            "experiment_ids",
            "run_experiment",
            "run_all",
        ),
        ".export": ("results_to_markdown", "write_markdown_report"),
    },
)
