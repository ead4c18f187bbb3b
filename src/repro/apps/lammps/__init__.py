"""LAMMPS (LJ benchmark, GPU package) workload model.

Analytic strong-scaling runtimes (Table I, Figure 2, the OpenMP
results) plus a traced simulation of the GPU package's per-step data
path (Figures 4-5, Table III).
"""

from ..._lazy import lazy_exports

__all__ = [
    "LJParams",
    "DEFAULT_BOX",
    "ATOMS_PER_UNIT_BOX",
    "PAPER_BOX_SIZES",
    "LammpsScalingModel",
    "SETUP_S",
    "PER_ATOM_RUN_S",
    "LammpsProfileConfig",
    "profile_lammps",
    "POSITION_BYTES_PER_ATOM",
    "FORCE_BYTES_PER_ATOM",
    "PAIR_SECONDS_PER_ATOM",
    "NEIGHBOR_EVERY",
    "BasicUnit",
    "WeakScalingProjection",
    "find_basic_unit",
    "project_weak_scaling",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".lj": (
            "LJParams",
            "DEFAULT_BOX",
            "ATOMS_PER_UNIT_BOX",
            "PAPER_BOX_SIZES",
        ),
        ".scaling": ("LammpsScalingModel", "SETUP_S", "PER_ATOM_RUN_S"),
        ".gpu_offload": (
            "LammpsProfileConfig",
            "profile_lammps",
            "POSITION_BYTES_PER_ATOM",
            "FORCE_BYTES_PER_ATOM",
            "PAIR_SECONDS_PER_ATOM",
            "NEIGHBOR_EVERY",
        ),
        ".weak_scaling": (
            "BasicUnit",
            "WeakScalingProjection",
            "find_basic_unit",
            "project_weak_scaling",
        ),
    },
)
