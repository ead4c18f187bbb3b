"""Golden parity: vectorized pipeline vs. scalar reference, byte for byte.

The PR's acceptance criterion: every figure/table artifact produced by
the vectorized pipeline (columnar traces, ``np.searchsorted`` binning,
matrix-product ``predict_sweep``) must be **byte-identical** — compared
as canonical sorted-keys JSON — to the same experiment run through the
retained scalar implementations (list-backed ``ScalarTrace`` objects,
per-value ``bin_values_reference`` loop, per-slack
``predict_sweep_reference``).
"""

import dataclasses
import json

import pytest

from repro.experiments import ExperimentContext, run_experiment
from repro.model import CDIProfiler
from ..oracles.model import bin_values_reference, predict_sweep_reference
from ..oracles.trace import ScalarTrace

#: The paper artifacts the acceptance criterion names.
GOLDEN_IDS = [
    "figure1", "figure2", "figure3", "figure4", "figure5",
    "table1", "table2", "table3", "table4",
]


def canonical(result):
    """An ExperimentResult as canonical bytes."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


@pytest.fixture(scope="module")
def golden_pair():
    """{experiment id: (vectorized json, scalar-reference json)}."""
    vec_ctx = ExperimentContext(quick=True)
    vec = {i: canonical(run_experiment(i, vec_ctx)) for i in GOLDEN_IDS}

    # A second context sharing the surface, but with every vectorized
    # layer forced back to its scalar reference: profiles carry
    # list-backed ScalarTrace objects (so Figure 4/5 analysis runs the
    # oracle's loops) and the model pipeline routes through the
    # reference implementations.
    sca_ctx = ExperimentContext(quick=True)
    sca_ctx._surface = vec_ctx.surface()
    for app in ("lammps", "cosmoflow"):
        profile = vec_ctx._profiles[app]
        sca_ctx._profiles[app] = dataclasses.replace(
            profile,
            trace=ScalarTrace(list(profile.trace), name=profile.trace.name),
        )
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr("repro.model.binning.bin_values", bin_values_reference)
        mp.setattr(
            CDIProfiler,
            "predict_sweep",
            lambda self, profile, slacks, parallelism=None: (
                predict_sweep_reference(self, profile, slacks, parallelism)
            ),
        )
        sca = {i: canonical(run_experiment(i, sca_ctx)) for i in GOLDEN_IDS}
    finally:
        mp.undo()
    return vec, sca


@pytest.mark.parametrize("experiment_id", GOLDEN_IDS)
def test_artifact_byte_identical(golden_pair, experiment_id):
    vec, sca = golden_pair
    assert vec[experiment_id] == sca[experiment_id]
