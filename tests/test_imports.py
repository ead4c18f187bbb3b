"""Start-up imports only what the command uses.

``scipy.stats``, ``scipy.interpolate`` and ``networkx`` cost over a
second of import time together, and no default command needs them.
Each check runs in a fresh interpreter and inspects ``sys.modules``,
so it does not depend on the speed of the machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "scipy.stats", "scipy.interpolate", "networkx")

ENTRY_POINTS = {
    "cli-list": 'from repro.cli import main; main(["list"])',
    "experiment-context": (
        "from repro.experiments import ExperimentContext\n"
        "ExperimentContext(quick=True, workers=1)"
    ),
}


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_no_heavy_module_at_start_up(code, tmp_path):
    probe = (
        f"{code}\nimport sys\n"
        f"print('loaded:', [m for m in {HEAVY!r} if m in sys.modules])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "loaded: []"
