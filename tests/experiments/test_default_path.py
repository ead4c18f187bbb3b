"""The default path: quick ``rowscale-cdi all`` end to end.

Two guards on the command a reproduction runs, with a cold and then a
warm cache:

* it builds exactly two DES ``Environment``s, both in
  ``cdi/simulation.py``. Those are ``ext_throughput``'s:
  ``simulate_traditional``/``simulate_cdi`` are the oracle the fleet
  engine's parity check (``assert_fleet_parity``) runs against, so
  they stay on the DES. Everything else (the proxy loop, calibration,
  the remoting and CUDA-Graphs comparisons, the app profiles) runs on
  the index cores;
* every experiment's rendered output has the sha256 recorded in
  ``perfbench/reference_digests.json`` (read here, never written), and
  the warm pass prints what the cold pass printed.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro import cli
from repro.des import core
from repro.experiments import runner

REFERENCE_DIGESTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "reference_digests.json"
)


def test_quick_all_builds_two_environments_and_reference_outputs(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reference = json.loads(REFERENCE_DIGESTS.read_text())
    built = []
    init = core.Environment.__init__

    def counting_init(self, *args, **kwargs):
        built.append(Path(sys._getframe(1).f_code.co_filename).as_posix())
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.Environment, "__init__", counting_init)
    digests = {}
    run_experiment = runner.run_experiment

    def recording(eid, ctx):
        result = run_experiment(eid, ctx)
        digests[eid] = hashlib.sha256(result.render().encode()).hexdigest()
        return result

    # The CLI imports the runner's function when the command runs.
    monkeypatch.setattr(runner, "run_experiment", recording)
    stdouts = []
    for _ in ("cold", "warm"):
        built.clear()
        digests.clear()
        assert cli.main(["all", "--workers", "1"]) == 0
        stdouts.append(capsys.readouterr().out)
        assert len(built) == 2
        assert all(f.endswith("repro/cdi/simulation.py") for f in built)
        assert digests == reference
    assert stdouts[0] == stdouts[1]
