"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_ids


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == experiment_ids()


class TestSlack:
    def test_conversion(self, capsys):
        assert main(["slack", "100e-6"]) == 0
        out = capsys.readouterr().out
        km = float(out.split("=")[1].split("km")[0])
        assert km == pytest.approx(20.0, rel=0.01)

    def test_negative_rejected(self, capsys):
        assert main(["slack", "-1"]) == 2


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert "[table1:" in captured.err

    def test_stdout_is_reproducible(self, capsys):
        # Timings go to stderr, so two runs print the same bytes.
        assert main(["run", "table1"]) == 0
        first = capsys.readouterr().out
        assert "[table1:" not in first
        assert main(["run", "table1"]) == 0
        assert capsys.readouterr().out == first

    def test_multiple_experiments(self, capsys):
        assert main(["run", "table1", "discussion"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Section V" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err


class TestProfile:
    def test_profile_lammps(self, capsys):
        assert main(["profile", "lammps", "--slack", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "lammps" in out
        assert "queue parallelism 8" in out
        assert "100.0" in out

    def test_profile_trace_export(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["profile", "cosmoflow", "--slack", "1e-6",
                     "--trace-out", str(path)]) == 0
        assert path.exists()
        from repro.trace import from_json

        trace = from_json(path)
        assert len(trace.kernels()) > 0

    def test_negative_slack_rejected(self, capsys):
        assert main(["profile", "lammps", "--slack", "-1"]) == 2

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "unknown-app"])


class TestSweep:
    def test_custom_grid(self, capsys):
        assert main(["sweep", "--matrix", "512", "--slack", "1e-4",
                     "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "512" in out
        assert "1 thread(s)" in out

    def test_oom_grid_reports_and_fails(self, capsys):
        code = main(["sweep", "--matrix", "32768", "--threads", "8",
                     "--slack", "1e-6", "--iterations", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "skipped" in captured.err


class TestParallelFlags:
    def test_sweep_accepts_workers_and_no_cache(self, capsys):
        assert main(["sweep", "--matrix", "512", "--slack", "1e-4",
                     "--iterations", "5", "--workers", "2",
                     "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "512" in captured.out
        assert "grid points" in captured.err  # timing line

    def test_sweep_rejects_negative_workers(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--matrix", "512", "--slack", "1e-4",
                  "--iterations", "5", "--workers", "-1"])

    def test_run_accepts_workers_flag(self, capsys):
        assert main(["run", "table1", "--workers", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_workers_zero_means_all_cores(self):
        args = build_parser().parse_args(["sweep", "--workers", "0"])
        from repro.cli import _resolve_workers
        import os
        assert _resolve_workers(args) == (os.cpu_count() or 1)


class TestShardFlags:
    """sweep --shard / --merge-shards / --shard-workers (scale-out)."""

    WORKER = ["sweep", "--matrix", "512", "--slack", "1e-4",
              "--iterations", "3", "--no-cache"]

    def test_shard_worker_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "shard.npz"
        assert main([*self.WORKER, "--shard", "0/1",
                     "--shard-out", str(out)]) == 0
        err = capsys.readouterr().err
        assert out.exists()
        assert "[shard 0/1: 2 of 2 grid points" in err

    def test_merge_shards_prints_surface(self, tmp_path, capsys):
        out = tmp_path / "shard.npz"
        main([*self.WORKER, "--shard", "0/1", "--shard-out", str(out)])
        capsys.readouterr()
        assert main(["sweep", "--merge-shards", str(out)]) == 0
        captured = capsys.readouterr()
        assert "[merged 1 shard(s): 2 grid points" in captured.err
        assert "512" in captured.out
        assert "1 thread(s)" in captured.out

    def test_merge_rejects_gapped_set(self, tmp_path, capsys):
        # For this grid the hash partition assigns every task to shard
        # 0 of 2, so the shard-1 artifact alone cannot tile the grid.
        out = tmp_path / "shard.npz"
        main([*self.WORKER, "--shard", "1/2", "--shard-out", str(out)])
        capsys.readouterr()
        assert main(["sweep", "--merge-shards", str(out)]) == 2
        assert "cannot merge shards" in capsys.readouterr().err

    def test_adaptive_sharding_refused(self, tmp_path, capsys):
        assert main([*self.WORKER, "--adaptive", "--shard", "0/2",
                     "--shard-out", str(tmp_path / "s.npz")]) == 2
        assert "sharding unsupported" in capsys.readouterr().err

    def test_adaptive_shard_workers_refused(self, capsys):
        assert main([*self.WORKER, "--adaptive",
                     "--shard-workers", "2"]) == 2
        assert "sharding unsupported" in capsys.readouterr().err

    def test_tol_without_adaptive_refused(self, capsys):
        assert main([*self.WORKER, "--tol", "0.5"]) == 2
        assert "tol is only meaningful with adaptive" in (
            capsys.readouterr().err
        )

    def test_shard_requires_shard_out(self, capsys):
        assert main([*self.WORKER, "--shard", "0/2"]) == 2
        assert "--shard-out" in capsys.readouterr().err

    def test_shard_out_requires_shard(self, tmp_path, capsys):
        assert main([*self.WORKER,
                     "--shard-out", str(tmp_path / "s.npz")]) == 2
        assert "requires --shard" in capsys.readouterr().err

    def test_shard_and_merge_mutually_exclusive(self, tmp_path, capsys):
        assert main([*self.WORKER, "--shard", "0/2",
                     "--shard-out", str(tmp_path / "s.npz"),
                     "--merge-shards", str(tmp_path / "s.npz")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_malformed_shard_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([*self.WORKER, "--shard", "zero-of-two",
                  "--shard-out", str(tmp_path / "s.npz")])

    def test_invalid_shard_index_rejected(self, tmp_path, capsys):
        assert main([*self.WORKER, "--shard", "5/2",
                     "--shard-out", str(tmp_path / "s.npz")]) == 2
        assert "cannot run shard" in capsys.readouterr().err

    def test_shard_metrics_out_reports_shard_kind(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        assert main([*self.WORKER, "--shard", "0/1",
                     "--shard-out", str(tmp_path / "s.npz"),
                     "--metrics-out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "sweep-shard"
        assert doc["meta"]["shard"] == {"index": 0, "count": 1}

    def test_shard_workers_runs_and_merges(self, capsys):
        assert main([*self.WORKER, "--shard-workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "[2 shard worker(s): coordinator wall" in captured.err
        assert "512" in captured.out


class TestMetrics:
    def test_sweep_metrics_out_writes_runreport(self, tmp_path, capsys):
        import json

        from repro.obs import RunReport, metrics_enabled

        out = tmp_path / "report.json"
        assert main(["sweep", "--matrix", "512", "--slack", "1e-4",
                     "--iterations", "5", "--no-cache",
                     "--metrics-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"metrics report written to {out}" in captured.err
        # --metrics-out enables collection only for the invocation.
        assert not metrics_enabled()

        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["kind"] == "sweep"
        for section in ("des", "gpu", "fabric", "executor", "sweep"):
            assert section in doc["metrics"], section
        report = RunReport.from_json(out)
        assert report.value("sweep.points") == 1

    def test_run_metrics_out_writes_runreport(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["run", "discussion", "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "run"
        assert doc["meta"]["experiments"] == ["discussion"]

    def test_metrics_renders_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["sweep", "--matrix", "512", "--slack", "1e-4",
                     "--iterations", "5", "--no-cache",
                     "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "RunReport kind=sweep" in rendered
        assert "[des]" in rendered

    def test_metrics_rejects_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        assert main(["metrics", str(bad)]) == 2
        assert "cannot read report" in capsys.readouterr().err


class TestPredictAndServe:
    """The serving subcommands (see docs/serving.md)."""

    def test_predict_on_grid(self, capsys):
        assert main(["predict", "512", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "penalty" in out and "error bound" in out

    def test_predict_out_of_domain_refuses(self, capsys):
        assert main(["predict", "999", "1e-5"]) == 1
        err = capsys.readouterr().err
        assert "refused (unknown-series)" in err
        assert "--cold" in err  # the hint names the way out

    def test_predict_negative_slack_refuses(self, capsys):
        assert main(["predict", "512", "--", "-1e-5"]) == 1
        assert "negative-slack" in capsys.readouterr().err

    def test_serve_loop(self, tmp_path, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        report = tmp_path / "serve.json"
        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("512 1e-5\n999 1e-5\nbogus line\n")
        )
        assert main(["serve", "--metrics-out", str(report)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert any(l.startswith("penalty=") for l in lines)
        assert "refused (unknown-series)" in lines
        assert "cannot parse query" in captured.err
        assert "[served 2 request(s): 1 warm, 0 cold, 1 refused]" in (
            captured.err
        )
        doc = json.loads(report.read_text())
        assert doc["kind"] == "serve"
        assert doc["meta"]["surrogate_method"] == "loglinear"


def test_main_freezes_start_up_objects():
    # In a fresh interpreter: the test process's own collector state
    # must not leak into the check. A second call freezes nothing more
    # (frozen objects that die still leave the permanent generation).
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import gc, io, contextlib\n"
        "from repro.cli import main\n"
        "assert gc.get_freeze_count() == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['list'])\n"
        "    first = gc.get_freeze_count()\n"
        "    main(['list'])\n"
        "assert gc.get_freeze_count() <= first\n"
        "print(first)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [_sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert int(out) > 0
