"""The repository benchmark: run one workload, print one JSON line.

From the repository root::

    python3 perfbench/run.py --workload reproduce-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload fleet-week --seed 1 --trace 1
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --record-digests          # re-record outputs

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it list every metric with its unit.
perfbench/README.md describes the workloads and every metric.

Every sample is a fresh interpreter (perfbench/child.py) with its own
``REPRO_CACHE_DIR`` under ``.perfbench-work/`` in the checkout, which
is the only place the benchmark writes. The repository's own
``.cache/`` and ``BENCH_*.json`` are fingerprinted before and after,
and any change to them fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
from workloads import (
    PROBE_NOMINAL_S,
    PROBE_PIECES,
    REFERENCE_DIGESTS,
    WORKLOAD_NAMES,
    make_workload,
)

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK_DIR = ".perfbench-work"

#: Fresh interpreters whose set-up times ``setup_s`` is the median of,
#: at least.
MIN_SETUP_SAMPLES = 5
#: Untraced and traced samples each in a traced run: fresh interpreters
#: of one pass for a ``one_pass`` workload, else one of several passes.
TRACE_REPS_ONE_PASS = 2
TRACE_PASSES = 2
#: Every sample of one run must start within this many seconds.
RUN_BUDGET_S = 150.0
#: Building the pre-filled cache: one cold ``all`` pass.
PREFILL_BUDGET_S = 600.0

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def repo_fingerprint(root: Path) -> List[tuple]:
    """What the benchmark must never touch: ``.cache/`` and BENCH files."""
    entries: List[tuple] = []
    cache = root / ".cache"
    if cache.exists():
        for path in sorted(cache.rglob("*")):
            st = path.stat()
            entries.append((str(path), st.st_size, st.st_mtime_ns))
    for path in sorted(root.glob("BENCH_*.json")):
        entries.append((str(path), _files_digest([path])))
    return entries


def _child_env(root: Path, cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache)
    # One dict and set layout for every sample: hash randomisation
    # otherwise moves timings between interpreters.
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    """Spawns the samples of one run and owns its scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.name = workload
        self.seed = seed
        self.workload = make_workload(workload, seed)
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work))
        self.prefill: Optional[Path] = None
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def ensure_prefill(self) -> Path:
        """The pre-filled cache: one cold ``all --workers 1`` pass.

        It depends only on the package, so it lives across runs under a
        digest of the package sources; building it is harness
        preparation and never timed.
        """
        sources = sorted((self.root / "src").rglob("*.py"))
        final = self.work / f"prefill-{_files_digest(sources)[:16]}"
        if (final / "DONE").exists():
            return final
        for stale in self.work.glob("prefill-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = self.work / f"prefill-tmp-{os.getpid()}"
        tmp.mkdir()
        cmd = [sys.executable, "-m", "repro.cli", "all", "--workers", "1"]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=_child_env(self.root, tmp),
                stdout=subprocess.DEVNULL, timeout=PREFILL_BUDGET_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("building the pre-filled cache timed out") from None
        if proc.returncode != 0:
            raise BenchError(
                f"building the pre-filled cache exited with {proc.returncode}"
            )
        (tmp / "DONE").write_text("one cold quick all pass\n")
        os.replace(tmp, final)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        return final

    def spawn(self, mode: str, passes: int = 1) -> dict:
        """One sample of this run's workload, with a fresh cache dir."""
        self.count += 1
        out = self.run_dir / f"sample-{self.count}.json"
        cache = self.run_dir / f"cache-{self.count}"
        if self.prefill is not None:
            shutil.copytree(self.prefill, cache)
        else:
            cache.mkdir()
        cmd = [
            sys.executable, str(CHILD), "--workload", self.name,
            "--seed", str(self.seed), "--mode", mode,
            "--passes", str(passes), "--out", str(out),
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before a {mode} sample")
        env = _child_env(self.root, cache)
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=env, stdout=sys.stderr,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name} {mode} sample timed out") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{self.name} {mode} sample exited with {proc.returncode}"
            )
        shutil.rmtree(cache, ignore_errors=True)
        return json.loads(out.read_text())


def _passes(samples: List[dict]) -> List[dict]:
    return [p for s in samples for p in s["passes"]]


def _timings(workload, samples: List[dict]) -> Dict[str, float]:
    """The timing metrics of the samples' passes, in seconds.

    Every pass of a run does the same work, so the differences between
    passes come from outside the program (other tenants of the
    machine), which only ever adds time: each timing is the least
    disturbed one the run saw. For a request workload that is the
    fastest of the windows of ``SERVE_WINDOW`` requests, the median,
    p99 and rate each taken on its own. Otherwise it is each named
    operation's fastest time, summed into a pass. The number of passes
    is fixed per workload, so a slower run does not get fewer chances
    at a fast one.

    Every time is then scaled by ``PROBE_NOMINAL_S`` over the fastest
    speed probe of the run: the least disturbed timings against the
    least disturbed machine speed. A serve window lasts tens of ms, so
    it is set against the fastest single piece of a probe (a few ms,
    times ``PROBE_PIECES``): a whole probe rarely falls inside one fast
    phase of the machine, and scaling the windows by it tripled their
    spread between runs.
    """
    passes = _passes(samples)
    probes = [probe for p in passes for probe in p["probes_s"]]
    if workload.per_request:
        k = PROBE_NOMINAL_S / (PROBE_PIECES * min(map(min, probes)))
        return {
            "latency": k * min(m for p in passes for m in p["window_medians_s"]),
            "p99": k * min(q for p in passes for q in p["window_p99s_s"]),
            "throughput": max(r for p in passes for r in p["window_rates"]) / k,
        }
    k = PROBE_NOMINAL_S / min(map(sum, probes))
    best = [k * min(p["ops"][op] for p in passes) for op in passes[0]["ops"]]
    return {
        "latency": sum(best),
        # numpy's "linear" percentile over the operations
        "p99": statistics.quantiles(best, n=100, method="inclusive")[98],
        "throughput": passes[0]["work"] / sum(best),
    }


def end_to_end(
    workload, samples: List[dict], setups: List[float]
) -> Dict[str, float]:
    """The end-to-end metrics; set-up time and memory are medians."""
    t = _timings(workload, samples)
    return {
        "latency_ms": 1e3 * t["latency"],
        "latency_p99_ms": 1e3 * t["p99"],
        "throughput_per_s": t["throughput"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
    }


def per_layer(workload, base: List[dict], traced: List[dict], prof: dict):
    """The per-layer metrics and the span-coverage problems."""
    passes = _passes(traced)
    raw = layers.combine(
        [s["setup_raw"] for s in traced], [p["raw"] for p in passes]
    )
    values = layers.derive(raw)
    values["unattributed_s"] = statistics.fmean(
        p["unattributed_s"] for p in passes
    )
    values["trace_overhead_pct"] = 100.0 * (
        _timings(workload, traced)["latency"]
        / _timings(workload, base)["latency"]
        - 1.0
    )
    values["cprofile_max_dev_pct"] = prof["passes"][0]["cprofile_max_dev_pct"]
    ordered = {name: values[name] for name, _unit in layers.PER_LAYER}
    return ordered, layers.coverage_problems(workload.name, raw)


def run_workload(
    root: Path, name: str, seed: int, seconds: float, trace: bool
) -> Tuple[dict, float]:
    """Measure one workload; returns the result document and error rate."""
    bench = Bench(root, name, seed)
    before = repo_fingerprint(root)
    problems: List[str] = []
    try:
        wl = bench.workload
        if wl.needs_prefill:
            bench.prefill = bench.ensure_prefill()
        bench.spawn("setup")  # untimed warm-up: bytecode, page cache
        start = time.monotonic()
        if trace:
            if wl.one_pass:
                reps, passes = TRACE_REPS_ONE_PASS, 1
            else:
                reps, passes = 1, TRACE_PASSES
            base = [bench.spawn("time", passes) for _ in range(reps)]
            traced = [bench.spawn("trace", passes) for _ in range(reps)]
            prof = bench.spawn("cprofile")
            samples = base + traced + [prof]
            values, problems = per_layer(wl, base, traced, prof)
            units = dict(layers.PER_LAYER)
        else:
            # The workload's own number of passes, each a fresh
            # interpreter for a ``one_pass`` workload; time left before
            # ``seconds`` only adds set-up samples.
            if wl.one_pass:
                samples = [bench.spawn("time") for _ in range(wl.passes)]
            else:
                samples = [bench.spawn("time", wl.passes)]
            setups = [s["setup_s"] for s in samples]
            while (
                len(setups) < MIN_SETUP_SAMPLES
                or time.monotonic() - start < seconds
            ):
                setups.append(bench.spawn("setup")["setup_s"])
            values = end_to_end(wl, samples, setups)
            units = END_TO_END_UNITS
    finally:
        bench.close()

    passes = _passes(samples)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    error_rate = (failed + refused) / attempted
    attempted += sum(s["prep_attempted"] for s in samples)
    failed += sum(s["prep_failed"] for s in samples)
    problems += [msg for s in samples for msg in s["prep_problems"]]
    problems += [msg for p in passes for msg in p["problems"]]
    differ = [p for p in passes if p["digest"] != passes[0]["digest"]]
    if differ:
        failed += sum(p["attempted"] for p in differ)
        problems.append(f"{len(differ)} passes' outputs differ from the first")
    if repo_fingerprint(root) != before:
        problems.append("the repository's .cache/ or BENCH_*.json changed")
    for problem in problems:
        print(f"[{name}] {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }, error_rate


def record_digests(root: Path) -> None:
    """Re-record the per-experiment output digests from a cold pass.

    The pass is the reproduce-cold workload's own, so one function
    defines the digests that are recorded and those that are checked.
    """
    cache = Path(tempfile.mkdtemp(prefix="digests-", dir=root / WORK_DIR))
    try:
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        sys.path.insert(0, str(root / "src"))
        workload = make_workload("reproduce-cold", 1)
        workload.setup()
        workload.reference = {}
        result = workload.run_pass()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if len(workload.digests) != result.attempted:
        raise BenchError("an experiment raised; no digests written")
    REFERENCE_DIGESTS.write_text(
        json.dumps(workload.digests, indent=1) + "\n"
    )
    print(f"{len(workload.digests)} digests written to {REFERENCE_DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES + ("all",), default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "run from the root of a repository checkout: "
            "src/repro is missing",
            file=sys.stderr,
        )
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        if args.record_digests:
            record_digests(root)
            return 0
        for name in names:
            results[name] = run_workload(
                root, name, args.seed, args.seconds, bool(args.trace)
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, (result, error_rate) in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<36} {m['value']:>16.6g} {m['unit']}")
        if not args.trace:
            print(f"{name:<16} {'error_rate':<36} {error_rate:>16.6g} 1")
    docs = {name: result for name, (result, _rate) in results.items()}
    if len(docs) == 1:
        print(json.dumps(docs[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in docs.values()),
            "attempted": sum(r["attempted"] for r in docs.values()),
            "failed": sum(r["failed"] for r in docs.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in docs.items()
                for metric, m in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
