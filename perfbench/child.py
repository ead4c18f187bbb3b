"""One benchmark sample: a fresh interpreter that sets a workload up,
times it and writes what it measured as JSON.

Started by perfbench/run.py, which sets ``PERFBENCH_SPAWN`` to its
``time.monotonic()`` just before starting this process (the clock is
shared between processes), so ``setup_s`` counts interpreter start-up
too::

    python3 perfbench/child.py --workload NAME --seed N --mode MODE \\
        --passes K --out PATH

Modes:

* ``setup`` -- set up, report the set-up time, exit (also the untimed
  warm-up that compiles bytecode and fills the page cache);
* ``time`` -- set up, prepare, then run ``--passes`` passes;
* ``trace`` -- the same with span wrappers and the obs registry on;
  each pass also reports its per-layer quantities;
* ``cprofile`` -- one traced pass under cProfile, with each span's
  inclusive time checked against cProfile's ``cumtime``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import make_workload, probe_s

#: cProfile cross-check tolerance: 5% of ``cumtime`` plus 20 us per
#: call for the profiler hooks that land inside a span.
CPROFILE_REL_TOL = 0.05
CPROFILE_PER_CALL_S = 20e-6
#: Speed probes after every pass; the parent scales the run's timings
#: by the fastest of them.
PROBES_PER_PASS = 3


class Sampler:
    """Runs and reports the passes of one sample."""

    def __init__(self, workload, mode: str) -> None:
        self.workload = workload
        self.mode = mode
        self.traced = mode in ("trace", "cprofile")
        if self.traced:
            import layers
            from repro.obs import enable_metrics
            from spans import SpanRecorder

            self.layers = layers
            self.registry = enable_metrics()
            self.recorder = SpanRecorder()
            layers.install(self.recorder)

    def raw(self) -> dict:
        """Per-layer quantities recorded since the last reset."""
        raw = self.layers.raw_values(self.recorder, self.registry, self.workload)
        self.recorder.reset()
        self.registry.clear()
        return raw

    def one_pass(self) -> dict:
        """Run one pass here and describe it as JSON-able data."""
        profiler = None
        if self.mode == "cprofile":
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        p = self.workload.run_pass()
        if profiler is not None:
            profiler.disable()
        doc = {
            "wall_s": p.wall_s,
            "work": p.work,
            "attempted": p.attempted,
            "failed": p.failed,
            "refused": p.refused,
            "ops": p.ops,
            "window_medians_s": p.window_medians_s,
            "window_p99s_s": p.window_p99s_s,
            "window_rates": p.window_rates,
            "problems": p.problems,
            "digest": self.workload.digest(),
        }
        if profiler is not None:
            import pstats

            from spans import cprofile_crosscheck

            worst, problems = cprofile_crosscheck(
                self.recorder,
                pstats.Stats(profiler),
                rel_tol=CPROFILE_REL_TOL,
                per_call_s=CPROFILE_PER_CALL_S,
            )
            doc["cprofile_max_dev_pct"] = 100.0 * worst
            doc["problems"] += [f"cProfile cross-check: {p}" for p in problems]
        if self.traced:
            doc["raw"] = self.raw()
            doc["unattributed_s"] = p.wall_s - doc["raw"]["spans.self_s"]
        return doc

    def run(self, passes: int) -> list:
        if self.traced:
            self.raw()  # drop what prepare() recorded
        done = []
        while len(done) < passes:
            doc = self.one_pass()
            if not done:
                # The peak of set-up plus one pass, before any probe:
                # what a process doing the work once needs.
                self.peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0
                )
            doc["probes_s"] = [probe_s() for _ in range(PROBES_PER_PASS)]
            done.append(doc)
        return done


def main(argv=None) -> int:
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "time", "trace", "cprofile")
    )
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    sampler = Sampler(workload, args.mode)
    workload.setup()
    out = {"setup_s": time.monotonic() - spawned}
    if args.mode != "setup":
        if sampler.traced:
            out["setup_raw"] = sampler.raw()
        workload.prepare()
        passes = sampler.run(args.passes)
        out.update(
            passes=passes,
            prep_attempted=workload.prep_attempted,
            prep_failed=workload.prep_failed,
            prep_problems=workload.prep_problems,
            peak_rss_mb=sampler.peak_rss_mb,
        )
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
