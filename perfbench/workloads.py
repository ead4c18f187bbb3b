"""The four benchmark workloads.

Every sample runs in a fresh interpreter (perfbench/child.py) through
three phases:

* ``setup()`` -- what a user of the command pays before the work
  starts: imports, context construction, stream generation, the
  surface load and the surrogate fit. Timed from interpreter start as
  ``setup_s``.
* ``prepare()`` -- harness-only and untimed: seeded inputs, parity
  checks, expected answers, warm-up.
* ``run_pass()`` -- one timed unit of work, checked afterwards.

The package is imported inside ``setup()``, so its import time counts
as set-up and span wrappers installed before it are the names every
call site sees. Nothing here imports the package at module level.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List

__all__ = [
    "PROBE_NOMINAL_S",
    "PROBE_PIECES",
    "PassResult",
    "Workload",
    "WORKLOAD_NAMES",
    "make_workload",
    "probe_s",
]

REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

#: A row-scale cluster: 2560 nodes (48 cores, 4 GPUs each) whose 10240
#: GPUs sit in 40 racks. Rack slack runs 2 us .. 21.5 us, inside the
#: quick surface's 1 us .. 10 ms domain, so a refusal is a real error.
FLEET_NODES = 2560
FLEET_RACKS = 40
#: (name, jobs per second, CPU-heavy share, GPU-heavy share). About
#: 150k jobs arrive in the week. They keep ~75% of the nodes busy under
#: whole-node scheduling and ~56% of the cores under CDI, so neither
#: discipline builds a backlog (README.md gives the measured waits and
#: utilisation).
FLEET_TENANTS = (
    ("batch", 0.13, 0.10, 0.05),
    ("hpc", 0.07, 0.10, 0.05),
    ("ml", 0.05, 0.05, 0.10),
)
FLEET_HORIZON_S = 7 * 24 * 3600.0
#: Penalties are read for this matrix size, on one thread.
FLEET_PENALTY_SIZE = 2048
#: Jobs of the stream checked bit-for-bit against the scalar DES: on the
#: row-scale cluster, which they reach empty, and on one of
#: FLEET_CONGESTED_NODES nodes, where both disciplines queue.
FLEET_PARITY_JOBS = 3000
FLEET_CONGESTED_NODES = 160

SERVE_QUERIES = 200_000
SERVE_CLIENTS = 64
#: Requests per latency window (in submission order): p99 has 20
#: samples beyond it, and a pass gives a hundred windows. The machine
#: the benchmark shares switches between a fast and a ~1.8x slower
#: phase every few hundred ms; a window this short (~30 rounds of the
#: 64 clients, tens of ms) often falls wholly inside one phase, as a
#: probe piece does. 20k-request windows mixed the phases, and their
#: fastest p99 spread 14-27% between runs.
SERVE_WINDOW = 2_000
#: Queries that must be refused, split between an unknown series and
#: slack above the measured grid.
SERVE_REFUSAL_SHARE = 0.01
SERVE_UNKNOWN_SIZE = 1024  # not on the quick grid
#: Untimed queries that bring a fresh process's service up to speed
#: (a long-lived service pays this once, not per query).
SERVE_WARMUP_QUERIES = 50_000

#: Timings are reported as if the fastest speed probe of their run
#: took this long: a fixed scale, so only the ratio counts.
PROBE_NOMINAL_S = 0.05
#: Identical pieces of one speed probe, each timed on its own.
PROBE_PIECES = 8


def probe_s() -> List[float]:
    """Seconds each of ``PROBE_PIECES`` identical pieces of work takes now.

    The machine the benchmark shares runs slower for seconds to minutes
    at a time, and a run can fall wholly inside such a phase. Timings
    are divided by the fastest probe of their run, so the phase cancels
    out. Each piece is some interpreter and numpy work of a few ms:
    the whole probe (the sum of its pieces) scales timings of long
    operations, the fastest piece those of the short serve windows. It
    holds under 2 MB at once, too little to move ``peak_rss_mb``.
    """
    import numpy as np

    times = []
    for _ in range(PROBE_PIECES):
        t0 = perf_counter()
        values = np.random.default_rng(0).random(50_000)
        order = np.argsort(values)
        items = values[order[:12_500]].tolist()
        table = {i: x for i, x in enumerate(items)}
        total = 0.0
        for x in items:
            total += table[int(x * 12_499)]
        times.append(perf_counter() - t0)
    return times


@dataclass
class PassResult:
    """One timed pass and its checked outcome."""

    wall_s: float
    #: Operations counted by ``throughput_per_s``.
    work: int
    attempted: int
    failed: int = 0
    #: Correct answers that are refusals by design (``error_rate``).
    refused: int = 0
    #: Latency of each named operation of the pass (experiments,
    #: fleet modes); ``latency_p99_ms`` is taken over these.
    ops: Dict[str, float] = field(default_factory=dict)
    #: Per-request latency median and p99 of each window of
    #: ``SERVE_WINDOW`` consecutive requests (request workloads).
    window_medians_s: List[float] = field(default_factory=list)
    window_p99s_s: List[float] = field(default_factory=list)
    #: Requests per second of each window: its requests over the time
    #: from its first submission to its last answer.
    window_rates: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Base: one workload's phases plus what the parent needs to know."""

    name = ""
    #: Each pass needs a fresh interpreter: memos and loaded caches are
    #: state a fresh command does not have. (Forking after set-up was
    #: tried: copy-on-write faults made passes ~25% slower and noisier.)
    one_pass = False
    #: ``latency_ms`` is the per-request median, not the pass wall.
    per_request = False
    #: Needs a copy of the pre-filled cache (else an empty one).
    needs_prefill = True
    #: Timed passes in every run: the timings are minima over them.
    passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Operations checked during ``prepare()`` (parity checks).
        self.prep_attempted = 0
        self.prep_failed = 0
        self.prep_problems: List[str] = []
        #: Values of the last pass the traced run reports.
        self.extras: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def digest(self) -> str:
        """Digest of the outputs; equal across passes of one seed."""
        return ""


class Reproduce(Workload):
    """``rowscale-cdi all --workers 1`` (quick): all 23 experiments.

    The command has no input to vary, so the seed changes nothing.
    """

    one_pass = True

    def __init__(self, seed: int, cold: bool) -> None:
        super().__init__(seed)
        self.name = "reproduce-cold" if cold else "reproduce-warm"
        self.needs_prefill = not cold
        self.passes = 3 if cold else 4
        self.digests: Dict[str, str] = {}

    def setup(self) -> None:
        from repro.experiments import (
            ExperimentContext,
            experiment_ids,
            run_experiment,
        )

        self.run_experiment = run_experiment
        self.ids = experiment_ids()
        self.ctx = ExperimentContext(quick=True, workers=1)

    def prepare(self) -> None:
        self.reference = json.loads(REFERENCE_DIGESTS.read_text())

    def run_pass(self) -> PassResult:
        texts: Dict[str, str] = {}
        walls: Dict[str, float] = {}
        problems: List[str] = []
        t_pass = perf_counter()
        for eid in self.ids:
            t0 = perf_counter()
            try:
                texts[eid] = self.run_experiment(eid, self.ctx).render()
            except Exception:
                # A raising experiment is one failed operation; the
                # rest of the pass still runs and is still checked.
                problems.append(f"{eid} raised:\n{traceback.format_exc()}")
            walls[eid] = perf_counter() - t0
        wall = perf_counter() - t_pass
        failed = len(problems)
        for eid, text in texts.items():
            digest = _sha256(text.encode())
            self.digests[eid] = digest
            if digest != self.reference.get(eid):
                failed += 1
                problems.append(
                    f"{eid}: output digest {digest[:16]} differs from "
                    f"the reference"
                )
        n = len(self.ids)
        return PassResult(wall, n, n, failed, ops=walls, problems=problems)

    def digest(self) -> str:
        return _sha256(json.dumps(self.digests, sort_keys=True).encode())


class FleetWeek(Workload):
    """One simulated week on a row-scale cluster, both disciplines.

    CDI runs with pack placement over racks and per-job penalties
    through the quick surface's surrogate; traditional is whole-node
    scheduling. The seed draws the job stream.
    """

    name = "fleet-week"
    passes = 9

    def setup(self) -> None:
        from repro.cdi import (
            ClusterSpec,
            FleetConfig,
            FleetTopology,
            TenantSpec,
            generate_fleet_jobs,
            run_fleet,
        )
        from repro.experiments import ExperimentContext

        self.run_fleet = run_fleet
        self.cluster = ClusterSpec(nodes=FLEET_NODES)
        config = FleetConfig(
            cluster=self.cluster,
            tenants=tuple(
                TenantSpec(name, rate, cpu_heavy_share=cpu, gpu_heavy_share=gpu)
                for name, rate, cpu, gpu in FLEET_TENANTS
            ),
            horizon_s=FLEET_HORIZON_S,
            seed=self.seed,
        )
        self.jobs = generate_fleet_jobs(config)
        self.topology = FleetTopology.uniform(
            FLEET_RACKS, self.cluster.total_gpus // FLEET_RACKS
        )
        self.ctx = ExperimentContext(quick=True, workers=1)
        self.surrogate = self.ctx.surrogate()

    def prepare(self) -> None:
        import numpy as np
        from repro.cdi import ClusterSpec, FleetJobs, assert_fleet_parity

        import fleetcheck

        jobs = self.jobs
        head = slice(0, FLEET_PARITY_JOBS)
        prefix = FleetJobs(
            arrival_s=jobs.arrival_s[head],
            duration_s=jobs.duration_s[head],
            cores=jobs.cores[head],
            gpus=jobs.gpus[head],
            tenant=jobs.tenant[head],
            tenant_names=jobs.tenant_names,
        )
        for cluster in (self.cluster, ClusterSpec(nodes=FLEET_CONGESTED_NODES)):
            for mode in ("cdi", "traditional"):
                self.prep_attempted += len(prefix)
                try:
                    assert_fleet_parity(prefix, cluster, mode)
                except AssertionError as exc:
                    self.prep_failed += len(prefix)
                    self.prep_problems.append(
                        f"{mode} parity on {cluster.nodes} nodes: {exc}"
                    )

        # The whole week once, untimed, against references that share
        # no code with the engine; every timed pass must reproduce it.
        cdi, trad, _walls = self._simulate()
        bad = np.zeros(len(jobs), dtype=bool)
        for mask, problems in (
            fleetcheck.schedule_problems(cdi),
            fleetcheck.schedule_problems(trad),
            fleetcheck.placement_problems(cdi, self.topology),
            fleetcheck.penalty_problems(
                cdi, self.ctx.surface(), FLEET_PENALTY_SIZE, 1
            ),
        ):
            bad |= mask
            self.prep_problems += problems
        self.prep_attempted += len(jobs)
        self.prep_failed += int(bad.sum())
        self.reference = self._columns(cdi, trad)

    def _simulate(self):
        """One simulation pass: both results and each mode's wall time."""
        t0 = perf_counter()
        cdi = self.run_fleet(
            self.jobs,
            self.cluster,
            "cdi",
            placement="pack",
            topology=self.topology,
            surrogate=self.surrogate,
            penalty_matrix_size=FLEET_PENALTY_SIZE,
        )
        cdi.tenant_stats()
        t1 = perf_counter()
        trad = self.run_fleet(self.jobs, self.cluster, "traditional")
        trad.tenant_stats()
        t2 = perf_counter()
        return cdi, trad, {"cdi": t1 - t0, "traditional": t2 - t1}

    @staticmethod
    def _columns(cdi, trad):
        """The per-job outputs a pass is compared on, one row each."""
        import numpy as np

        return np.stack([
            cdi.wait_s, cdi.start_s, cdi.trapped_core_s, cdi.slack_s,
            cdi.penalty, trad.wait_s, trad.start_s, trad.trapped_core_s,
            trad.trapped_gpu_s,
        ])

    def run_pass(self) -> PassResult:
        import numpy as np

        cdi, trad, walls = self._simulate()
        columns = self._columns(cdi, trad)
        same = (columns == self.reference) | (
            np.isnan(columns) & np.isnan(self.reference)
        )
        differ = ~same.all(axis=0)
        problems = []
        if differ.any():
            problems.append(
                f"{int(differ.sum())} jobs differ from the checked run"
            )
        n = len(self.jobs)
        return PassResult(
            sum(walls.values()), 2 * n, n, int(differ.sum()),
            ops=walls, problems=problems,
        )

    def digest(self) -> str:
        return _sha256(self.reference.tobytes())


class ServeClosed(Workload):
    """A closed loop of 64 clients awaiting ``PenaltyService.predict``.

    Each client sends its next query only after the previous answer,
    as the scheduler and the CLI ``serve`` loop do. The seed draws
    200k queries over the quick surface's series; a fixed 1% must be
    refused with their seeded reason.
    """

    name = "serve-closed"
    per_request = True
    passes = 6

    def setup(self) -> None:
        from repro.experiments import ExperimentContext
        from repro.serve import (
            PenaltyService,
            ServiceOverloadedError,
            SurrogateDomainError,
        )

        self.service_type = PenaltyService
        self.errors = (SurrogateDomainError, ServiceOverloadedError)
        self.ctx = ExperimentContext(quick=True, workers=1)
        self.model = self.ctx.surrogate()

    def prepare(self) -> None:
        import numpy as np
        from repro.serve import assert_parity

        try:
            self.prep_attempted += assert_parity(self.model, self.ctx.surface())
        except AssertionError as exc:
            self.prep_attempted += 1
            self.prep_failed += 1
            self.prep_problems.append(f"surrogate parity: {exc}")

        n = SERVE_QUERIES
        rng = np.random.default_rng([self.seed, 7])
        keys = [
            k for k in self.model.series_keys
            if self.model.series_points(*k) >= 2
        ]
        pick = rng.integers(len(keys), size=n)
        sizes = np.array([k[0] for k in keys])[pick]
        threads = np.array([k[1] for k in keys])[pick]
        slacks = 10.0 ** rng.uniform(-6.0, -2.0, n)
        refused = rng.choice(n, size=int(n * SERVE_REFUSAL_SHARE), replace=False)
        unknown, above = refused[0::2], refused[1::2]
        sizes[unknown] = SERVE_UNKNOWN_SIZE
        slacks[above] = 10.0 ** rng.uniform(-1.5, -1.0, len(above))
        expected = [None] * n
        for i in unknown.tolist():
            expected[i] = "unknown-series"
        for i in above.tolist():
            expected[i] = "above-grid"

        pen, _bound, reason = self.model.evaluate(sizes, threads, slacks)
        names = [self.model.reason_name(r) for r in reason.tolist()]
        if names != expected:
            raise RuntimeError("seeded refusals do not match the surrogate")
        self.expected_reason = expected
        self.expected_penalty = np.where(np.isnan(pen), 0.0, pen)
        self.queries = list(zip(sizes.tolist(), slacks.tolist(), threads.tolist()))
        self._closed_loop(self.queries[:SERVE_WARMUP_QUERIES])

    def _closed_loop(self, queries):
        import asyncio

        n = len(queries)
        # Doubles, not float objects: 200k of those would move the
        # peak RSS by ~6 MB.
        sent = array("d", bytes(8 * n))
        latency = [0.0] * n
        answer = [0.0] * n
        reason: List[object] = [None] * n
        errors = self.errors

        async def main():
            async with self.service_type(surrogate=self.model) as svc:
                predict = svc.predict

                async def client(first: int) -> None:
                    for i in range(first, n, SERVE_CLIENTS):
                        size, slack, threads = queries[i]
                        t0 = perf_counter()
                        try:
                            answer[i] = (await predict(size, slack, threads))[0]
                        except errors as exc:
                            reason[i] = getattr(exc, "reason", "overloaded")
                        latency[i] = perf_counter() - t0
                        sent[i] = t0

                t0 = perf_counter()
                await asyncio.gather(
                    *(client(c) for c in range(SERVE_CLIENTS))
                )
                wall = perf_counter() - t0
            return wall, svc.stats()

        wall, stats = asyncio.run(main())
        return wall, sent, latency, answer, reason, stats

    def run_pass(self) -> PassResult:
        import numpy as np

        wall, sent, latency, answer, reason, stats = self._closed_loop(
            self.queries
        )
        n = len(self.queries)
        wrong_reason = sum(
            1 for got, want in zip(reason, self.expected_reason) if got != want
        )
        wrong_answer = int(
            (np.asarray(answer) != self.expected_penalty).sum()
        )
        problems = []
        if wrong_reason:
            problems.append(f"{wrong_reason} queries refused wrongly or not at all")
        if wrong_answer:
            problems.append(f"{wrong_answer} answers differ from the surrogate")
        self.extras = {
            "serve.batches": stats["batches"],
            "serve.requests": stats["requests"],
            "serve.refused": stats["refused"],
            "serve.queue_high_water": stats["queue_high_water"],
            "serve.pass_wall_s": wall,
        }
        self.answers = _sha256(
            np.asarray(answer).tobytes() + repr(reason).encode()
        )
        windows = np.asarray(latency).reshape(-1, SERVE_WINDOW)
        starts = np.asarray(sent).reshape(-1, SERVE_WINDOW)
        spans = (starts + windows).max(axis=1) - starts.min(axis=1)
        return PassResult(
            wall, n, n, min(n, wrong_reason + wrong_answer),
            refused=sum(r is not None for r in reason),
            window_medians_s=[float(np.median(w)) for w in windows],
            window_p99s_s=[float(np.percentile(w, 99)) for w in windows],
            window_rates=(SERVE_WINDOW / spans).tolist(),
            problems=problems,
        )

    def digest(self) -> str:
        return getattr(self, "answers", "")


WORKLOAD_NAMES = ("reproduce-cold", "reproduce-warm", "fleet-week", "serve-closed")


def make_workload(name: str, seed: int) -> Workload:
    """The workload called ``name`` with inputs drawn from ``seed``."""
    if name == "reproduce-cold":
        return Reproduce(seed, cold=True)
    if name == "reproduce-warm":
        return Reproduce(seed, cold=False)
    if name == "fleet-week":
        return FleetWeek(seed)
    if name == "serve-closed":
        return ServeClosed(seed)
    raise ValueError(
        f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}"
    )
