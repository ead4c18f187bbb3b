"""Fleet-scale CDI simulation: millions of jobs on pool-scale pools.

The generator DES in :mod:`repro.cdi.simulation` spawns one Python
process per job, so a million-job fleet run is tens of millions of
heap events through the interpreter. This module replaces the per-job
generators with an index-based event core over numpy job-state columns
(arrival / duration / cores / gpus / tenant):

* Jobs sorted by ``(arrival, submission index)`` collapse both
  resource FIFOs to *pointers* into one index array — the cores (or
  nodes) queue is the sorted order itself, and the GPU queue is the
  ``gpus > 0`` subsequence of it, admissible once cores are granted.
  That is exactly the order the reference DES enqueues waiters in, so
  head-of-line semantics carry over by construction.
* A binary heap of ``(end_time, job)`` tracks completions; each
  decision point applies every completion at that instant and then
  runs a *batched admission scan*: static integer prefix sums over
  the sorted demand columns turn "admit every satisfiable queued job"
  into two bisections plus a slice, instead of one DES grant cascade
  per job.
* Uncontended stretches skip the heap altogether: a chunk of whole
  arrival timestamps that provably never exceeds either pool when every
  job starts at its arrival is admitted in numpy (one sort and one
  ``cumsum`` per pool); any other chunk hands off to the heap drain.

The scalar twins :func:`repro.cdi.simulation.simulate_traditional` /
:func:`simulate_cdi` are retained as references, and
:func:`assert_fleet_parity` proves per-job **bit-parity** (wait /
start / end, cores-grant time, trapped core- and GPU-seconds) on any
shared configuration — the repo's parity-before-speedup convention
(see ``benchmarks/bench_fleet.py``).

Beyond raw scheduling the fleet layer adds what a datacenter study
needs: seeded tick-quantized Poisson multi-tenant arrivals (the
determinism discipline of :mod:`repro.apps.inference.arrivals`),
placement policies (pack / spread / locality via
:mod:`repro.cdi.placement`) mapping GPU grants to racks and fabric
slack, penalty distributions through the serving-layer surrogate,
optional :class:`~repro.faults.FaultPlan` link-flap windows that
freeze composition (GPU admission) fleet-wide, job events recorded
into the columnar trace store, and a ``fleet``-kind
:class:`~repro.obs.RunReport`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..des import TICK_S
from ..faults import FaultPlan
from ..obs import MetricsRegistry, RunReport, get_registry
from ..obs.publish import publish_fleet
from .placement import PLACEMENT_POLICIES, FleetTopology
from .simulation import (
    ClusterSpec,
    SimJob,
    SimulationMetrics,
    simulate_cdi,
    simulate_traditional,
)

__all__ = [
    "TenantSpec",
    "FleetConfig",
    "FleetJobs",
    "TenantStats",
    "FleetResult",
    "generate_fleet_jobs",
    "run_fleet",
    "assert_fleet_parity",
]

_TICKS_PER_S = 1.0 / TICK_S
_INF = float("inf")


def _quantize_array(seconds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.des.quantize` (same rounding, same bits)."""
    return np.floor(seconds * _TICKS_PER_S + 0.5) * TICK_S


# ---------------------------------------------------------------------------
# Multi-tenant synthetic streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process and workload mix.

    Jobs follow the three paper archetypes of
    :func:`repro.cdi.simulation.synthetic_job_mix`: CPU-heavy
    (LAMMPS-like), GPU-heavy (CosmoFlow-like) and CPU-only, with the
    shares configurable per tenant (the remainder is CPU-only).
    """

    name: str
    rate_per_s: float
    cpu_heavy_share: float = 0.40
    gpu_heavy_share: float = 0.35

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.cpu_heavy_share < 0 or self.gpu_heavy_share < 0:
            raise ValueError("archetype shares must be non-negative")
        if self.cpu_heavy_share + self.gpu_heavy_share > 1.0:
            raise ValueError("archetype shares must sum to <= 1")


@dataclass(frozen=True)
class FleetConfig:
    """A seeded fleet scenario: cluster, tenants, horizon.

    Generation is a pure function of this config —
    :func:`generate_fleet_jobs` draws every tenant from its own
    ``default_rng([seed, tenant_index])`` stream and tick-quantizes
    arrivals, so two calls are bit-identical and tenants can be
    added/removed without perturbing each other's jobs.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    tenants: Tuple[TenantSpec, ...] = (
        TenantSpec(name="batch", rate_per_s=1.0 / 900.0),
        TenantSpec(name="interactive", rate_per_s=1.0 / 1800.0),
    )
    horizon_s: float = 7 * 24 * 3600.0
    seed: int = 2024
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("at least one tenant required")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError("max_jobs must be positive")


@dataclass
class FleetJobs:
    """The columnar job stream: one numpy row per job, input order."""

    arrival_s: np.ndarray
    duration_s: np.ndarray
    cores: np.ndarray
    gpus: np.ndarray
    tenant: np.ndarray
    tenant_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.arrival_s)
        for col in (self.duration_s, self.cores, self.gpus, self.tenant):
            if len(col) != n:
                raise ValueError("job columns must align")
        if n:
            if not (
                np.isfinite(self.arrival_s).all()
                and np.isfinite(self.duration_s).all()
            ):
                raise ValueError("invalid job timing")
            if float(self.arrival_s.min()) < 0:
                raise ValueError("invalid job timing")
            if float(self.duration_s.min()) <= 0:
                raise ValueError("invalid job timing")
            if int(self.cores.min()) <= 0 or int(self.gpus.min()) < 0:
                raise ValueError("invalid job resources")
            if int(self.tenant.min()) < 0 or int(self.tenant.max()) >= len(
                self.tenant_names
            ):
                raise ValueError("tenant index out of range")

    def __len__(self) -> int:
        return len(self.arrival_s)

    @classmethod
    def from_sim_jobs(cls, jobs: Sequence[SimJob]) -> "FleetJobs":
        """Wrap a :class:`SimJob` stream (tenant = name prefix)."""
        names: List[str] = []
        index: Dict[str, int] = {}
        tenant = np.empty(len(jobs), dtype=np.int64)
        for i, job in enumerate(jobs):
            prefix = job.name.rsplit("-", 1)[0]
            t = index.get(prefix)
            if t is None:
                t = index[prefix] = len(names)
                names.append(prefix)
            tenant[i] = t
        return cls(
            arrival_s=np.array([j.arrival_s for j in jobs], dtype=np.float64),
            duration_s=np.array([j.duration_s for j in jobs], dtype=np.float64),
            cores=np.array([j.cores for j in jobs], dtype=np.int64),
            gpus=np.array([j.gpus for j in jobs], dtype=np.int64),
            tenant=tenant,
            tenant_names=tuple(names),
        )

    def to_sim_jobs(self) -> List[SimJob]:
        """Materialize :class:`SimJob` objects for the reference DES."""
        arrival = self.arrival_s.tolist()
        duration = self.duration_s.tolist()
        cores = self.cores.tolist()
        gpus = self.gpus.tolist()
        tenant = self.tenant.tolist()
        return [
            SimJob(
                name=f"{self.tenant_names[tenant[i]]}-{i}",
                arrival_s=arrival[i],
                duration_s=duration[i],
                cores=cores[i],
                gpus=gpus[i],
            )
            for i in range(len(arrival))
        ]


def generate_fleet_jobs(config: FleetConfig) -> FleetJobs:
    """Draw the multi-tenant stream described by ``config``.

    Per tenant: Poisson (exponential-gap) arrivals over the horizon,
    tick-quantized; archetype picked per job from the tenant's shares;
    sizes and log-normal durations as in ``synthetic_job_mix``. The
    merged stream is ordered by ``(arrival, tenant index, intra-tenant
    index)`` — a deterministic total order.
    """
    cluster = config.cluster
    if cluster.total_gpus == 0 and any(
        t.cpu_heavy_share + t.gpu_heavy_share > 0 for t in config.tenants
    ):
        raise ValueError("GPU archetypes need a cluster with GPUs")
    gpu_hi = min(16, cluster.total_gpus)

    arrivals: List[np.ndarray] = []
    durations: List[np.ndarray] = []
    cores_l: List[np.ndarray] = []
    gpus_l: List[np.ndarray] = []
    tenant_l: List[np.ndarray] = []
    for tidx, tenant in enumerate(config.tenants):
        rng = np.random.default_rng([config.seed, tidx])
        mean_gap = 1.0 / tenant.rate_per_s
        gaps = rng.exponential(mean_gap, size=max(
            16, int(config.horizon_s * tenant.rate_per_s * 1.25) + 16
        ))
        t = np.cumsum(gaps)
        while t[-1] <= config.horizon_s:
            more = rng.exponential(mean_gap, size=len(gaps))
            t = np.concatenate([t, t[-1] + np.cumsum(more)])
        t = _quantize_array(t[t <= config.horizon_s])
        n = len(t)
        if n == 0:
            continue
        u = rng.random(n)
        cpu_heavy = u < tenant.cpu_heavy_share
        gpu_heavy = ~cpu_heavy & (
            u < tenant.cpu_heavy_share + tenant.gpu_heavy_share
        )
        # Draw all three archetypes' shapes for every job, then select:
        # the per-job consumption of the rng stream stays fixed, so the
        # shares reshuffle jobs between archetypes without reshuffling
        # the underlying draws.
        ch_cores = rng.integers(2, 5, size=n) * cluster.cores_per_node // 2
        ch_gpus = rng.integers(1, 3, size=n)
        gh_gpus = (
            rng.integers(4, gpu_hi + 1, size=n)
            if gpu_hi >= 4
            else rng.integers(1, max(2, gpu_hi + 1), size=n)
        )
        gh_cores = np.maximum(2, gh_gpus // 2)
        co_cores = rng.integers(1, 3, size=n) * cluster.cores_per_node
        log_mean = np.where(
            cpu_heavy,
            np.log(7200.0),
            np.where(gpu_heavy, np.log(10800.0), np.log(3600.0)),
        )
        dur = rng.lognormal(mean=0.0, sigma=0.4, size=n) * np.exp(log_mean)
        cores = np.where(cpu_heavy, ch_cores, np.where(gpu_heavy, gh_cores, co_cores))
        gpus = np.where(cpu_heavy, ch_gpus, np.where(gpu_heavy, gh_gpus, 0))
        cores = np.minimum(cores, cluster.total_cores).astype(np.int64)
        gpus = np.minimum(gpus, cluster.total_gpus).astype(np.int64)

        arrivals.append(t)
        durations.append(dur)
        cores_l.append(cores)
        gpus_l.append(gpus)
        tenant_l.append(np.full(n, tidx, dtype=np.int64))

    if not arrivals:
        raise ValueError("horizon too short: no jobs generated")
    arrival = np.concatenate(arrivals)
    tenant = np.concatenate(tenant_l)
    intra = np.concatenate([np.arange(len(a)) for a in arrivals])
    order = np.lexsort((intra, tenant, arrival))
    jobs = FleetJobs(
        arrival_s=arrival[order],
        duration_s=np.concatenate(durations)[order],
        cores=np.concatenate(cores_l)[order],
        gpus=np.concatenate(gpus_l)[order],
        tenant=tenant[order],
        tenant_names=tuple(t.name for t in config.tenants),
    )
    if config.max_jobs is not None and len(jobs) > config.max_jobs:
        sl = slice(0, config.max_jobs)
        jobs = FleetJobs(
            arrival_s=jobs.arrival_s[sl],
            duration_s=jobs.duration_s[sl],
            cores=jobs.cores[sl],
            gpus=jobs.gpus[sl],
            tenant=jobs.tenant[sl],
            tenant_names=jobs.tenant_names,
        )
    return jobs


# ---------------------------------------------------------------------------
# The index-based event core
# ---------------------------------------------------------------------------


def _flap_windows(faults: Optional[FaultPlan]) -> List[Tuple[float, float]]:
    if faults is None or faults.is_empty:
        return []
    faults.validate()
    return sorted(
        (e.start_s, e.start_s + e.down_s)
        for e in faults.events
        if e.kind == "flap"
    )


#: Jobs per certified-admission chunk. A chunk is extended to the end of
#: its last arrival timestamp, so it always holds whole timestamp groups.
_CHUNK_JOBS = 4096


def _certify(
    lo: int,
    hi: int,
    arr: np.ndarray,
    end: np.ndarray,
    amt: np.ndarray,
    gamt: np.ndarray,
    cap: int,
    gcap: int,
    run: np.ndarray,
    run_end: np.ndarray,
    freeze: List[Tuple[float, float]],
) -> bool:
    """Whether every job of ``[lo, hi)`` may start at its arrival.

    ``run`` holds the jobs still running when the chunk begins (both
    queues empty), ``run_end`` their end times. Each chunk job is
    admitted at its arrival on top of them, releases at an instant
    applied before admissions at it, and the check is that neither pool
    ever exceeds its capacity. If it holds, the FIFO drain admits every
    job at its arrival too, by induction over the sorted order: the
    queue ahead of each job is empty and its demand fits. One sort of
    the end times and one ``cumsum`` per pool decide it.
    """
    first = arr[lo]
    last = arr[hi - 1]
    for w_start, w_end in freeze:
        if w_start <= last and w_end > first:
            return False  # a flap window may hold back a GPU admission
    arr_c = arr[lo:hi]
    end_c = end[lo:hi]
    if not (end_c > arr_c).all():
        return False  # a job would release before its own admission
    idx = np.concatenate((run, np.arange(lo, hi)))
    ends = np.concatenate((run_end, end_c))
    by_end = np.argsort(ends)
    released_upto = np.searchsorted(ends[by_end], arr_c, side="right")
    for demand, capacity in ((amt, cap), (gamt, gcap)):
        chunk = demand[lo:hi]
        if not chunk.any():
            continue
        held = demand[run].sum()
        released = np.concatenate(([0], np.cumsum(demand[idx[by_end]])))
        usage = held + np.cumsum(chunk) - released[released_upto]
        if int(usage.max()) > capacity:
            return False
    return True


def _drain(
    lists: Tuple[list, ...],
    grant: List[float],
    start: List[float],
    heap: List[Tuple[float, int]],
    level: int,
    glevel: int,
    p: int,
    q: int,
    now: float,
    freeze: List[Tuple[float, float]],
    stop: int,
) -> Tuple[int, float]:
    """Run the pointer-FIFO drain from a seeded state.

    ``heap`` holds ``(end_time, job)`` for every running job plus
    ``(window_end, -1)`` thaw decision points; ``level``/``glevel``
    are the free primary/GPU capacity, ``p``/``q`` the queue heads.
    Runs until the primary queue has passed ``stop`` and both queues
    are empty at a decision point, then returns ``(p, now)``;
    ``heap`` is left holding the running set. ``grant``/``start`` are
    written for every job admitted on the way.

    The drain reproduces the reference DES exactly: completions at a
    timestamp apply before admissions, both queues are head-of-line
    FIFO in ``(arrival, submission)`` order, and every satisfiable
    queued job is admitted per decision point (the DES grant cascade
    is confluent, so batch order does not change the outcome).
    Static integer prefix sums (``csum`` over primary demand, ``gsum``
    over the GPU subsequence) make the batch capacity bisections exact.
    """
    arr, dur, amt, gamt, csum, gpu_idx, gsum = lists
    n = len(arr)
    m = len(gpu_idx)
    push = heapq.heappush
    pop = heapq.heappop
    w = 0  # first freeze window not yet ended
    n_freeze = len(freeze)

    while p < n or q < m:
        # -- admission drain at `now` ------------------------------------
        # Scalar fast path first: most decision points free just enough
        # for the queue head, so admit it without the batch machinery,
        # then fall into the bisection scan only when a second job is
        # also admissible (bursts, backlog drains, thaws).
        if p < n and arr[p] <= now and amt[p] <= level:
            level -= amt[p]
            grant[p] = now
            if gamt[p] == 0:
                start[p] = now
                push(heap, (now + dur[p], p))
            p += 1
            if p < n and arr[p] <= now and amt[p] <= level:
                hi = bisect_right(arr, now, p)
                hi_cap = bisect_right(csum, csum[p] + level) - 1
                j = hi if hi < hi_cap else hi_cap
                level -= csum[j] - csum[p]
                for i in range(p, j):
                    grant[i] = now
                    if gamt[i] == 0:
                        start[i] = now
                        push(heap, (now + dur[i], i))
                p = j
        if q < m and gpu_idx[q] < p:
            while w < n_freeze and freeze[w][1] <= now:
                w += 1
            frozen = w < n_freeze and freeze[w][0] <= now
            if not frozen and gamt[gpu_idx[q]] <= glevel:
                i = gpu_idx[q]
                glevel -= gamt[i]
                start[i] = now
                push(heap, (now + dur[i], i))
                q += 1
                if q < m and gpu_idx[q] < p and gamt[gpu_idx[q]] <= glevel:
                    hi = bisect_right(gpu_idx, p - 1, q)
                    hi_cap = bisect_right(gsum, gsum[q] + glevel) - 1
                    k = hi if hi < hi_cap else hi_cap
                    glevel -= gsum[k] - gsum[q]
                    for kk in range(q, k):
                        i = gpu_idx[kk]
                        start[i] = now
                        push(heap, (now + dur[i], i))
                    q = k
        if p == n and q == m:
            break

        # -- advance to the next decision point --------------------------
        # The hand-back test sits where the queue head is known not to
        # have arrived, so a backlogged drain never pays for it.
        if heap:
            t = heap[0][0]
            if p < n:
                ta = arr[p]
                if now < ta:
                    if p >= stop and (q == m or gpu_idx[q] >= p):
                        break  # past `stop`, both queues empty
                    if ta < t:
                        t = ta
            now = t
            while heap and heap[0][0] == now:
                i = pop(heap)[1]
                if i >= 0:
                    level += amt[i]
                    glevel += gamt[i]
        else:
            # Empty heap means nothing is running or pending thaw, so
            # the blocked head must simply not have arrived yet.
            if p >= stop and (q == m or gpu_idx[q] >= p):
                break
            now = arr[p]

    return p, now


def _fleet_core(
    arr: np.ndarray,
    dur: np.ndarray,
    amt: np.ndarray,
    gamt: np.ndarray,
    cap: int,
    gcap: int,
    freeze: List[Tuple[float, float]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Admit jobs sorted by arrival; columns in, columns out.

    Returns ``(grant_s, start_s, gpu_grant_order, certified, handoffs)``
    in sorted order: ``grant_s[i]`` is when job ``i``'s primary
    allocation (cores or nodes) was granted, ``start_s[i]`` when it
    actually started (after its GPUs, for two-stage jobs),
    ``gpu_grant_order`` the GPU-stage admission sequence (for placement
    replay), ``certified`` how many jobs were admitted by the
    certificate and ``handoffs`` how many times the drain took over.

    The stream is walked in chunks of whole arrival timestamps. A chunk
    that :func:`_certify` accepts is admitted in numpy, every job at its
    arrival. A chunk it refuses (a pool would overflow, a flap window
    intersects it, or a job is too short to outlast its own arrival
    instant) hands off to :func:`_drain`, seeded with the running
    set, which runs until it is past the chunk with both queues empty.
    Either way the result is the one the drain alone would produce.
    """
    n = len(arr)
    grant = np.empty(n, dtype=np.float64)
    start = np.empty(n, dtype=np.float64)
    end = arr + dur  # a job's end if it starts at its arrival
    gpu_idx = np.flatnonzero(gamt)
    run = np.empty(0, dtype=np.int64)  # running jobs
    run_end = np.empty(0, dtype=np.float64)  # and their end times
    now = 0.0
    lo = 0
    certified = 0
    handoffs = 0
    lists: Optional[Tuple[list, ...]] = None
    grant_l: List[float] = []
    start_l: List[float] = []

    while lo < n:
        hi = int(
            np.searchsorted(arr, arr[min(lo + _CHUNK_JOBS, n) - 1], "right")
        )
        if _certify(
            lo, hi, arr, end, amt, gamt, cap, gcap, run, run_end, freeze
        ):
            grant[lo:hi] = arr[lo:hi]
            start[lo:hi] = arr[lo:hi]
            now = float(arr[hi - 1])
            ends = np.concatenate((run_end, end[lo:hi]))
            keep = ends > now
            run = np.concatenate((run, np.arange(lo, hi)))[keep]
            run_end = ends[keep]
            certified += hi - lo
            lo = hi
            continue

        handoffs += 1
        if lists is None:
            lists = (
                arr.tolist(),
                dur.tolist(),
                amt.tolist(),
                gamt.tolist(),
                np.concatenate(([0], np.cumsum(amt))).tolist(),
                gpu_idx.tolist(),
                np.concatenate(([0], np.cumsum(gamt[gpu_idx]))).tolist(),
            )
            grant_l = [0.0] * n
            start_l = [0.0] * n
        heap = list(zip(run_end.tolist(), run.tolist()))
        heap += [(w_end, -1) for _, w_end in freeze if w_end > now]
        heapq.heapify(heap)
        p, now = _drain(
            lists,
            grant_l,
            start_l,
            heap,
            cap - int(amt[run].sum()),
            gcap - int(gamt[run].sum()),
            lo,
            int(np.searchsorted(gpu_idx, lo)),
            now,
            freeze,
            hi,
        )
        grant[lo:p] = grant_l[lo:p]
        start[lo:p] = start_l[lo:p]
        run = np.array([i for _, i in heap if i >= 0], dtype=np.int64)
        run_end = np.array([e for e, i in heap if i >= 0], dtype=np.float64)
        lo = p

    return grant, start, gpu_idx, certified, handoffs


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant fleet outcome (queue waits, usage, penalties)."""

    name: str
    jobs: int
    mean_wait_s: float
    wait_p50_s: float
    wait_p99_s: float
    gpu_busy_s: float
    trapped_core_hours: float
    trapped_gpu_hours: float
    penalty_p50: Optional[float] = None
    penalty_p99: Optional[float] = None


@dataclass
class FleetResult:
    """One fleet run: per-job columns (input order) plus aggregates.

    ``certified_jobs`` counts the jobs the engine admitted through the
    uncontended-chunk certificate and ``handoffs`` the times it handed a
    chunk to the scalar FIFO drain; neither changes any per-job column.
    ``rack_of_gpus`` is built from the placement replay on first read.
    """

    mode: str
    cluster: ClusterSpec
    jobs: FleetJobs
    start_s: np.ndarray
    end_s: np.ndarray
    wait_s: np.ndarray
    cores_start_s: np.ndarray
    trapped_core_s: np.ndarray
    trapped_gpu_s: np.ndarray
    makespan_s: float
    core_busy_s: float
    gpu_busy_s: float
    placement: Optional[str] = None
    rack_of_gpus: Optional[List[List[Tuple[int, int]]]] = None
    slack_s: Optional[np.ndarray] = None
    penalty: Optional[np.ndarray] = None
    penalty_refusals: int = 0
    certified_jobs: int = 0
    handoffs: int = 0

    def __len__(self) -> int:
        return len(self.start_s)

    # -- aggregates ---------------------------------------------------------
    @property
    def mean_wait_s(self) -> float:
        """Mean queueing delay across jobs."""
        return float(self.wait_s.mean()) if len(self) else 0.0

    @property
    def core_utilization(self) -> float:
        """Time-integrated fraction of cores doing useful work."""
        denom = self.cluster.total_cores * self.makespan_s
        return self.core_busy_s / denom if denom > 0 else 0.0

    @property
    def gpu_utilization(self) -> float:
        """Time-integrated fraction of GPUs doing useful work."""
        denom = self.cluster.total_gpus * self.makespan_s
        return self.gpu_busy_s / denom if denom > 0 else 0.0

    @property
    def trapped_core_hours(self) -> float:
        """Core-hours stranded (whole-node remainders + hold-and-wait)."""
        return float(self.trapped_core_s.sum()) / 3600.0

    @property
    def trapped_gpu_hours(self) -> float:
        """GPU-hours allocated but never used."""
        return float(self.trapped_gpu_s.sum()) / 3600.0

    def tenant_stats(self) -> Dict[str, TenantStats]:
        """Per-tenant queue-wait / usage / penalty distributions."""
        out: Dict[str, TenantStats] = {}
        tenant = self.jobs.tenant
        for tidx, name in enumerate(self.jobs.tenant_names):
            mask = tenant == tidx
            n = int(mask.sum())
            if n == 0:
                continue
            waits = self.wait_s[mask]
            pen_p50 = pen_p99 = None
            if self.penalty is not None:
                pens = self.penalty[mask]
                pens = pens[~np.isnan(pens)]
                if len(pens):
                    pen_p50 = float(np.percentile(pens, 50))
                    pen_p99 = float(np.percentile(pens, 99))
            out[name] = TenantStats(
                name=name,
                jobs=n,
                mean_wait_s=float(waits.mean()),
                wait_p50_s=float(np.percentile(waits, 50)),
                wait_p99_s=float(np.percentile(waits, 99)),
                gpu_busy_s=float(
                    (self.jobs.gpus[mask] * self.jobs.duration_s[mask]).sum()
                ),
                trapped_core_hours=float(self.trapped_core_s[mask].sum())
                / 3600.0,
                trapped_gpu_hours=float(self.trapped_gpu_s[mask].sum())
                / 3600.0,
                penalty_p50=pen_p50,
                penalty_p99=pen_p99,
            )
        return out

    def to_metrics(self) -> SimulationMetrics:
        """Aggregate view matching :class:`SimulationMetrics` (no
        per-job list; aggregates are numpy sums, equal to the scalar
        twins' within float reassociation)."""
        return SimulationMetrics(
            jobs=[],
            makespan_s=self.makespan_s,
            core_busy_s=self.core_busy_s,
            gpu_busy_s=self.gpu_busy_s,
            trapped_core_s=float(self.trapped_core_s.sum()),
            trapped_gpu_s=float(self.trapped_gpu_s.sum()),
            total_cores=self.cluster.total_cores,
            total_gpus=self.cluster.total_gpus,
        )

    def report(
        self,
        meta: Optional[Dict[str, object]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> RunReport:
        """A ``fleet``-kind :class:`RunReport` for this run.

        Publishes into ``registry`` (a fresh one by default, so the
        report is self-contained) and snapshots it.
        """
        reg = registry if registry is not None else MetricsRegistry()
        publish_fleet(self, reg)
        doc_meta: Dict[str, object] = {
            "mode": self.mode,
            "jobs": len(self),
            "tenants": list(self.jobs.tenant_names),
        }
        doc_meta.update(meta or {})
        return RunReport.collect(reg, kind="fleet", meta=doc_meta)


def _get_rack_of_gpus(
    self: FleetResult,
) -> Optional[List[List[Tuple[int, int]]]]:
    racks = self._rack_of_gpus
    if callable(racks):  # a pending replay: materialize once
        racks = self._rack_of_gpus = racks()
    return racks


def _set_rack_of_gpus(self: FleetResult, racks: object) -> None:
    self._rack_of_gpus = racks


# Per job, the ``(rack, gpus)`` pairs its GPUs were placed on (``[]`` for
# CPU-only jobs); ``None`` without a placement replay. A replay stores a
# builder here, and the list of lists is built on first read.
FleetResult.rack_of_gpus = property(  # type: ignore[assignment]
    _get_rack_of_gpus, _set_rack_of_gpus
)


# ---------------------------------------------------------------------------
# The engine entry point
# ---------------------------------------------------------------------------


def _traditional_needs(jobs: FleetJobs, cluster: ClusterSpec) -> np.ndarray:
    cores_need = -(-jobs.cores // cluster.cores_per_node)
    if cluster.gpus_per_node:
        gpu_need = -(-jobs.gpus // cluster.gpus_per_node)
    else:
        gpu_need = np.zeros_like(jobs.gpus)
    need = np.maximum(1, np.maximum(cores_need, gpu_need))
    if len(need) and int(need.max()) > cluster.nodes:
        bad = int(np.argmax(need > cluster.nodes))
        raise ValueError(f"job {bad} larger than the machine")
    return need


def run_fleet(
    jobs: FleetJobs,
    cluster: ClusterSpec = ClusterSpec(),
    mode: str = "cdi",
    *,
    placement: str = "pack",
    topology: Optional[FleetTopology] = None,
    faults: Optional[FaultPlan] = None,
    surrogate: Optional[object] = None,
    penalty_matrix_size: int = 2048,
    penalty_threads: int = 1,
    trace: Optional[object] = None,
    registry: Optional[MetricsRegistry] = None,
) -> FleetResult:
    """Simulate the job stream on the fleet engine.

    ``mode`` selects the scheduling discipline: ``"traditional"``
    (whole heterogeneous nodes, one pool of node slots) or ``"cdi"``
    (exact cores + GPUs from two pools). Per-job timings and trapped
    accounting are bit-identical to the scalar reference twins — see
    :func:`assert_fleet_parity`.

    Optional layers, none of which perturb the schedule:

    * ``topology`` replays GPU grants onto racks under ``placement``
      (``pack`` / ``spread`` / ``locality``), yielding per-job fabric
      slack; with a ``surrogate`` (:class:`repro.serve.SurrogateModel`)
      the slacks become a per-tenant penalty distribution.
    * ``faults``: link-flap windows of a :class:`FaultPlan` freeze GPU
      admission fleet-wide while the fabric is down (composition needs
      the fabric; held cores keep accruing trapped time). This *does*
      change the schedule — parity holds for ``faults=None``.
    * ``trace``: a :class:`repro.trace.ColumnarTrace` that receives
      one KERNEL event per job (name = tenant, thread = tenant index,
      ``nbytes`` = GPU count) via the bulk columnar append.
    * ``registry``: fleet metrics are published under ``fleet.*``
      (defaults to the process registry when metrics are enabled).
    """
    if mode not in ("traditional", "cdi"):
        raise ValueError(f"unknown mode {mode!r}")
    if placement not in PLACEMENT_POLICIES:
        raise ValueError(f"unknown placement policy {placement!r}")
    n = len(jobs)
    if n == 0:
        raise ValueError("empty job stream")
    if topology is not None and topology.total_gpus != cluster.total_gpus:
        raise ValueError(
            f"topology holds {topology.total_gpus} GPUs, "
            f"cluster has {cluster.total_gpus}"
        )

    order = np.argsort(jobs.arrival_s, kind="stable")

    if mode == "traditional":
        need = _traditional_needs(jobs, cluster)
        amt = need[order]
        gamt = np.zeros(n, dtype=np.int64)
        cap, gcap = cluster.nodes, 0
    else:
        if len(jobs) and (
            int(jobs.cores.max()) > cluster.total_cores
            or int(jobs.gpus.max()) > cluster.total_gpus
        ):
            bad = int(
                np.argmax(
                    (jobs.cores > cluster.total_cores)
                    | (jobs.gpus > cluster.total_gpus)
                )
            )
            raise ValueError(f"job {bad} larger than the machine")
        amt = jobs.cores[order]
        gamt = jobs.gpus[order]
        cap, gcap = cluster.total_cores, cluster.total_gpus

    grant_sorted, start_sorted, gpu_idx, certified, handoffs = _fleet_core(
        jobs.arrival_s[order],
        jobs.duration_s[order],
        amt.astype(np.int64),
        gamt.astype(np.int64),
        cap,
        gcap,
        _flap_windows(faults),
    )

    # Scatter back to input order.
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    grant = grant_sorted[inv]
    start = start_sorted[inv]
    end = start + jobs.duration_s
    wait = start - jobs.arrival_s

    if mode == "traditional":
        trapped_core = (need * cluster.cores_per_node - jobs.cores) * (
            jobs.duration_s
        )
        trapped_gpu = (need * cluster.gpus_per_node - jobs.gpus) * (
            jobs.duration_s
        )
    else:
        # Hold-and-wait: cores granted but blocked on the GPU pool.
        trapped_core = jobs.cores * (start - grant)
        trapped_gpu = np.zeros(n, dtype=np.float64)

    result = FleetResult(
        mode=mode,
        cluster=cluster,
        jobs=jobs,
        start_s=start,
        end_s=end,
        wait_s=wait,
        cores_start_s=grant,
        trapped_core_s=np.asarray(trapped_core, dtype=np.float64),
        trapped_gpu_s=np.asarray(trapped_gpu, dtype=np.float64),
        makespan_s=float(end.max()),
        core_busy_s=float((jobs.cores * jobs.duration_s).sum()),
        gpu_busy_s=float((jobs.gpus * jobs.duration_s).sum()),
        certified_jobs=certified,
        handoffs=handoffs,
    )

    if topology is not None and mode == "cdi":
        _replay_placement(result, order, gpu_idx, topology, placement)
        if surrogate is not None:
            _evaluate_penalties(
                result, surrogate, penalty_matrix_size, penalty_threads
            )

    if trace is not None:
        _record_trace(result, trace)

    reg = registry if registry is not None else get_registry()
    if reg.enabled:
        publish_fleet(result, reg)
    return result


def _replay_placement(
    result: FleetResult,
    order: np.ndarray,
    gpu_idx: np.ndarray,
    topology: FleetTopology,
    placement: str,
) -> None:
    """Replay GPU grants/releases onto racks; fills slack columns.

    Placement never feeds back into admission (the engine schedules
    against total pool capacity, like the reference twins), so this is
    a pure post-pass in grant order. State is kept per GPU job, in
    grant order (``seq``); ``rack_of_gpus`` is built on first read.
    """
    policy = PLACEMENT_POLICIES[placement]
    rows = order[gpu_idx]  # input row of each GPU job, in grant order
    m = len(rows)
    need = result.jobs.gpus[rows].tolist()
    rack_slack = topology.rack_slack_s
    slack_rank = sorted(
        range(topology.racks), key=lambda r: (rack_slack[r], r)
    )
    free = [topology.gpus_per_rack] * topology.racks
    placed: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    slack = [0.0] * m

    # Event e < m grants GPU job e, e >= m releases job e - m; releases
    # at an instant come before grants at it, ties in grant order.
    seq = np.arange(m)
    events = np.lexsort((
        np.concatenate((seq, seq)),
        np.repeat([1, 0], m),
        np.concatenate((result.start_s[rows], result.end_s[rows])),
    ))
    for e in events.tolist():
        if e >= m:
            for rack, cnt in placed[e - m]:
                free[rack] += cnt
        else:
            got = policy(free, need[e], slack_rank)
            placed[e] = got
            slack[e] = (
                rack_slack[got[0][0]]
                if len(got) == 1
                else max(rack_slack[r] for r, _ in got)
            )
    slack_s = np.full(len(result.jobs), np.nan)
    slack_s[rows] = slack
    result.placement = placement
    result.rack_of_gpus = partial(_rack_lists, len(result.jobs), rows, placed)
    result.slack_s = slack_s


def _rack_lists(
    n: int, rows: np.ndarray, placed: List[List[Tuple[int, int]]]
) -> List[List[Tuple[int, int]]]:
    """The per-job ``rack_of_gpus`` lists from the per-GPU-job replay."""
    racks: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for row, got in zip(rows.tolist(), placed):
        racks[row] = got
    return racks


def _evaluate_penalties(
    result: FleetResult,
    surrogate: object,
    matrix_size: int,
    threads: int,
) -> None:
    """Per-job penalties via the serving-layer surrogate (PR 7)."""
    assert result.slack_s is not None
    mask = ~np.isnan(result.slack_s)
    idx = np.flatnonzero(mask)
    pen = np.full(len(result.slack_s), np.nan)
    if len(idx):
        slacks = result.slack_s[idx]
        p, _bound, reason = surrogate.evaluate(  # type: ignore[attr-defined]
            np.full(len(idx), matrix_size, dtype=np.int64),
            np.full(len(idx), threads, dtype=np.int64),
            slacks,
        )
        pen[idx] = p
        result.penalty_refusals = int((reason != 0).sum())
    result.penalty = pen


def _record_trace(result: FleetResult, trace: object) -> None:
    """Record one KERNEL event per job into a ColumnarTrace."""
    from ..trace import EventKind

    jobs = result.jobs
    trace.record_batch(  # type: ignore[attr-defined]
        EventKind.KERNEL,
        [f"job:{jobs.tenant_names[t]}" for t in jobs.tenant.tolist()],
        result.start_s,
        result.end_s,
        nbytes=jobs.gpus,
        thread=jobs.tenant,
    )


# ---------------------------------------------------------------------------
# Parity against the scalar reference twins
# ---------------------------------------------------------------------------


def assert_fleet_parity(
    jobs: FleetJobs,
    cluster: ClusterSpec = ClusterSpec(),
    mode: str = "cdi",
) -> Tuple[FleetResult, SimulationMetrics]:
    """Run both engines and assert per-job **bit** parity.

    Compares wait / start / end, the cores-grant time and the trapped
    core/GPU accounting of every job between :func:`run_fleet` and the
    scalar reference twin. Raises ``AssertionError`` on the first
    mismatch; returns ``(fleet_result, reference_metrics)``.
    """
    fleet = run_fleet(jobs, cluster, mode)
    reference = (
        simulate_cdi if mode == "cdi" else simulate_traditional
    )(jobs.to_sim_jobs(), cluster)
    if len(reference.jobs) != len(jobs):
        raise AssertionError(
            f"job count mismatch: {len(reference.jobs)} != {len(jobs)}"
        )
    by_name = {j.name: j for j in reference.jobs}
    names = [
        f"{jobs.tenant_names[t]}-{i}"
        for i, t in enumerate(jobs.tenant.tolist())
    ]
    for i, name in enumerate(names):
        ref = by_name[name]
        for label, got, want in (
            ("wait_s", float(fleet.wait_s[i]), ref.wait_s),
            ("start_s", float(fleet.start_s[i]), ref.start_s),
            ("end_s", float(fleet.end_s[i]), ref.end_s),
            ("cores_start_s", float(fleet.cores_start_s[i]), ref.cores_start_s),
            ("trapped_core_s", float(fleet.trapped_core_s[i]), ref.trapped_core_s),
            ("trapped_gpu_s", float(fleet.trapped_gpu_s[i]), ref.trapped_gpu_s),
        ):
            if got != want:
                raise AssertionError(
                    f"{mode} parity broke at job {name} ({label}): "
                    f"fleet {got!r} != reference {want!r}"
                )
    return fleet, reference
