"""Fleet-level scheduling simulation: job throughput under CDI.

The paper's introduction claims CDI "can lead to increased system
efficiency for job throughput and time to solution" because exact-
ratio composition stops jobs from trapping resources they don't use.
This module tests that claim dynamically: a stream of jobs (CPU-heavy,
GPU-heavy and CPU-only archetypes) arrives at a cluster and is
scheduled either as whole heterogeneous nodes or as composed
cores+GPUs, on the DES. Reported metrics: makespan, mean job wait,
time-integrated core/GPU utilization, and trapped GPU-hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..des import Container, Environment, Event

__all__ = [
    "SimJob",
    "ClusterSpec",
    "JobMetrics",
    "SimulationMetrics",
    "simulate_traditional",
    "simulate_cdi",
    "synthetic_job_mix",
    "compare_throughput",
]


@dataclass(frozen=True)
class SimJob:
    """One job of the stream."""

    name: str
    arrival_s: float
    duration_s: float
    cores: int
    gpus: int

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.arrival_s) and math.isfinite(self.duration_s)
        ):
            raise ValueError("invalid job timing")
        if self.arrival_s < 0 or self.duration_s <= 0:
            raise ValueError("invalid job timing")
        if self.cores <= 0 or self.gpus < 0:
            raise ValueError("invalid job resources")


@dataclass(frozen=True)
class ClusterSpec:
    """The physical inventory, viewable as nodes or as pools."""

    nodes: int = 16
    cores_per_node: int = 48
    gpus_per_node: int = 4

    def __post_init__(self) -> None:
        if self.nodes <= 0 or self.cores_per_node <= 0 or self.gpus_per_node < 0:
            raise ValueError("invalid cluster geometry")

    @property
    def total_cores(self) -> int:
        """All cores in the machine."""
        return self.nodes * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        """All GPUs in the machine."""
        return self.nodes * self.gpus_per_node


@dataclass(frozen=True)
class JobMetrics:
    """Per-job outcome.

    ``cores_start_s`` is when the job's cores (or nodes) were granted;
    for CDI jobs that then block on the GPU pool it can precede
    ``start_s``, and the capacity held across that gap is charged to
    ``trapped_core_s``. Traditional allocations acquire atomically, so
    there ``cores_start_s == start_s`` and the trapped fields count the
    statically stranded remainder of the whole-node footprint.
    """

    name: str
    wait_s: float
    start_s: float
    end_s: float
    cores_start_s: float = 0.0
    trapped_core_s: float = 0.0
    trapped_gpu_s: float = 0.0


@dataclass
class SimulationMetrics:
    """Aggregate outcome of one simulated schedule."""

    jobs: List[JobMetrics] = field(default_factory=list)
    makespan_s: float = 0.0
    core_busy_s: float = 0.0
    gpu_busy_s: float = 0.0
    trapped_core_s: float = 0.0
    trapped_gpu_s: float = 0.0
    total_cores: int = 0
    total_gpus: int = 0

    @property
    def mean_wait_s(self) -> float:
        """Mean queueing delay across jobs."""
        if not self.jobs:
            return 0.0
        return float(np.mean([j.wait_s for j in self.jobs]))

    @property
    def core_utilization(self) -> float:
        """Time-integrated fraction of cores doing useful work."""
        denom = self.total_cores * self.makespan_s
        return self.core_busy_s / denom if denom > 0 else 0.0

    @property
    def gpu_utilization(self) -> float:
        """Time-integrated fraction of GPUs doing useful work."""
        denom = self.total_gpus * self.makespan_s
        return self.gpu_busy_s / denom if denom > 0 else 0.0

    @property
    def trapped_core_hours(self) -> float:
        """Core-hours stranded: whole-node remainders plus capacity a
        CDI job held while blocked on the GPU pool (hold-and-wait)."""
        return self.trapped_core_s / 3600.0

    @property
    def trapped_gpu_hours(self) -> float:
        """GPU-hours allocated to jobs that never used them."""
        return self.trapped_gpu_s / 3600.0


def _run_stream(
    jobs: Sequence[SimJob],
    acquire_sizes,  # job -> (amount, gpu_amount, trapped_cores, trapped_gpus)
    cores_pool: Container,
    gpus_pool: Optional[Container],
    env: Environment,
    metrics: SimulationMetrics,
) -> None:
    def job_proc(job: SimJob) -> Generator[Event, Any, None]:
        yield env.timeout(job.arrival_s)
        arrived = env.now
        core_amt, gpu_amt, trapped_cores, trapped_gpus = acquire_sizes(job)
        yield cores_pool.get(core_amt)
        cores_at = env.now
        held_core_s = 0.0
        if gpus_pool is not None and gpu_amt > 0:
            yield gpus_pool.get(gpu_amt)
            # Hold-and-wait: the cores were granted but sat blocked on
            # the GPU pool — capacity no other job could use.
            held_core_s = job.cores * (env.now - cores_at)
        start = env.now
        yield env.timeout(job.duration_s)
        yield cores_pool.put(core_amt)
        if gpus_pool is not None and gpu_amt > 0:
            yield gpus_pool.put(gpu_amt)
        job_trapped_core_s = trapped_cores * job.duration_s + held_core_s
        job_trapped_gpu_s = trapped_gpus * job.duration_s
        metrics.jobs.append(
            JobMetrics(name=job.name, wait_s=start - arrived,
                       start_s=start, end_s=env.now,
                       cores_start_s=cores_at,
                       trapped_core_s=job_trapped_core_s,
                       trapped_gpu_s=job_trapped_gpu_s)
        )
        metrics.core_busy_s += job.cores * job.duration_s
        metrics.gpu_busy_s += job.gpus * job.duration_s
        metrics.trapped_core_s += job_trapped_core_s
        metrics.trapped_gpu_s += job_trapped_gpu_s

    for job in jobs:
        env.process(job_proc(job), name=f"job-{job.name}")
    env.run()
    metrics.makespan_s = max((j.end_s for j in metrics.jobs), default=0.0)


def simulate_traditional(
    jobs: Sequence[SimJob], cluster: ClusterSpec = ClusterSpec()
) -> SimulationMetrics:
    """Whole-node scheduling: jobs take node-shaped allocations.

    A job's footprint is the node count covering both its core and
    GPU asks; everything on those nodes is held for the duration
    (the trapped GPUs are tracked).
    """
    env = Environment()
    nodes_pool = Container(env, capacity=cluster.nodes, init=cluster.nodes)
    metrics = SimulationMetrics(
        total_cores=cluster.total_cores, total_gpus=cluster.total_gpus
    )

    def sizes(job: SimJob) -> Tuple[int, int, int, int]:
        need = max(
            1,
            math.ceil(job.cores / cluster.cores_per_node),
            math.ceil(job.gpus / cluster.gpus_per_node)
            if cluster.gpus_per_node and job.gpus
            else 0,
        )
        if need > cluster.nodes:
            raise ValueError(f"job {job.name} larger than the machine")
        trapped_cores = need * cluster.cores_per_node - job.cores
        trapped_gpus = need * cluster.gpus_per_node - job.gpus
        return (need, 0, trapped_cores, trapped_gpus)

    _run_stream(jobs, sizes, nodes_pool, None, env, metrics)
    return metrics


def simulate_cdi(
    jobs: Sequence[SimJob], cluster: ClusterSpec = ClusterSpec()
) -> SimulationMetrics:
    """Composed scheduling: jobs take exactly their cores and GPUs."""
    env = Environment()
    cores_pool = Container(
        env, capacity=cluster.total_cores, init=cluster.total_cores
    )
    # Zero-GPU clusters simply have no GPU pool (no phantom capacity).
    gpus_pool = (
        Container(env, capacity=cluster.total_gpus, init=cluster.total_gpus)
        if cluster.total_gpus > 0
        else None
    )
    metrics = SimulationMetrics(
        total_cores=cluster.total_cores, total_gpus=cluster.total_gpus
    )

    def sizes(job: SimJob) -> Tuple[int, int, int, int]:
        if job.cores > cluster.total_cores or job.gpus > cluster.total_gpus:
            raise ValueError(f"job {job.name} larger than the machine")
        return (job.cores, job.gpus, 0, 0)

    _run_stream(jobs, sizes, cores_pool, gpus_pool, env, metrics)
    return metrics


def synthetic_job_mix(
    n_jobs: int,
    rng: Optional[np.random.Generator] = None,
    mean_interarrival_s: float = 600.0,
    cluster: ClusterSpec = ClusterSpec(),
) -> List[SimJob]:
    """A mixed stream of the paper's three workload archetypes.

    ~40% CPU-heavy (LAMMPS-like: many cores, few GPUs), ~35%
    GPU-heavy (CosmoFlow-like: few cores, many GPUs), ~25% CPU-only.
    Poisson arrivals, log-normal durations around 1-3 h.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    rng = rng or np.random.default_rng(2024)
    jobs: List[SimJob] = []
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(mean_interarrival_s))
        archetype = rng.random()
        if archetype < 0.40:  # CPU-heavy with a GPU or two
            cores = int(rng.integers(2, 5)) * cluster.cores_per_node // 2
            gpus = int(rng.integers(1, 3))
            duration = float(rng.lognormal(np.log(7200), 0.4))
            name = f"cpuheavy-{i}"
        elif archetype < 0.75:  # GPU-heavy
            gpus = int(rng.integers(4, min(17, cluster.total_gpus + 1)))
            cores = max(2, gpus // 2)
            duration = float(rng.lognormal(np.log(10800), 0.4))
            name = f"gpuheavy-{i}"
        else:  # CPU-only
            cores = int(rng.integers(1, 3)) * cluster.cores_per_node
            gpus = 0
            duration = float(rng.lognormal(np.log(3600), 0.4))
            name = f"cpuonly-{i}"
        cores = min(cores, cluster.total_cores)
        jobs.append(
            SimJob(name=name, arrival_s=t, duration_s=duration,
                   cores=cores, gpus=gpus)
        )
    return jobs


def compare_throughput(
    jobs: Sequence[SimJob], cluster: ClusterSpec = ClusterSpec()
) -> Tuple[SimulationMetrics, SimulationMetrics]:
    """Run the same stream both ways; returns (traditional, cdi)."""
    return simulate_traditional(jobs, cluster), simulate_cdi(jobs, cluster)
