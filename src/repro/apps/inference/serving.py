"""LLM inference serving on the simulated GPU: the traced profile.

The third production workload, and the first *latency-sensitive* one —
directly the ROADMAP's "millions of users" scenario. An open-loop
arrival process admits requests (``arrivals.py``), a dynamic batcher
forms batches under a max-size + batching-window policy
(``batcher.py``), and the engine runs each batch through the paper's
instrumented CUDA runtime:

* optional KV-cache **restore** (H2D) when the batch's pages were
  spilled by the previous cycle;
* one H2D upload of the batch's prompt token ids;
* one large **prefill** kernel (compute-bound, one-shot);
* a **decode** loop — per generated token one small memory-bound
  kernel plus a tiny *synchronous* D2H of the sampled token ids, so
  every step's injected slack lands on the request's critical path
  exactly as it would for a real token-streaming frontend;
* optional KV-cache **spill** (D2H) on the paging cadence.

Per-request TTFT/TPOT are read off simulated time, which is what turns
the paper's per-call slack into a *latency-SLO* penalty instead of a
batch-throughput penalty (see ``slo.py``). Every device operation is
tagged with its serving phase through the trace's ``thread`` field, so
phase sub-profiles (prefill vs decode) can be re-fed to the unchanged
:class:`~repro.model.CDIProfiler`.

Arrivals are aperiodic by construction, so steady-state fast-forward
always refuses (``reason="aperiodic-arrivals"``) — recorded, like
every refusal, in :attr:`~repro.apps.base.AppProfile.fastforward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ...des.core import Environment, Event
from ...des.timebase import quantize
from ...gpusim.flatcore import FastForwardInfo
from ...gpusim.runtime import CudaRuntime
from ...gpusim.kernels import KernelSpec
from ...hw.specs import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from ...network.slack import SlackModel
from ...trace.events import CopyKind, EventKind
from ..base import AppProfile
from .arrivals import Request, generate_requests
from .batcher import BatchQueue
from .llm import LLMSpec

if TYPE_CHECKING:
    from ...faults.plan import FaultPlan

__all__ = [
    "PHASE_PREFILL",
    "PHASE_DECODE",
    "PHASE_KV",
    "PHASE_MISC",
    "InferenceProfileConfig",
    "RequestRecord",
    "BatchRecord",
    "SLOReport",
    "InferenceRunResult",
    "run_inference",
    "profile_inference",
]

#: Serving-phase tags carried on every trace event's ``thread`` field.
#: They are what :func:`repro.apps.inference.slo.phase_profile` filters
#: on to hand the unchanged predictor a per-phase sub-profile.
PHASE_PREFILL = 0
PHASE_DECODE = 1
PHASE_KV = 2
PHASE_MISC = 3


@dataclass(frozen=True)
class InferenceProfileConfig:
    """Configuration of one traced serving run."""

    llm: LLMSpec = field(default_factory=LLMSpec)
    gpu: GPUSpec = field(default_factory=lambda: A100_SXM4_40GB)
    pcie: PCIeSpec = field(default_factory=lambda: PCIE_GEN4_X16)
    #: Open-loop Poisson arrival rate (ignored with ``arrival_trace``).
    request_rate_per_s: float = 4.0
    num_requests: int = 64
    #: Explicit arrival timestamps (seconds); overrides the Poisson
    #: process and ``num_requests`` when given.
    arrival_trace: Optional[Tuple[float, ...]] = None
    max_batch_size: int = 8
    #: How long a non-full batch waits for more arrivals before launch.
    batch_window_s: float = 0.004
    prompt_tokens_mean: int = 256
    prompt_tokens_sigma: float = 0.35
    decode_tokens_mean: int = 64
    decode_tokens_sigma: float = 0.35
    #: KV-cache paging cadence: every Nth batch spills its KV pages to
    #: host (D2H) and the following batch restores them (H2D). 0 = no
    #: paging traffic.
    kv_spill_every: int = 4
    #: Latency SLOs the run's violation counters are scored against.
    ttft_slo_s: float = 1.5
    tpot_slo_s: float = 0.02
    #: Host-side per-step cost (sampling, detokenize, stream write).
    host_overhead_s: float = 25e-6
    #: Lognormal wobble on kernel durations (0 = deterministic kernels;
    #: arrivals are stochastic either way, via the seed).
    jitter: float = 0.0
    seed: int = 2026

    def __post_init__(self) -> None:
        if self.request_rate_per_s <= 0:
            raise ValueError("request_rate_per_s must be positive")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.prompt_tokens_mean <= 0 or self.decode_tokens_mean <= 0:
            raise ValueError("token means must be positive")
        if self.prompt_tokens_sigma < 0 or self.decode_tokens_sigma < 0:
            raise ValueError("token sigmas must be non-negative")
        if self.kv_spill_every < 0:
            raise ValueError("kv_spill_every must be non-negative")
        if self.ttft_slo_s <= 0 or self.tpot_slo_s <= 0:
            raise ValueError("SLO targets must be positive")
        if self.host_overhead_s < 0:
            raise ValueError("host_overhead_s must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")


@dataclass(frozen=True)
class RequestRecord:
    """One request's simulated lifecycle timestamps."""

    rid: int
    arrival_s: float
    prompt_tokens: int
    decode_tokens: int
    batch_id: int
    #: When the batch containing this request started executing.
    dispatch_s: float
    #: When the first generated token reached the host.
    first_token_s: float
    #: When the last generated token reached the host.
    done_s: float

    @property
    def ttft_s(self) -> float:
        """Time to first token (queueing + prefill + first decode step)."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Mean time per output token after the first (None if only one)."""
        if self.decode_tokens <= 1:
            return None
        return (self.done_s - self.first_token_s) / (self.decode_tokens - 1)


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch as the engine saw it."""

    batch_id: int
    dispatch_s: float
    #: Request ids in dispatch order (FIFO slice of the admission queue).
    request_ids: Tuple[int, ...]
    #: Queue depth at dispatch, batch included.
    queue_depth: int
    prefill_tokens: int
    decode_steps: int
    kv_restored_bytes: int
    kv_spilled_bytes: int

    @property
    def size(self) -> int:
        return len(self.request_ids)


@dataclass(frozen=True)
class SLOReport:
    """Latency aggregates of one serving run."""

    requests: int
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    ttft_max_s: float
    tpot_mean_s: float
    tpot_p50_s: float
    tpot_p99_s: float
    ttft_violations: int
    tpot_violations: int
    makespan_s: float

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.requests / self.makespan_s if self.makespan_s > 0 else 0.0


@dataclass(frozen=True)
class InferenceRunResult:
    """Everything one serving run produced."""

    profile: AppProfile
    requests: Tuple[RequestRecord, ...]
    batches: Tuple[BatchRecord, ...]
    slo: SLOReport
    #: Deepest the admission queue ever got.
    queue_high_water: int


def _slo_report(
    config: InferenceProfileConfig,
    records: Tuple[RequestRecord, ...],
    makespan_s: float,
) -> SLOReport:
    ttft = np.array([r.ttft_s for r in records], dtype=float)
    tpot = np.array(
        [r.tpot_s for r in records if r.tpot_s is not None], dtype=float
    )
    if len(tpot) == 0:
        tpot = np.zeros(1)
        tpot_violations = 0
    else:
        tpot_violations = int(np.sum(tpot > config.tpot_slo_s))
    return SLOReport(
        requests=len(records),
        ttft_mean_s=float(np.mean(ttft)),
        ttft_p50_s=float(np.percentile(ttft, 50)),
        ttft_p99_s=float(np.percentile(ttft, 99)),
        ttft_max_s=float(np.max(ttft)),
        tpot_mean_s=float(np.mean(tpot)),
        tpot_p50_s=float(np.percentile(tpot, 50)),
        tpot_p99_s=float(np.percentile(tpot, 99)),
        ttft_violations=int(np.sum(ttft > config.ttft_slo_s)),
        tpot_violations=tpot_violations,
        makespan_s=makespan_s,
    )


def run_inference(
    config: Optional[InferenceProfileConfig] = None,
    slack: Optional[SlackModel] = None,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> InferenceRunResult:
    """Run the serving DES and return its full result.

    Parameters mirror :func:`repro.apps.profile_lammps`; the extra
    return value (per-request records, batch records, SLO aggregates)
    is what the latency-penalty layer consumes. Fast-forward is always
    *refused* for this workload — an open-loop arrival stream has no
    certified-periodic epoch to extrapolate — and the refusal reason
    is recorded on the profile like any other gate.
    """
    config = config or InferenceProfileConfig()
    slack_model = slack or SlackModel.none()
    requests = generate_requests(config)

    env = Environment()
    injector = faults.compile(env) if faults is not None else None
    rt = CudaRuntime(
        env, gpu=config.gpu, pcie=config.pcie, slack=slack_model,
        faults=injector,
    )
    rng = np.random.default_rng(config.seed + 1)
    llm = config.llm
    stream = rt.create_stream()
    queue = BatchQueue()
    window_s = quantize(config.batch_window_s)
    host_step_s = quantize(config.host_overhead_s)

    def jittered(mean: float) -> float:
        if config.jitter == 0:
            return mean
        sigma = np.sqrt(np.log(1 + config.jitter**2))
        return float(rng.lognormal(np.log(mean) - sigma**2 / 2, sigma))

    def kernel(spec: KernelSpec, name: Optional[str] = None) -> KernelSpec:
        """Resolve a roofline spec to a (possibly jittered) duration."""
        dur = jittered(spec.execution_time(config.gpu))
        return KernelSpec(name=name or spec.name, duration_s=dur)

    # Fresh event per arrival: the engine snapshots the current one
    # before waiting, so a batch window can race arrivals against its
    # deadline without missing either.
    arrival_event: List[Event] = [env.event()]
    records: List[RequestRecord] = []
    batches: List[BatchRecord] = []
    # KV bytes the most recent spill moved out (restored by the next batch).
    spilled: List[int] = [0]

    def arrivals() -> Generator[Event, Any, None]:
        for req in requests:
            delay = req.arrival_s - env.now
            if delay > 0:
                yield env.timeout(delay)
            queue.admit(req)
            fired, arrival_event[0] = arrival_event[0], env.event()
            fired.succeed()

    def kv_bytes(batch: List[Request]) -> int:
        return sum(
            (r.prompt_tokens + r.decode_tokens) * llm.kv_bytes_per_token
            for r in batch
        )

    def execute_batch(
        batch: List[Request], batch_id: int, queue_depth: int
    ) -> Generator[Event, Any, None]:
        dispatch_s = env.now
        restore_bytes = spilled[0]
        if restore_bytes > 0:
            yield from rt.memcpy(restore_bytes, CopyKind.H2D, stream, PHASE_KV)
            spilled[0] = 0

        prompt_tokens = sum(r.prompt_tokens for r in batch)
        yield from rt.memcpy(
            prompt_tokens * llm.token_id_bytes, CopyKind.H2D, stream,
            PHASE_PREFILL,
        )
        yield from rt.launch(
            kernel(llm.prefill_kernel(prompt_tokens)), stream, PHASE_PREFILL
        )

        steps = max(r.decode_tokens for r in batch)
        first_token_s: Dict[int, float] = {}
        done_s: Dict[int, float] = {}
        for step in range(1, steps + 1):
            active = [r for r in batch if r.decode_tokens >= step]
            resident_kv = sum(
                r.prompt_tokens + min(step, r.decode_tokens) for r in batch
            )
            yield from rt.launch(
                kernel(llm.decode_kernel(len(active), resident_kv)),
                stream,
                PHASE_DECODE,
            )
            # Synchronous token readback: the frontend streams each
            # sampled token, so the step's slack is on the critical path.
            yield from rt.memcpy(
                len(active) * llm.token_id_bytes, CopyKind.D2H, stream,
                PHASE_DECODE,
            )
            if host_step_s > 0:
                yield env.timeout(host_step_s)
            now = env.now
            if step == 1:
                for r in batch:
                    first_token_s[r.rid] = now
            for r in active:
                if r.decode_tokens == step:
                    done_s[r.rid] = now

        spill_bytes = 0
        if (
            config.kv_spill_every > 0
            and batch_id % config.kv_spill_every == config.kv_spill_every - 1
        ):
            spill_bytes = kv_bytes(batch)
            yield from rt.memcpy(spill_bytes, CopyKind.D2H, stream, PHASE_KV)
            spilled[0] = spill_bytes

        batches.append(
            BatchRecord(
                batch_id=batch_id,
                dispatch_s=dispatch_s,
                request_ids=tuple(r.rid for r in batch),
                queue_depth=queue_depth,
                prefill_tokens=prompt_tokens,
                decode_steps=steps,
                kv_restored_bytes=restore_bytes,
                kv_spilled_bytes=spill_bytes,
            )
        )
        for r in batch:
            records.append(
                RequestRecord(
                    rid=r.rid,
                    arrival_s=r.arrival_s,
                    prompt_tokens=r.prompt_tokens,
                    decode_tokens=r.decode_tokens,
                    batch_id=batch_id,
                    dispatch_s=dispatch_s,
                    first_token_s=first_token_s[r.rid],
                    done_s=done_s[r.rid],
                )
            )

    def engine() -> Generator[Event, Any, None]:
        batch_id = 0
        total = len(requests)
        while queue.served < total:
            if not len(queue):
                yield arrival_event[0]
            # Dynamic batching window: launch when full, when the
            # window expires, or when no more arrivals can come.
            deadline = env.now + window_s
            while (
                len(queue) < config.max_batch_size
                and queue.admitted < total
                and env.now < deadline
            ):
                yield arrival_event[0] | env.timeout(deadline - env.now)
            depth = len(queue)
            batch = queue.pop_batch(config.max_batch_size)
            yield from execute_batch(batch, batch_id, depth)
            batch_id += 1

    def main() -> Generator[Event, Any, float]:
        t0 = env.now
        procs = [
            env.process(arrivals(), name="infer-arrivals"),
            env.process(engine(), name="infer-engine"),
        ]
        yield env.all_of(procs)
        yield from rt.synchronize(thread=PHASE_MISC)
        return env.now - t0

    main_proc = env.process(main(), name="inference-main")
    env.run()
    runtime = float(main_proc.value)

    enabled = True if fast_forward is None else bool(fast_forward)
    info = FastForwardInfo(
        enabled=enabled,
        certified=False,
        reason="disabled" if not enabled else "aperiodic-arrivals",
    )

    trace = rt.tracer.trace
    api_calls = trace.count_kind(EventKind.API)
    profile = AppProfile(
        name="inference",
        trace=trace,
        runtime_s=runtime,
        # One engine loop feeds the GPU: a single kernel launcher.
        queue_parallelism=1,
        cuda_calls_per_second=api_calls / runtime,
        fastforward=info,
    )
    records.sort(key=lambda r: r.rid)
    result = InferenceRunResult(
        profile=profile,
        requests=tuple(records),
        batches=tuple(batches),
        slo=_slo_report(config, tuple(records), runtime),
        queue_high_water=queue.high_water,
    )
    from ...obs.publish import publish_inference

    publish_inference(result)
    return result


def profile_inference(
    config: Optional[InferenceProfileConfig] = None,
    slack: Optional[SlackModel] = None,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> AppProfile:
    """Profile-only entry point, signature-compatible with the other apps."""
    return run_inference(
        config, slack, fast_forward=fast_forward, faults=faults
    ).profile
