"""The served model: a decoder-only transformer's kernel/byte shapes.

:class:`LLMSpec` reduces an LLM to the handful of numbers the serving
DES needs: parameter count and dtype (weight bytes read per decode
step), layer count and hidden width (KV-cache bytes per resident
token), and a prefill efficiency. Kernel work is described to the
simulator through :class:`~repro.gpusim.KernelSpec` roofline terms, so
the same :class:`~repro.hw.GPUSpec` that times the proxy's matmuls
times inference:

* **prefill** is one large compute-bound kernel per batch —
  ``2 * params * prompt_tokens`` FLOPs at :attr:`prefill_efficiency`;
* **decode** is one small memory-bound kernel per generated token —
  every step streams the full weights plus the batch's resident KV
  cache through HBM for ``2 * params * batch`` FLOPs, which is why
  decode latency is bandwidth- (and slack-) dominated.

The default spec is a ~1.5B-parameter fp16 model: small enough that a
profiled serving run stays cheap, large enough that decode steps
(~2 ms: 3 GB of weights over 1555 GB/s) sit squarely in the regime
where per-call CDI slack is *visible* in per-token latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...gpusim.kernels import KernelSpec

__all__ = ["LLMSpec"]


@dataclass(frozen=True)
class LLMSpec:
    """Kernel-level shape of one served decoder-only model."""

    name: str = "llm-1b5"
    n_layers: int = 24
    d_model: int = 2048
    param_count: int = 1_500_000_000
    #: Bytes per weight / activation element (2 = fp16).
    dtype_bytes: int = 2
    #: Fraction of peak FLOP/s the fused prefill kernels achieve.
    prefill_efficiency: float = 0.45
    #: Wire bytes per sampled token id (int32 logits argmax).
    token_id_bytes: int = 4

    def __post_init__(self) -> None:
        if self.n_layers <= 0 or self.d_model <= 0:
            raise ValueError("n_layers and d_model must be positive")
        if self.param_count <= 0:
            raise ValueError("param_count must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        if not 0 < self.prefill_efficiency <= 1:
            raise ValueError("prefill_efficiency must be in (0, 1]")
        if self.token_id_bytes <= 0:
            raise ValueError("token_id_bytes must be positive")

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes one resident token occupies (K and V per layer)."""
        return 2 * self.n_layers * self.d_model * self.dtype_bytes

    @property
    def weight_bytes(self) -> int:
        """Resident weight footprint (read in full by every decode step)."""
        return self.param_count * self.dtype_bytes

    def prefill_kernel(self, prompt_tokens: int) -> KernelSpec:
        """The batch's one-shot prompt-processing kernel."""
        if prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        return KernelSpec(
            name="k_prefill",
            flops=2.0 * self.param_count * prompt_tokens,
            bytes_accessed=float(
                self.weight_bytes + prompt_tokens * self.kv_bytes_per_token
            ),
            efficiency=self.prefill_efficiency,
        )

    def decode_kernel(self, active: int, kv_tokens: int) -> KernelSpec:
        """One generation step for ``active`` sequences.

        ``kv_tokens`` is the total number of KV-resident tokens across
        the batch at this step (prompt plus tokens generated so far);
        the step streams weights + KV through memory once.
        """
        if active <= 0:
            raise ValueError("active must be positive")
        if kv_tokens < 0:
            raise ValueError("kv_tokens must be non-negative")
        return KernelSpec(
            name="k_decode",
            flops=2.0 * self.param_count * active,
            bytes_accessed=float(
                self.weight_bytes + kv_tokens * self.kv_bytes_per_token
            ),
        )
