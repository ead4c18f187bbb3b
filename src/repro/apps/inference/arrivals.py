"""Open-loop request arrivals for the serving DES.

:func:`generate_requests` is a **pure function** of the profiling
config: a seeded generator draws Poisson interarrival gaps (or takes an
explicit arrival trace verbatim) plus lognormal prompt/decode token
counts, and quantizes every arrival timestamp onto the dyadic tick
grid the DES runs on. Purity is the property the sweep machinery
leans on — the same config produces the bit-identical request stream
whether the run happens inline, in a process-pool worker, or on
another shard host, so cached profiles and sharded sweeps stay
byte-identical (the same argument as the proxy's seeded kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ...des.timebase import quantize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .serving import InferenceProfileConfig

__all__ = ["Request", "generate_requests"]

#: Token-count draws are clipped at this multiple of the mean so a
#: lucky lognormal tail cannot make one request dominate a short run.
_TOKEN_CLIP_FACTOR = 8


@dataclass(frozen=True)
class Request:
    """One inference request as admitted by the frontend."""

    rid: int
    #: Tick-quantized arrival time (seconds from run start).
    arrival_s: float
    prompt_tokens: int
    decode_tokens: int

    def __post_init__(self) -> None:
        if self.rid < 0:
            raise ValueError("rid must be non-negative")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.prompt_tokens <= 0 or self.decode_tokens <= 0:
            raise ValueError("token counts must be positive")


def _lognormal_tokens(
    rng: np.random.Generator, mean: int, sigma: float, count: int
) -> np.ndarray:
    """``count`` integer token draws with the configured mean/shape."""
    if sigma == 0:
        return np.full(count, mean, dtype=np.int64)
    # Parameterize so the draw's expectation equals ``mean``.
    mu = np.log(float(mean)) - sigma**2 / 2
    draws = np.rint(rng.lognormal(mu, sigma, count)).astype(np.int64)
    return np.clip(draws, 1, mean * _TOKEN_CLIP_FACTOR)


def generate_requests(
    config: "InferenceProfileConfig",
) -> Tuple[Request, ...]:
    """The config's full request stream, sorted by arrival time.

    With :attr:`~repro.apps.inference.InferenceProfileConfig.arrival_trace`
    set, those timestamps are used verbatim (quantized); otherwise
    ``num_requests`` Poisson arrivals at ``request_rate_per_s``. Token
    counts are drawn from the same seeded stream either way.
    """
    rng = np.random.default_rng(config.seed)
    if config.arrival_trace is not None:
        arrivals = np.asarray(config.arrival_trace, dtype=float)
        if arrivals.ndim != 1 or len(arrivals) == 0:
            raise ValueError("arrival_trace must be a non-empty 1-D sequence")
        if np.any(arrivals < 0):
            raise ValueError("arrival_trace times must be non-negative")
        arrivals = np.sort(arrivals)
    else:
        gaps = rng.exponential(
            1.0 / config.request_rate_per_s, config.num_requests
        )
        arrivals = np.cumsum(gaps)
    count = len(arrivals)
    prompts = _lognormal_tokens(
        rng, config.prompt_tokens_mean, config.prompt_tokens_sigma, count
    )
    decodes = _lognormal_tokens(
        rng, config.decode_tokens_mean, config.decode_tokens_sigma, count
    )
    return tuple(
        Request(
            rid=i,
            arrival_s=quantize(float(arrivals[i])),
            prompt_tokens=int(prompts[i]),
            decode_tokens=int(decodes[i]),
        )
        for i in range(count)
    )
