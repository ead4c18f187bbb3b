"""Dyadic time quantization: the arithmetic contract of fast-forward.

Steady-state fast-forward (the index core's skip, see
:mod:`repro.gpusim.flatcore`) replaces thousands of identical simulated
loop iterations with one shift by whole periods, and promises the
shifted totals are **bit-identical** to the event-by-event run. Plain float time cannot honour that promise:
``t + d`` rounds differently as ``t`` grows, so even a perfectly
periodic workload shows per-cycle deltas that differ in their last few
ulps, and ``t + n*d`` is not the same float as adding ``d`` n times.

The fix is to snap every simulated delay to the **dyadic grid** of
multiples of :data:`TICK_S` = 2^-40 s (~0.9 picoseconds, far below any
modelled hardware effect). Every event timestamp then stays a dyadic
rational, and IEEE-754 double addition of dyadic values is *exact* as
long as sums stay under 2^53 ticks (~8192 simulated seconds — orders
of magnitude above any proxy run). Exactness buys the two properties
fast-forward is built on:

* sums are order-independent — accumulating a per-call delay call by
  call equals one multiply-and-add, bit for bit;
* a periodic schedule is *exactly* periodic — per-cycle time deltas
  and counter deltas repeat as identical floats, so a fixed point can
  be certified by bit comparison.

Only *delays fed into the simulator* are quantized (kernel times,
transfer times, driver overheads, injected slack, host CPU work);
model parameters and analysis outputs are untouched. That includes
the proxy's ``iteration_spacing_s`` and ``thread_launch_offset_s``,
host delays like any other (``FlatDevice.cpu``).
"""

from __future__ import annotations

import math

__all__ = ["TICK_S", "quantize"]

#: The dyadic time grid: one tick is 2^-40 seconds (~0.9 ps).
TICK_S = 2.0**-40

#: Exact reciprocal of the tick (a power of two, so multiplying by it
#: only shifts the exponent — no rounding).
_TICKS_PER_S = 2.0**40


def quantize(seconds: float) -> float:
    """Round ``seconds`` to the nearest multiple of :data:`TICK_S`.

    Non-positive inputs collapse to 0.0 (delays are never negative in
    the simulator; a defensive clamp beats propagating -0.0). The
    result is exactly representable, and sums of results remain exact
    up to 2^53 ticks (~8192 s).

    >>> quantize(0.0)
    0.0
    >>> quantize(quantize(1e-4)) == quantize(1e-4)
    True
    >>> abs(quantize(1e-4) - 1e-4) < TICK_S
    True
    """
    if seconds <= 0.0:
        return 0.0
    # seconds * 2^40 is exact (pure exponent shift); the +0.5/floor
    # round-to-nearest is exact while the scaled value stays below
    # 2^52, i.e. for delays under ~4096 s.
    return math.floor(seconds * _TICKS_PER_S + 0.5) * TICK_S
