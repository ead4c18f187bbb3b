"""LD_PRELOAD-style slack interposition — the rejected alternative.

Section III-B of the paper considers injecting slack by interposing a
shared object before the CUDA runtime (``LD_PRELOAD``). The approach
fails for applications whose CUDA calls are reached through statically
linked libraries: those calls bypass the shim, so the injected slack
*undercounts* the real CDI delay by the uncovered fraction. The paper
reports preliminary tests where the method "generally agreed" with the
proxy approach but coverage confidence was hard.

:class:`PreloadShim` models exactly that: a :class:`SlackModel` that
only delays a configurable fraction of calls. Comparing a shim-injected
run against the runtime's built-in injection quantifies the coverage
error — the reason the paper built the proxy instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..network.slack import SlackModel

__all__ = ["PreloadShim"]


class PreloadShim(SlackModel):
    """A slack model with incomplete call coverage.

    Parameters
    ----------
    slack_s:
        The per-call delay the shim would inject when it intercepts.
    coverage:
        Fraction of CUDA calls the dynamic linker actually routes
        through the shim (1.0 = everything dynamically linked; lower
        values model statically linked call paths).
    rng:
        Source of randomness deciding which calls are covered.
    """

    def __init__(
        self,
        slack_s: float,
        coverage: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(slack_s)
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {coverage}")
        self.coverage = coverage
        self._rng = rng or np.random.default_rng(0)
        self.calls_seen = 0
        self.calls_missed = 0

    def sample(self) -> float:
        """Per-call delay: zero whenever the call bypasses the shim."""
        self.calls_seen += 1
        if self.coverage < 1.0 and self._rng.random() >= self.coverage:
            self.calls_missed += 1
            return 0.0
        return super().sample()

    @property
    def observed_coverage(self) -> float:
        """Fraction of seen calls the shim actually delayed."""
        if self.calls_seen == 0:
            return 1.0
        return 1.0 - self.calls_missed / self.calls_seen

    def undercount_s(self) -> float:
        """Slack the shim failed to inject (missed calls x delay)."""
        return self.calls_missed * self.slack_s
