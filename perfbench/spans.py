"""Span timers wrapped around the package's public functions, from outside.

The benchmark never edits the package. :class:`SpanRecorder` replaces a
function or method with a timing wrapper at *every* place the running
interpreter holds a reference to it: the defining module, each
``from ... import name`` copy in another module, module-level dicts
such as ``PLACEMENT_POLICIES``, and the app registry's ``profiler``
fields. Modules imported after installation copy the wrapper from the
defining module. A binding the patcher missed reads as zero calls,
which the coverage table in layers.py turns into a failure.

Each span accumulates its call count, its inclusive time (outermost
calls only, so recursion is not double counted) and its *self* time:
inclusive time minus the time covered by child spans. Everything stays
in memory and is reduced to per-name totals when the sample ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["SpanRecorder", "SpanStats", "cprofile_crosscheck"]

#: A span name, or ``(args, kwargs) -> name`` for spans named after an
#: argument (experiment id, fleet mode).
SpanName = Union[str, Callable[[tuple, dict], str]]


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Installs span wrappers and accumulates their timings."""

    def __init__(self) -> None:
        #: Per span name: what the per-layer metrics read.
        self.spans: Dict[str, SpanStats] = {}
        #: Per wrapped function ``module.qualname``: what cProfile sees.
        self.targets: Dict[str, SpanStats] = {}
        #: cProfile key ``(file, line, name)`` of each original function.
        self.code_keys: Dict[str, Tuple[str, int, str]] = {}
        #: Binding sites patched per target.
        self.sites: Dict[str, int] = {}
        #: Additive values read off return values (see ``observe``).
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}

    # -- the wrapper ---------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        target: str,
        name: SpanName,
        observe: Optional[Callable[[object], Dict[str, float]]],
    ) -> Callable:
        stack = self._stack
        depth_of = self._depth
        spans = self.spans
        counts = self.counts
        target_stats = self.targets[target]

        def span_wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            depth = depth_of.get(target, 0)
            depth_of[target] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    for key, value in observe(result).items():
                        counts[key] = counts.get(key, 0.0) + value
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth_of[target] = depth
                st = spans.get(label)
                if st is None:
                    st = spans[label] = SpanStats()
                st.calls += 1
                st.self_s += dt - frame[0]
                target_stats.calls += 1
                if depth == 0:
                    st.total_s += dt
                    target_stats.total_s += dt
                if stack:
                    stack[-1][0] += dt

        span_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        span_wrapper.__name__ = fn.__name__
        span_wrapper.__qualname__ = fn.__qualname__
        span_wrapper.__doc__ = fn.__doc__
        return span_wrapper

    def _register(self, target: str, fn: Callable) -> None:
        code = fn.__code__
        self.code_keys[target] = (
            code.co_filename,
            code.co_firstlineno,
            code.co_name,
        )
        self.targets[target] = SpanStats()
        self.sites[target] = 0

    # -- installation --------------------------------------------------------
    def function(
        self,
        module: str,
        attr: str,
        name: SpanName,
        observe: Optional[Callable[[object], Dict[str, float]]] = None,
    ) -> None:
        """Wrap ``module.attr`` at every binding site in the process.

        ``observe(result)`` may return additive values read off the
        call's result; they accumulate into :attr:`counts`.
        """
        orig = getattr(importlib.import_module(module), attr)
        target = f"{module}.{attr}"
        self._register(target, orig)
        wrapped = self._wrap(orig, target, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            namespace = getattr(mod, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self.sites[target] += 1
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapped
                            self.sites[target] += 1
        registry = sys.modules.get("repro.apps.registry")
        if registry is not None:
            apps = registry._REGISTRY
            for app_name, app in list(apps.items()):
                if app.profiler is orig:
                    apps[app_name] = dataclasses.replace(app, profiler=wrapped)
                    self.sites[target] += 1

    def method(
        self,
        module: str,
        cls_name: str,
        attr: str,
        name: SpanName,
        observe: Optional[Callable[[object], Dict[str, float]]] = None,
    ) -> None:
        """Wrap a method or classmethod on its class (one binding site)."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        target = f"{module}.{cls_name}.{attr}"
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        self._register(target, fn)
        wrapped = self._wrap(fn, target, name, observe)
        setattr(
            cls, attr,
            classmethod(wrapped) if isinstance(raw, classmethod) else wrapped,
        )
        self.sites[target] = 1

    # -- reading -------------------------------------------------------------
    def total_self_s(self) -> float:
        """Summed self time of every span: the time inside any span."""
        return sum(s.self_s for s in self.spans.values())

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        for st in self.targets.values():
            st.calls = 0
            st.total_s = 0.0
            st.self_s = 0.0


def cprofile_crosscheck(
    recorder: SpanRecorder,
    profile_stats,
    *,
    rel_tol: float,
    per_call_s: float,
) -> Tuple[float, List[str]]:
    """Compare each wrapper's inclusive time with cProfile's ``cumtime``.

    ``profile_stats`` is a :class:`pstats.Stats` of the same code the
    spans timed. A target agrees when ``|span - cumtime| <= rel_tol *
    cumtime + per_call_s * calls``; the per-call term covers the
    profiler's own entry and exit hooks around the wrapped call, which
    land inside the span but outside ``cumtime``. Returns the worst
    relative deviation among targets with at least 1 ms of ``cumtime``,
    and one line per disagreeing target. Targets never called are
    skipped.
    """
    raw = profile_stats.stats
    problems: List[str] = []
    worst = 0.0
    for target, st in recorder.targets.items():
        if st.calls == 0:
            continue
        entry = raw.get(recorder.code_keys[target])
        if entry is None:
            problems.append(f"{target}: absent from the cProfile stats")
            continue
        cumtime = entry[3]
        dev = abs(st.total_s - cumtime)
        if cumtime >= 1e-3:
            worst = max(worst, dev / cumtime)
        if dev > rel_tol * cumtime + per_call_s * st.calls:
            problems.append(
                f"{target}: span {st.total_s:.6f} s vs cProfile "
                f"cumtime {cumtime:.6f} s over {st.calls} calls"
            )
    return worst, problems
