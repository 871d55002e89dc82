"""Span tracing for the traced benchmark run.

Library functions are wrapped where the calling module looks them up (for
example ``nilconj.oracle.matrix_at``, which ``detect_conjugate`` resolves
through its module globals), so no file of the library changes.  Each call
records a span (name, start, end, parent, item) and optional counts; spans
stay in memory until the run writes them out.  A span's layer is the part of
its name before the first dot.
"""

from __future__ import annotations

import collections
import functools
import statistics
import time
from typing import Any, Callable, Optional

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder that patches module attributes and restores them."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int, int]]] = []
        self.counts: collections.Counter = collections.Counter()
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.item)

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    def span(self, name: str) -> "_Span":
        """Context manager for a span around harness code."""
        return _Span(self, name)

    def patch(self, module: Any, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, hook))
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def closed_spans(self) -> list[tuple[str, float, float, int, int]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        spans = self.closed_spans()
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def total(self, *names: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.closed_spans()
                   if name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.closed_spans() if s[0] in names)

    def child_total(self, parent_name: str, child_name: str) -> float:
        spans = self.closed_spans()
        return sum(end - start for name, start, end, parent, _ in spans
                   if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = collections.defaultdict(float)
        for (name, *_), own in zip(self.closed_spans(), self.self_times()):
            out[name.split(".", 1)[0]] += own
        return dict(out)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.idx, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx, self.parent, self.name, self.start)


def span_cost_s(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra wall time one traced call costs over a plain call."""

    def noop() -> None:
        return None

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap(noop, "trace.calibrate")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(samples))
