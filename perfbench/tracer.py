"""Span-recording shims installed around the program's public entry points.

The program itself is not edited: :class:`Tracer` replaces a function or a
method with a wrapper that records one span per call (name, start, end,
parent span, request id) in memory.  Spans are summarised when the process
ends; nothing is written while the program runs.

A module-level function is replaced in its defining module *and* in every
loaded ``repro`` module that imported it by name, so ``from x import f``
call sites are traced too.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One finished span: (span id, parent id or 0, name, start, end, request id).
Span = Tuple[int, int, str, float, float, Optional[int]]

#: ``count(tracer, args, kwargs, result, parent_name)`` — adds counters.
CountHook = Callable[["Tracer", tuple, dict, object, Optional[str]], None]


class Tracer:
    """In-memory span recorder with runtime function/method patching."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[int]:
        return getattr(self._local, "request", None)

    @request_id.setter
    def request_id(self, value: Optional[int]) -> None:
        self._local.request = value

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        function: Callable,
        name: str,
        count: Optional[CountHook] = None,
        keep: Optional[Callable[[tuple], bool]] = None,
    ) -> Callable:
        """A wrapper recording a span named ``name`` around each call.

        ``keep(args)``, evaluated before the call, may veto the span (used
        for lazily-building accessors: only calls that build are spans).
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or (keep is not None and not keep(args)):
                return function(*args, **kwargs)
            stack = tracer._stack()
            parent_id, parent_name = stack[-1] if stack else (0, None)
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent_id, name, start, end, tracer.request_id)
                )
            if count is not None:
                count(tracer, args, kwargs, result, parent_name)
            return result

        traced.__wrapped__ = function
        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured here and now
        on a no-op (the spans it records are discarded)."""
        def noop():
            return None

        traced = self.wrap(noop, "tracer.calibration")
        kept, enabled = len(self.spans), self.enabled
        self.enabled = True
        try:
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - start
        finally:
            del self.spans[kept:]
            self.enabled = enabled
        return max(0.0, (wrapped - plain) / calls)

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def patch_function(
        self, module, attr: str, name: str, count: Optional[CountHook] = None
    ) -> None:
        original = getattr(module, attr)
        traced = self.wrap(original, name, count)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)

    def patch_method(
        self,
        cls,
        attr: str,
        name: str,
        count: Optional[CountHook] = None,
        keep: Optional[Callable[[tuple], bool]] = None,
    ) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, count, keep))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _rid in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, _rid in spans:
        out[name] += (end - start) - covered_length(children.get(sid, ()), start, end)
    return dict(out)


def inclusive_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: total duration, not counting a span nested (at any
    depth) inside another span of the same name."""
    by_id = {span[0]: span for span in spans}
    out: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, _rid in spans:
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[2] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[1])
        if not nested:
            out[name] += end - start
    return dict(out)


def top_self_layer(spans: Sequence[Span]) -> Tuple[str, float]:
    """The span name holding the largest share of all self time."""
    selfs = self_times(spans)
    total = sum(selfs.values())
    if not selfs or total <= 0:
        return "", 0.0
    name = max(selfs, key=selfs.get)
    return name, selfs[name] / total
