"""Span recording by wrapping call sites from outside the program.

A ``Tracer`` replaces chosen attributes (module functions or class
methods) with wrappers that record one span per call: name, start and
end (``perf_counter_ns``), the index of the enclosing span, and the id
of the sentence being processed. Spans stay in memory; ``restore`` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int      # index of the enclosing span, -1 at top level
    sentence: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sentence = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def new_sentence(self) -> None:
        self.sentence += 1

    def wrap(self, owner, attr: str, name: str,
             before: Callable | None = None, after: Callable | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner.attr`` must be defined on ``owner`` itself, so restoring
        it cannot shadow an inherited attribute. ``before(args, kwargs)``
        and ``after(args, kwargs, result)`` run outside the span's timing.
        """
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.sentence)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def coverage(spans: list[Span], start: int, end: int) -> float:
    """Share of the interval [start, end] covered by top-level spans."""
    covered = sum(max(0, min(s.end, end) - max(s.start, start)) for s in spans if s.parent < 0)
    return covered / (end - start)


def summarize(spans: list[Span], start: int, end: int) -> dict[str, dict]:
    """Per span name: calls, and self and total nanoseconds, counting
    only spans that begin inside [start, end]."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        if not start <= s.start <= end:
            continue
        row = table.setdefault(s.name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        row["calls"] += 1
        row["self_ns"] += own
        row["total_ns"] += s.end - s.start
    return table
