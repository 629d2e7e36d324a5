"""Spans recorded from outside the program, around calls into its
public functions, kept in memory until the run ends.

A span is (name, start, end, parent, run id).  A layer's self time is
its spans' duration minus the part covered by their child spans.  The
closure check asks that the top-level spans plus the time no span
covers add up to the traced wall time, and that the uncovered part
stays small: a public call that nobody wrapped then fails the check
instead of hiding in the generator's share.
"""

from __future__ import annotations

import time

clock_ns = time.perf_counter_ns

#: Largest share of a traced lifecycle's wall time that may fall
#: outside every top-level span (the load generator's own loop).
UNSPANNED_BOUND = 0.10
#: Largest gap between (top-level spans + unspanned) and wall time, as
#: a share of wall time; non-zero only if top-level spans overlap.
CLOSURE_TOLERANCE = 0.01


class Span:
    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name: str, start: int, parent: "int | None", run: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index].end = clock_ns()
        self.tracer._stack.pop()


class Tracer:
    """Records one span per ``with tracer.span(name):`` block.

    Single-threaded by design: the load generator drives every workload
    from one thread, so a plain stack gives each span its parent."""

    enabled = True

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, clock_ns(), parent, self.run))
        self._stack.append(index)
        return _Open(self, index)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run's stand-in: every span is a shared no-op."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def self_times_ms(spans: "list[Span]") -> "dict[str, list[float]]":
    """Per span name, the self time of each span (ms)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    out: "dict[str, list[float]]" = {}
    for span, covered in zip(spans, child_ns):
        out.setdefault(span.name, []).append(
            (span.end - span.start - covered) / 1e6
        )
    return out


def durations_ms(spans: "list[Span]", name: str) -> "list[float]":
    return [(s.end - s.start) / 1e6 for s in spans if s.name == name]


def closure(spans: "list[Span]", start_ns: int, end_ns: int) -> dict:
    """Split ``[start_ns, end_ns]`` into top-level span time and the
    gaps between top-level spans (measured, not taken as a
    remainder), and check that they close on the wall time."""
    top = sorted(
        (s for s in spans if s.parent is None), key=lambda s: s.start
    )
    spanned = sum(s.end - s.start for s in top)
    gaps = 0
    cursor = start_ns
    for span in top:
        if span.start > cursor:
            gaps += span.start - cursor
        cursor = max(cursor, span.end)
    if end_ns > cursor:
        gaps += end_ns - cursor
    wall = end_ns - start_ns
    error = abs(spanned + gaps - wall) / wall
    return {
        "wall_ms": wall / 1e6,
        "spanned_ms": spanned / 1e6,
        "unspanned_ms": gaps / 1e6,
        "closes": error <= CLOSURE_TOLERANCE and gaps <= UNSPANNED_BOUND * wall,
        "error": error,
    }
