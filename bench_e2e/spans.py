"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, a parent and the id of the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span's duration minus the
part of that interval its child spans cover, so the self times of all
spans of one operation add up to the operation's wall time.
"""

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    op: str
    name: str
    start: float
    end: float
    parent: Optional[int] = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans; nesting follows the ``span`` context managers."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, op):
        start = self.clock()
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), op, name, start, start, parent)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.clock()

    def add(self, name, op, start, end, parent=None):
        """Record a span measured elsewhere (e.g. server timestamps)."""
        span = Span(len(self.spans), op, name, start, end, parent)
        self.spans.append(span)
        return span

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    spans = ()

    def span(self, name, op):
        return nullcontext()


def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in intervals
                     if min(end, e) > max(start, s))
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """``{span id: self seconds}`` — duration minus child coverage."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: span.duration - covered(span.start, span.end,
                                             children.get(span.id, ()))
            for span in spans}


def layer_self_times(spans):
    """``{span name: (total self seconds, span count)}``."""
    totals = {}
    own = self_times(spans)
    for span in spans:
        total, count = totals.get(span.name, (0.0, 0))
        totals[span.name] = (total + own[span.id], count + 1)
    return totals
