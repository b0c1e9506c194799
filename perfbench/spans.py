"""In-memory span tracer and the self-time arithmetic over its spans.

A span records a name, a start and end time, the span that was open when
it began (its parent) and the trial it belongs to. Spans stay in memory
while the benchmark runs and are written out once, when it ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    trial: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a span's trial defaults to its parent's."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), math.nan, parent, trial))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()


def children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        inner = [(spans[k].start, spans[k].end) for k in kids.get(i, [])]
        out.append(s.duration - covered(inner, s.start, s.end))
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    kids = children(spans)
    out, todo = [], list(kids.get(root, []))
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids.get(i, []))
    return sorted(out)


def total(spans: list[Span], name: str, roots: list[int]) -> float:
    """Summed duration of the spans called ``name`` below any of ``roots``."""
    return sum(
        spans[i].duration
        for r in roots
        for i in descendants(spans, r)
        if spans[i].name == name
    )


def trial_time(spans: list[Span], root: int) -> float:
    """Time below ``root`` spent on trials: the outermost span of each trial,
    so that work nested inside a trial's span is not counted twice."""
    out = 0.0
    for i in descendants(spans, root):
        s = spans[i]
        if s.trial is None:
            continue
        parent = spans[s.parent] if s.parent is not None else None
        if parent is None or parent.trial != s.trial:
            out += s.duration
    return out


def write(path: Path, passes: list[list[Span]]) -> None:
    """Write every pass's spans as JSON, one list per pass."""
    path.write_text(
        json.dumps([[asdict(s) for s in spans] for spans in passes]) + "\n",
        encoding="utf-8",
    )
