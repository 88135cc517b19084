"""Spans and counters recorded from the benchmark's side of each layer boundary.

A span has a name, start, end, parent span and run id.  Spans stay in
memory and are written out when the run ends.  Replayed inner calls are
recorded as children of the outer call they stand for, so a layer's
self time is its span minus its replayed children.  Durations are read
in reference seconds once rescale() has been given the run's calibrated
stretches.  With tracing off the benchmark uses NullTracer, whose span()
costs one context manager.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    replay: bool
    tag: str = ""
    ref: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start if self.ref is None else self.ref


@dataclass
class Tracer:
    run_id: str
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, replay: bool = False, tag: str = ""):
        """Time a call; yields the span id for replays that refer to it."""
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(sid, name, time.perf_counter(), 0.0, parent, replay, tag)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def count(self, name: str, n: int = 1):
        self.counters[name] += n

    def tag(self, sid: int, tag: str):
        self.spans[sid].tag = tag

    def total(self, name: str, tag: str | None = None) -> float:
        return sum(s.duration for s in self.spans if s.name == name and tag in (None, s.tag))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Sum over spans called name of duration minus replayed children."""
        replayed = Counter()
        for s in self.spans:
            if s.replay and s.parent is not None:
                replayed[s.parent] += s.duration
        return sum(s.duration - replayed[s.id] for s in self.spans if s.name == name)

    def outer_time(self) -> float:
        """Time inside top-level spans that are not replays."""
        return sum(s.duration for s in self.spans if s.parent is None and not s.replay)

    def rescale(self, stretches: list[tuple[float, float, float]]):
        """Give every span its reference duration from (start, end, scale) stretches.

        Stretches are sorted and disjoint; time outside them (the
        calibration kernel's own runs) does not count.
        """
        starts = [a for a, _, _ in stretches]
        for s in self.spans:
            ref = 0.0
            i = max(bisect.bisect_right(starts, s.start) - 1, 0)
            while i < len(stretches) and stretches[i][0] < s.end:
                a, b, scale = stretches[i]
                ref += max(0.0, min(b, s.end) - max(a, s.start)) * scale
                i += 1
            s.ref = ref

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "counters": dict(self.counters),
                    "spans": [vars(s) for s in self.spans],
                },
                fh,
            )


class NullTracer:
    """Tracing off: no spans, no counters, no replays."""

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, replay: bool = False, tag: str = ""):
        yield None

    def count(self, name: str, n: int = 1):
        pass
