"""Outside-in layer spans for the benchmark's traced run.

The benchmark times each layer by wrapping the calls it makes into
that layer's public functions; nothing inside ``src/`` is touched.
Spans live in memory (one small list per span) and are rendered as
Chrome trace-event JSON once the run ends.

Every span records its name, start, end, parent and the repetition
it belongs to (``-1`` for set-up).  A span's *self time* is its
duration minus the time its child spans cover; the benchmark is
single-threaded while tracing, so children never overlap and that
cover is the sum of their durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List

#: Name of the root span of one timed repetition.
REP = "rep"
#: Repetition id of spans recorded during set-up.
SETUP = -1

# Span record fields (a list per span keeps recording cheap).
_NAME, _START, _END, _PARENT, _REP = range(5)


class NullRecorder:
    """Stand-in for :class:`SpanRecorder` when tracing is off."""

    def span(self, name: str):
        return nullcontext()


class SpanRecorder:
    """Records nested, repetition-tagged wall-clock spans."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.rep = SETUP
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.rep]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Route calls to ``obj.attr`` through a span called *name*.

        The wrapper is set on the instance, so only this object's
        calls are timed; the class and every other instance are left
        alone.
        """
        func = getattr(obj, attr)
        span = self.span

        def timed(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return func(*args, **kwargs)

        setattr(obj, attr, timed)

    # ------------------------------------------------------------ analysis
    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        own = [s[_END] - s[_START] for s in self.spans]
        for span in self.spans:
            if span[_PARENT] >= 0:
                own[span[_PARENT]] -= span[_END] - span[_START]
        return own

    def per_rep(self, name: str) -> Dict[int, float]:
        """Repetition id -> total duration of the spans called *name*."""
        totals: Dict[int, float] = {}
        for span in self.spans:
            if span[_NAME] == name:
                totals[span[_REP]] = (totals.get(span[_REP], 0.0)
                                      + span[_END] - span[_START])
        return totals

    def durations(self, name: str) -> List[List[float]]:
        """Per repetition (ordered by id), each span's duration."""
        out: Dict[int, List[float]] = {}
        for span in self.spans:
            if span[_NAME] == name and span[_REP] != SETUP:
                out.setdefault(span[_REP], []).append(
                    span[_END] - span[_START])
        return [out[rep] for rep in sorted(out)]

    def coverage(self) -> float:
        """Share of the repetitions' wall time that layer spans cover.

        The wall time is the summed duration of the :data:`REP` root
        spans; the covered time is the summed self time of every span
        below them.  What is left is the benchmark's own glue.
        """
        own = self.self_times()
        wall = covered = 0.0
        for index, span in enumerate(self.spans):
            if span[_REP] == SETUP:
                continue
            if span[_PARENT] < 0:
                wall += span[_END] - span[_START]
            else:
                covered += own[index]
        return covered / wall if wall > 0 else 0.0

    def chrome_trace(self, label: str,
                     metadata: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as a Chrome trace-event JSON object."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        own = self.self_times()
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": label}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "benchmark"}},
        ]
        for index, span in enumerate(self.spans):
            parent = span[_PARENT]
            events.append({
                "name": span[_NAME],
                "cat": span[_NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (span[_START] - origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "pid": 0,
                "tid": 1,
                "args": {"rep": span[_REP],
                         "parent": (self.spans[parent][_NAME]
                                    if parent >= 0 else None),
                         "self_us": own[index] * 1e6},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata, spans=len(self.spans))}
