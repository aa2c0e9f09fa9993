"""Trace export: Chrome trace-event JSON and latency breakdowns.

:func:`chrome_trace` turns a :class:`~repro.obs.trace.Tracer`'s spans
into the Chrome trace-event JSON object format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: one ``"X"``
(complete) event per span with microsecond ``ts``/``dur``, one
process, and one named thread row per track (client, net, and each
station/balancer/fanout).  :func:`validate_chrome_trace` checks a
payload against the parts of the trace-event contract the viewers
actually enforce -- the CI smoke gate for ``repro run --trace``.

:func:`latency_breakdown` aggregates span durations per stage name,
the per-stage table ``repro run --trace`` prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.trace import Tracer

#: Span-name prefix -> trace event category.
_CATEGORIES = {
    "client": "client",
    "net": "net",
    "lb": "cluster",
    "fanout": "cluster",
    "queue": "server",
    "service": "server",
    "request": "request",
}

#: Phases emitted by :func:`chrome_trace` (and accepted by the
#: validator): complete spans and metadata only.
_VALID_PHASES = frozenset("XMiIbBeEsStfPNODvVC")


def _category(name: str) -> str:
    return _CATEGORIES.get(name.split(".", 1)[0], "other")


def chrome_trace(tracer: Tracer, label: str = "repro") -> Dict[str, Any]:
    """Render *tracer*'s spans as a Chrome trace-event JSON object.

    Args:
        tracer: the recorded spans.
        label: process name shown in the viewer.

    Returns:
        The JSON-ready payload (``{"traceEvents": [...], ...}``).
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": label},
    }]
    tracks: Dict[str, int] = {}
    for name, start, end, request_id, track, detail in tracer.spans:
        tid = tracks.get(track)
        if tid is None:
            tid = len(tracks) + 1
            tracks[track] = tid
        args: Dict[str, Any] = {"request_id": request_id}
        if detail is not None:
            args["detail"] = detail
        events.append({
            "name": name,
            "cat": _category(name),
            "ph": "X",
            "ts": start,
            "dur": end - start,
            "pid": 0,
            "tid": tid,
            "args": args,
        })
    for track, tid in tracks.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": track},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(tracer.spans),
            "dropped_spans": tracer.dropped,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       label: str = "repro") -> Dict[str, Any]:
    """Validate and write the trace JSON to *path*; return the payload."""
    payload = chrome_trace(tracer, label=label)
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return payload


def validate_chrome_trace(payload: Any) -> int:
    """Check *payload* against the Chrome trace-event object format.

    Returns:
        The number of trace events validated.

    Raises:
        ValueError: describing the first malformed event found.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"trace payload must be a JSON object, got "
            f"{type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload needs a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _VALID_PHASES:
            raise ValueError(f"{where} has invalid phase {phase!r}")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where} needs a non-empty string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where} needs an integer {key!r}")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not np.isfinite(ts):
            raise ValueError(f"{where} needs a finite numeric ts")
        if phase == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or not np.isfinite(dur) or dur < 0):
                raise ValueError(
                    f"{where} needs a finite non-negative dur, "
                    f"got {dur!r}")
    return len(events)


# ------------------------------------------------------------ breakdown
def latency_breakdown(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per-stage duration statistics over all recorded spans.

    Returns:
        span name -> ``{count, total_us, mean_us, p50_us, p99_us,
        max_us}``, zero-duration instants included (they aggregate to
        zero rows, which keeps the table exhaustive).
    """
    durations: Dict[str, List[float]] = {}
    for name, start, end, _request_id, _track, _detail in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    out: Dict[str, Dict[str, float]] = {}
    for name, values in durations.items():
        array = np.asarray(values, dtype=np.float64)
        out[name] = {
            "count": float(array.size),
            "total_us": float(array.sum()),
            "mean_us": float(array.mean()),
            "p50_us": float(np.percentile(array, 50.0)),
            "p99_us": float(np.percentile(array, 99.0)),
            "max_us": float(array.max()),
        }
    return out


def render_breakdown_table(
        breakdown: Dict[str, Dict[str, float]],
        total_request_us: Optional[float] = None) -> str:
    """Format a :func:`latency_breakdown` as an aligned text table.

    Args:
        breakdown: per-stage statistics.
        total_request_us: when given, adds a ``% of request`` column
            (stage total over total request-span time).
    """
    header = ["stage", "count", "mean us", "p50 us", "p99 us",
              "max us", "total us"]
    if total_request_us:
        header.append("% of req")
    rows: List[List[str]] = []
    ordered = sorted(breakdown.items(),
                     key=lambda item: -item[1]["total_us"])
    for name, stats in ordered:
        row = [
            name,
            f"{int(stats['count'])}",
            f"{stats['mean_us']:.2f}",
            f"{stats['p50_us']:.2f}",
            f"{stats['p99_us']:.2f}",
            f"{stats['max_us']:.2f}",
            f"{stats['total_us']:.1f}",
        ]
        if total_request_us:
            row.append(
                f"{100.0 * stats['total_us'] / total_request_us:.1f}%")
        rows.append(row)
    widths = [max(len(header[col]),
                  *(len(row[col]) for row in rows)) if rows
              else len(header[col])
              for col in range(len(header))]
    lines = ["  ".join(title.ljust(widths[col])
                       for col, title in enumerate(header))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col])
            for col, cell in enumerate(row)))
    return "\n".join(lines)
