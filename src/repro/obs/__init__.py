"""Observability: lifecycle tracing, metrics, and telemetry sinks.

The package behind ``repro run --trace`` and the ``RunPolicy``
observability knobs.  See :mod:`repro.obs.core` for the null-object hook contract
that keeps the traced-off hot path at one attribute check per site.
"""

from repro.obs.core import LinkObserver, Observability
from repro.obs.export import (
    chrome_trace,
    latency_breakdown,
    render_breakdown_table,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import (
    DEFAULT_SINK,
    SINK_COLUMNAR,
    SINK_STREAMING,
    SINKS,
    P2Quantile,
    Sink,
    StreamingSink,
    describe_sink,
    make_sink,
    sink_names,
    validate_sink_name,
)
from repro.obs.trace import DEFAULT_MAX_SPANS, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_SINK",
    "Gauge",
    "Histogram",
    "LinkObserver",
    "MetricsRegistry",
    "Observability",
    "P2Quantile",
    "SINKS",
    "SINK_COLUMNAR",
    "SINK_STREAMING",
    "Sink",
    "Span",
    "StreamingSink",
    "Tracer",
    "chrome_trace",
    "describe_sink",
    "latency_breakdown",
    "make_sink",
    "render_breakdown_table",
    "sink_names",
    "validate_chrome_trace",
    "validate_sink_name",
    "write_chrome_trace",
]
