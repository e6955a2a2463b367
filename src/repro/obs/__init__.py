"""``repro.obs``: structured tracing, metrics, and profiling.

The observability substrate for the sweep stack (DESIGN.md §12): a
process-local event bus (:data:`BUS`) emitting typed, schema-versioned
events; sinks (JSONL trace files, in-memory collection); a metrics
registry of counters and histograms; a Chrome-trace exporter; and the
``trace report`` aggregation.  Instrumentation is threaded through
``sweep/runner.py``, ``sweep/executor.py`` and ``sweep/cache.py``
behind the one-attribute-read ``BUS.enabled`` gate.

Observability is determinism-neutral by construction: events carry
wall-clock data outward, nothing flows back into seeds, spec hashes, or
results (rule R004 polices the symbol names; traced-vs-untraced bitwise
parity is property-tested on every backend).
"""

from .bus import (
    BUS,
    TRACE_ENV,
    EventBus,
    ensure_env_tracing,
    start_tracing,
    stop_tracing,
    tracing,
)
from .chrome import to_chrome
from .events import EVENT_SCHEMAS, SCHEMA_VERSION, Event, validate_event
from .metrics import MetricsRegistry
from .report import TraceReport, build_report
from .sinks import JsonlSink, MemorySink, Sink, read_trace, trace_metrics

__all__ = [
    "BUS",
    "TRACE_ENV",
    "EventBus",
    "ensure_env_tracing",
    "start_tracing",
    "stop_tracing",
    "tracing",
    "to_chrome",
    "EVENT_SCHEMAS",
    "SCHEMA_VERSION",
    "Event",
    "validate_event",
    "MetricsRegistry",
    "TraceReport",
    "build_report",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "read_trace",
    "trace_metrics",
]
