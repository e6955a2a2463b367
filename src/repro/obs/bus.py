"""The process-local event bus: one emission point, many sinks.

Instrumentation sites all follow one pattern::

    from ..obs import BUS
    ...
    if BUS.enabled:
        BUS.counter("cache.hit", kind="blocks", algorithm=spec.algorithm)

The ``BUS.enabled`` attribute read is the *entire* disabled-path cost —
no function call, no allocation — which is what lets the hot scheduler
and executor loops stay instrumented permanently (the benchmark guard
in ``benchmarks/test_bench_obs.py`` pins this at <= 2% of a quick
sweep).  The bus is enabled by attaching a sink (``start_tracing`` /
``tracing`` / ``attach``); detaching the last sink disables it again.

The bus is **process-local by design**: pool workers hold their own
(disabled, sink-less) instance and never emit — events would otherwise
need a cross-process transport whose backpressure could perturb
scheduling.  Worker-side execution *durations* still reach the
trace, shipped as plain metadata on result messages and emitted by the
driver.  Everything observable therefore happens in the driver process,
and nothing about tracing can change task content, submission order, or
fold order — the determinism-neutrality argument (DESIGN.md §12),
property-tested traced-vs-untraced across every backend.

Every emitted event also updates the attached
:class:`~repro.obs.metrics.MetricsRegistry` (counters count, gauges and
``*_s`` timing payloads feed histograms), so a closing trace can append
its ``trace.metrics`` rollup footer and ``run_sweep`` can derive the
worker-utilization summary without replaying the event stream.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from .events import SCHEMA_VERSION, Event
from .metrics import MetricsRegistry
from .sinks import JsonlSink, Sink

__all__ = [
    "TRACE_ENV",
    "EventBus",
    "BUS",
    "start_tracing",
    "stop_tracing",
    "tracing",
    "ensure_env_tracing",
]

#: Environment fallback for ``--trace``: a path here makes every
#: ``run_sweep`` in the process write a JSONL trace.
TRACE_ENV = "REPRO_TRACE_FILE"

#: Data keys whose float values are folded into ``<name>.<key>``
#: histograms on emission (pure execution time, span durations, ...).
_TIMING_KEYS = ("exec_s", "dur_s", "queue_s")


class EventBus:
    """Typed event emission with a one-attribute-read disabled path."""

    def __init__(self) -> None:
        #: The fast-path gate: instrumentation sites read this and
        #: nothing else when tracing is off.  Managed by attach/detach.
        self.enabled = False
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._sinks: List[Sink] = []
        self._seq = 0

    # -- sink management ----------------------------------------------
    def attach(self, sink: Sink) -> Sink:
        with self._lock:
            self._sinks.append(sink)
            self.enabled = True
        return sink

    def detach(self, sink: Sink, close: bool = True) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            self.enabled = bool(self._sinks)
        if close:
            sink.close()

    @property
    def sinks(self) -> List[Sink]:
        with self._lock:
            return list(self._sinks)

    # -- emission ------------------------------------------------------
    def emit(
        self, name: str, type: str, data: Optional[Dict[str, object]] = None
    ) -> None:
        """Build, fan out, and meter one event (no-op when disabled)."""
        if not self.enabled:
            return
        payload = data if data is not None else {}
        with self._lock:
            if not self._sinks:
                return
            self._seq += 1
            record = Event(
                name=name,
                type=type,
                ts=time.time(),
                seq=self._seq,
                pid=os.getpid(),
                data=payload,
                schema=SCHEMA_VERSION,
            ).to_record()
            for sink in self._sinks:
                sink.handle(record)
        if type == "counter":
            self.metrics.incr(name)
        elif type == "gauge":
            value = payload.get("value")
            if isinstance(value, (int, float)):
                self.metrics.observe(name, float(value))
        for key in _TIMING_KEYS:
            value = payload.get(key)
            if isinstance(value, (int, float)):
                self.metrics.observe(f"{name}.{key}", float(value))

    # Typed conveniences: keyword arguments become the data payload.
    def counter(self, name: str, **data: object) -> None:
        self.emit(name, "counter", data)

    def gauge(self, name: str, value: float, **data: object) -> None:
        data["value"] = value
        self.emit(name, "gauge", data)

    def span_start(self, name: str, **data: object) -> float:
        """Emit a span opening; returns a perf-counter start for the end."""
        self.emit(f"{name}.start", "span.start", data)
        return time.perf_counter()

    def span_end(self, name: str, started: float, **data: object) -> None:
        data["dur_s"] = time.perf_counter() - started
        self.emit(f"{name}.end", "span.end", data)


#: The process singleton every instrumentation site reads.
BUS = EventBus()

#: Sinks opened by :func:`ensure_env_tracing`, keyed by path, so the
#: env-driven trace opens once per process however many sweeps run.
_ENV_SINKS: Dict[str, Sink] = {}


def start_tracing(target: Union[str, Sink]) -> Sink:
    """Attach a trace sink (a JSONL path or a sink object) to the bus."""
    sink = JsonlSink(target) if isinstance(target, str) else target
    return BUS.attach(sink)


def stop_tracing(sink: Sink) -> None:
    """Emit the metrics footer, then detach and close the sink."""
    BUS.emit("trace.metrics", "metrics", BUS.metrics.snapshot())
    BUS.detach(sink, close=True)


@contextmanager
def tracing(target: Union[str, Sink]) -> Iterator[Sink]:
    """Scope tracing to a ``with`` block (footer written on exit)."""
    sink = start_tracing(target)
    try:
        yield sink
    finally:
        stop_tracing(sink)


def ensure_env_tracing() -> None:
    """Honour :data:`TRACE_ENV` (idempotent; called by ``run_sweep``).

    The sink stays attached for the life of the process — the footer is
    written by ``stop_tracing`` only for explicitly scoped traces, so an
    env-traced process accumulates all its sweeps into one file.
    """
    path = os.environ.get(TRACE_ENV)
    if not path or path in _ENV_SINKS:
        return
    _ENV_SINKS[path] = start_tracing(path)
