"""In-memory metrics: counters and min/max/mean histograms.

The registry is the cheap always-on half of observability: the event
bus updates it on every emitted record (so a traced run gets both the
event stream *and* the rollup), and ``run_sweep`` reads it to compute
the worker-utilization summary.  ``snapshot()`` is what lands in the
``trace.metrics`` footer of a closing JSONL trace.

Thread-safe: the process pool's callback threads and the main
scheduler emit concurrently.
"""

from __future__ import annotations

import threading
from typing import Dict, List

__all__ = ["MetricsRegistry"]


class _Histogram:
    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": (self.total / self.count) if self.count else 0.0,
        }


class MetricsRegistry:
    """Named counters plus streaming histograms of observed values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, _Histogram] = {}

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(float(value))

    def count(self, name: str) -> int:
        """Counter value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def total(self, name: str) -> float:
        """Sum of observed values for a histogram (0.0 when empty)."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.total if histogram is not None else 0.0

    def names(self) -> List[str]:
        with self._lock:
            return sorted(set(self._counters) | set(self._histograms))

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serialisable rollup of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
