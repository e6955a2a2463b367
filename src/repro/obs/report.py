"""Wall-clock breakdown reports over JSONL traces.

``repro-ants trace report <file>`` renders what :func:`build_report`
computes from a trace's records: where the sweep's wall-clock went per
cell, how busy the workers were, how often the cache answered, and how
much work stealing/speculation did (and wasted).  Everything is derived
from the event stream alone — the report never needs the run's results,
so it works on traces from crashed runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["CellTime", "TraceReport", "build_report"]


@dataclass(frozen=True)
class CellTime:
    """Submit-to-collect time attributed to one cell (or fixed chunk)."""

    label: str
    total_s: float
    spans: int
    exec_s: float  # worker-measured execution time, when reported


@dataclass
class TraceReport:
    """Aggregated view of one trace (see :func:`build_report`)."""

    events: int
    wall_s: float
    sweeps: int
    cells: List[CellTime] = field(default_factory=list)
    workers: int = 1
    backend: str = "?"
    busy_s: float = 0.0
    utilization: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_appends: int = 0
    lock_wait_s: float = 0.0
    submitted: int = 0
    completed: int = 0
    steals: int = 0
    speculated: int = 0
    discarded: int = 0
    restarts: int = 0
    resubmits: int = 0
    faults_injected: int = 0
    degrades: int = 0
    quarantines: int = 0
    checkpoints: int = 0
    resumes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def render(self, top: int = 10) -> str:
        """The ``trace report`` text: breakdown tables, widest first."""
        lines = [
            f"trace: {self.events} events, {self.sweeps} sweep(s), "
            f"wall {self.wall_s:.3f}s "
            f"[backend={self.backend}, workers={self.workers}]",
            "",
            f"worker utilization: {100.0 * self.utilization:.1f}% "
            f"(busy {self.busy_s:.3f}s over "
            f"{self.workers} x {self.wall_s:.3f}s)",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.cache_hit_rate:.0f}% hit rate), "
            f"{self.cache_appends} appends, "
            f"lock wait {self.lock_wait_s:.3f}s",
            f"executor: {self.submitted} submitted, "
            f"{self.completed} completed, {self.steals} steals, "
            f"{self.speculated} speculative "
            f"({self.discarded} discarded), "
            f"{self.restarts} restarts, {self.resubmits} resubmits",
        ]
        if (
            self.faults_injected or self.degrades or self.quarantines
            or self.checkpoints or self.resumes
        ):
            lines.append(
                f"faults: {self.faults_injected} injected, "
                f"{self.degrades} tier degrades, "
                f"{self.quarantines} quarantined entries, "
                f"{self.checkpoints} checkpoints, {self.resumes} resumes"
            )
        lines.append("")
        shown = self.cells[:top]
        if shown:
            width = max(len(cell.label) for cell in shown)
            lines.append(
                f"top {len(shown)} cells by submit-to-collect time:"
            )
            lines.append(
                f"  {'cell':<{width}}  {'total_s':>9}  {'exec_s':>9}  "
                f"{'spans':>5}  {'share':>6}"
            )
            for cell in shown:
                share = cell.total_s / self.wall_s if self.wall_s else 0.0
                lines.append(
                    f"  {cell.label:<{width}}  {cell.total_s:>9.3f}  "
                    f"{cell.exec_s:>9.3f}  {cell.spans:>5}  "
                    f"{100.0 * share:>5.1f}%"
                )
        else:
            lines.append("no block spans recorded")
        return "\n".join(lines)


def _span_labels(data: Mapping[str, object]) -> List[str]:
    """The cells one executor-task span covers (one label per block)."""
    kind = data.get("kind")
    if kind == "chunk":
        distances = data.get("distances") or []
        joined = ",".join(str(d) for d in distances)
        return [f"k={data.get('k')} D={joined} (chunk)"]
    if kind == "pack" and data.get("distances"):
        pairs = zip(data.get("distances") or [], data.get("ks") or [])
        return [f"D={d} k={k}" for d, k in pairs]
    return [f"D={data.get('distance')} k={data.get('k')}"]


def build_report(
    records: Sequence[Mapping[str, object]]
) -> TraceReport:
    """Aggregate a trace's records into a :class:`TraceReport`."""
    counters: Dict[str, int] = {}
    wall_s = 0.0
    sweeps = 0
    workers = 1
    backend = "?"
    busy_s = 0.0
    lock_wait_s = 0.0
    utilization: Optional[float] = None
    util_busy, util_slot = 0.0, 0.0  # Σ busy_s / Σ workers*wall_s
    open_blocks: Dict[object, Tuple[float, Mapping[str, object]]] = {}
    exec_by_ticket: Dict[object, float] = {}
    cell_totals: Dict[str, List[float]] = {}
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    for record in records:
        name = record.get("name")
        data = record.get("data")
        data = data if isinstance(data, Mapping) else {}
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = float(ts) if first_ts is None else first_ts
            last_ts = float(ts)
        if record.get("type") == "counter" and isinstance(name, str):
            counters[name] = counters.get(name, 0) + 1
        if name == "sweep.start":
            sweeps += 1
            workers = int(data.get("workers", workers) or workers)
            backend = str(data.get("backend", backend))
        elif name == "sweep.end":
            dur = data.get("dur_s")
            if isinstance(dur, (int, float)):
                wall_s += float(dur)
        elif name == "cell.block.start":
            if isinstance(ts, (int, float)):
                open_blocks[data.get("ticket")] = (float(ts), data)
        elif name == "cell.block.end":
            opened = open_blocks.pop(data.get("ticket"), None)
            dur = data.get("dur_s")
            if opened is None or not isinstance(dur, (int, float)):
                continue
            labels = _span_labels(opened[1])
            exec_s = exec_by_ticket.pop(data.get("ticket"), 0.0)
            for label in labels:
                # A pack's time splits evenly across its blocks.
                entry = cell_totals.setdefault(label, [0.0, 0.0, 0.0])
                entry[0] += float(dur) / len(labels)
                entry[1] += 1
                entry[2] += exec_s / len(labels)
        elif name == "executor.complete":
            exec_s = data.get("exec_s")
            if isinstance(exec_s, (int, float)):
                busy_s += float(exec_s)
                exec_by_ticket[data.get("ticket")] = float(exec_s)
        elif name == "cache.lock_wait":
            value = data.get("value")
            if isinstance(value, (int, float)):
                lock_wait_s += float(value)
        elif name == "worker.utilization":
            value = data.get("value")
            if isinstance(value, (int, float)):
                utilization = float(value)
            busy = data.get("busy_s")
            wall = data.get("wall_s")
            slots = data.get("workers")
            if (
                isinstance(busy, (int, float))
                and isinstance(wall, (int, float))
                and isinstance(slots, (int, float))
            ):
                util_busy += float(busy)
                util_slot += float(slots) * float(wall)

    if wall_s <= 0.0 and first_ts is not None and last_ts is not None:
        wall_s = max(0.0, last_ts - first_ts)
    if util_slot > 0.0:
        # Multi-sweep traces carry one gauge per sweep; a time-weighted
        # aggregate beats last-gauge-wins (a trailing cache-hit sweep
        # would otherwise report a near-idle pool).
        utilization = util_busy / util_slot
    elif utilization is None:
        utilization = (
            busy_s / (workers * wall_s) if workers and wall_s > 0 else 0.0
        )
    cells = sorted(
        (
            CellTime(
                label=label, total_s=total, spans=int(spans), exec_s=exec_s
            )
            for label, (total, spans, exec_s) in cell_totals.items()
        ),
        key=lambda cell: cell.total_s,
        reverse=True,
    )
    return TraceReport(
        events=len(records),
        wall_s=wall_s,
        sweeps=sweeps,
        cells=cells,
        workers=workers,
        backend=backend,
        busy_s=busy_s,
        utilization=utilization,
        cache_hits=counters.get("cache.hit", 0),
        cache_misses=counters.get("cache.miss", 0),
        cache_appends=counters.get("cache.append", 0),
        lock_wait_s=lock_wait_s,
        submitted=counters.get("executor.submit", 0),
        completed=counters.get("executor.complete", 0),
        steals=counters.get("executor.steal", 0),
        speculated=counters.get("executor.speculate", 0),
        discarded=counters.get("executor.discard", 0),
        restarts=counters.get("executor.restart", 0),
        resubmits=counters.get("executor.resubmit", 0),
        faults_injected=counters.get("fault.inject", 0),
        degrades=counters.get("fault.degrade", 0),
        quarantines=counters.get("cache.quarantine", 0),
        checkpoints=counters.get("sweep.checkpoint", 0),
        resumes=counters.get("sweep.resume", 0),
    )
