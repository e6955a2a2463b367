"""Typed, schema-versioned observability events (DESIGN.md §12).

Every record the event bus emits is one :class:`Event`: a name from the
:data:`EVENT_SCHEMAS` registry, a type (span boundary, counter, gauge,
or the metrics footer), a wall-clock timestamp, a per-process sequence
number, and a flat JSON-serialisable ``data`` payload whose keys the
registry pins.  The registry is the contract the JSONL traces are
validated against (``repro-ants trace validate``, the CI trace job, and
``tests/test_obs.py``): an instrumentation site cannot silently invent
an event shape that downstream tooling has never seen.

Determinism-neutrality is structural: events *carry* wall-clock data but
nothing here is readable by the code that derives seeds or hashes specs
— the bus is write-only from the instrumented stack's point of view, and
rule R004 (``repro.checks``) rejects observability names flowing into
``derive_seed``/``SweepSpec`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EVENT_SCHEMAS",
    "Event",
    "validate_event",
]

#: Bumped on any change to the record layout or a registered schema.
SCHEMA_VERSION = 1

#: The four record shapes: paired span boundaries, occurrence counters,
#: sampled values, and the one metrics-snapshot footer record a closing
#: JSONL trace ends with.
EVENT_TYPES = ("span.start", "span.end", "counter", "gauge", "metrics")

#: ``name -> (type, allowed data keys)``.  A record may omit allowed
#: keys but never carry unknown ones; values must be JSON scalars (or
#: flat lists of scalars, for e.g. a chunk's distance axis).
EVENT_SCHEMAS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # Sweep lifecycle (one span per run_sweep call).
    "sweep.start": ("span.start", (
        "algorithm", "spec", "cells", "backend", "workers", "budget",
        "cache",
    )),
    "sweep.end": ("span.end", (
        "algorithm", "spec", "dur_s", "cells", "total_trials",
        "from_cache",
    )),
    # One executor task: a pack of adaptive blocks (parallel lists
    # ``distances``/``ks``/``blocks``), a fixed-path chunk, or a whole
    # wall-budget cell.  The span runs submit -> collect in the parent
    # process (queue + transport + execution); ``exec_s`` on the paired
    # executor.complete isolates pure execution time.  ``ticket`` is the
    # pairing key.
    "cell.block.start": ("span.start", (
        "ticket", "kind", "distance", "k", "block", "distances",
        "ks", "blocks", "speculative", "steal",
    )),
    "cell.block.end": ("span.end", (
        "ticket", "kind", "distance", "k", "block", "distances",
        "ks", "blocks", "dur_s", "discarded",
    )),
    # Adaptive stopping decisions and per-cell completion.
    "cell.stop": ("counter", (
        "distance", "k", "trials", "blocks", "reason",
    )),
    "cell.finish": ("counter", (
        "distance", "k", "trials", "new_trials", "source",
    )),
    # Executor seam (every backend).
    "executor.submit": ("counter", ("ticket", "backend")),
    "executor.complete": ("counter", ("ticket", "backend", "exec_s")),
    "executor.steal": ("counter", ("distance", "k", "block")),
    "executor.speculate": ("counter", ("distance", "k", "block")),
    "executor.discard": ("counter", ("distance", "k", "block")),
    "executor.resubmit": ("counter", ("ticket", "cause")),
    "executor.restart": ("counter", ("generation", "resubmitted")),
    "executor.queue_depth": ("gauge", ("value", "backend")),
    # Cache (v1 sweep entries and v2 block stores).
    "cache.hit": ("counter", ("kind", "algorithm", "cells", "trials")),
    "cache.miss": ("counter", ("kind", "algorithm")),
    "cache.append": ("counter", ("kind", "algorithm", "cells")),
    "cache.lock_wait": ("gauge", ("value", "acquired")),
    # Fault tolerance (repro.faults; DESIGN.md §13): injected faults,
    # degraded backend tiers, quarantined cache entries, checkpoint
    # resume, stale-temp reclamation.
    "fault.inject": ("counter", ("site", "mode", "rule")),
    "fault.degrade": ("counter", ("tier", "fallback", "reason")),
    "cache.quarantine": ("counter", ("kind", "path")),
    "cache.tmp_clean": ("counter", ("removed",)),
    "sweep.resume": ("counter", ("algorithm", "kind", "tasks", "trials")),
    "sweep.checkpoint": ("counter", ("algorithm", "kind", "tasks")),
    # Derived summaries emitted at sweep end.
    "worker.utilization": ("gauge", (
        "value", "busy_s", "wall_s", "workers", "backend",
    )),
    # The metrics-registry snapshot footer a closing trace ends with.
    "trace.metrics": ("metrics", ("counters", "histograms")),
}

_SCALAR_TYPES = (bool, int, float, str, type(None))


@dataclass(frozen=True)
class Event:
    """One emitted observability record (the JSONL line, as an object)."""

    name: str
    type: str
    ts: float  # wall-clock seconds (time.time epoch)
    seq: int  # per-process emission order
    pid: int
    data: Mapping[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_record(self) -> Dict[str, object]:
        """The JSON-serialisable dict a sink writes."""
        return {
            "schema": self.schema,
            "name": self.name,
            "type": self.type,
            "ts": self.ts,
            "seq": self.seq,
            "pid": self.pid,
            "data": dict(self.data),
        }


def _scalar_ok(value: object) -> bool:
    if isinstance(value, _SCALAR_TYPES):
        return True
    if isinstance(value, (list, tuple)):
        return all(isinstance(item, _SCALAR_TYPES) for item in value)
    return False


def validate_event(record: object) -> List[str]:
    """Schema-check one trace record; returns human-readable errors.

    An empty list means the record is valid.  This is the single
    validation path shared by ``repro-ants trace validate``, the CI
    trace job, and the property tests — keep it in lockstep with
    :data:`EVENT_SCHEMAS`.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    if record.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema {record.get('schema')!r} != {SCHEMA_VERSION}"
        )
    name = record.get("name")
    if name not in EVENT_SCHEMAS:
        return errors + [f"unknown event name {name!r}"]
    expected_type, allowed = EVENT_SCHEMAS[name]
    if record.get("type") != expected_type:
        errors.append(
            f"{name}: type {record.get('type')!r} != {expected_type!r}"
        )
    if not isinstance(record.get("ts"), (int, float)):
        errors.append(f"{name}: ts is not a number")
    if not isinstance(record.get("seq"), int):
        errors.append(f"{name}: seq is not an integer")
    if not isinstance(record.get("pid"), int):
        errors.append(f"{name}: pid is not an integer")
    data = record.get("data")
    if not isinstance(data, dict):
        return errors + [f"{name}: data is not an object"]
    if name == "trace.metrics":
        return errors  # the footer's values are nested snapshot dicts
    for key, value in data.items():
        if key not in allowed:
            errors.append(f"{name}: unknown data key {key!r}")
        elif not _scalar_ok(value):
            errors.append(
                f"{name}: data[{key!r}] is not JSON-scalar "
                f"({type(value).__name__})"
            )
    return errors
