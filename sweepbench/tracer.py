"""Per-layer timing for the traced pass, recorded from outside the program.

The layers are the repository's modules.  Each is timed by wrapping its
public functions where their callers look them up: the runner, the
engine and the samplers import these functions by name, so a wrapper
must replace the name in the *calling* module's namespace (patching the
defining module would miss every call).  Accumulator methods are patched
on their class, and the executor's ``submit``/``next_completed`` on the
executor instance the workload passes to ``run_sweep``.

Wrappers nest on one stack rooted at the workload's ``run_sweep`` call,
so every layer gets a self time (its time minus the time of the wrapped
calls inside it) and the self times add up to the sweep wall time.  Calls
made outside a traced sweep (the benchmark's own output checks) pass
through untimed.

The program's own ``repro.obs`` events are read through an in-memory
sink: worker execution time (``exec_s`` result metadata), scheduler
speculation and discards, cache hits and misses, lock waits.  Workers
never emit and the wrappers are installed after the pool has forked, so
on a process pool the parent process sees the engine layers only
through ``exec_s``.
"""

from __future__ import annotations

import collections
import functools
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.algorithms.base as algorithms_base
import repro.sim.events as sim_events
import repro.sweep.runner as sweep_runner
from repro.obs import MemorySink, start_tracing, stop_tracing
from repro.stats.accumulators import FindTimeAccumulator

ElemsFn = Optional[Callable[[tuple, dict], float]]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size_of(index: int, name: str) -> Callable[[tuple, dict], float]:
    """Elements of an array argument."""
    return lambda args, kwargs: float(np.size(_arg(args, kwargs, index, name)))


def _count_of(index: int, name: str) -> Callable[[tuple, dict], float]:
    """An integer count argument (``size=``, ``trials=``)."""
    return lambda args, kwargs: float(_arg(args, kwargs, index, name))


def _trials_times_worlds(args: tuple, kwargs: dict) -> float:
    worlds = _arg(args, kwargs, 1, "worlds")
    return float(_arg(args, kwargs, 3, "trials") * len(worlds))


def _bytes_at(index: int) -> Callable[[tuple, dict], float]:
    """Size of the file a writer was given, read after it returns."""
    def written(args: tuple, kwargs: dict) -> float:
        try:
            return float(os.path.getsize(args[index]))
        except (OSError, IndexError, TypeError):
            return 0.0
    return written


#: (owner, attribute, layer, operation, elements counter, bytes counter)
PATCHES: List[Tuple[object, str, str, str, ElemsFn, ElemsFn]] = [
    (sim_events, "spiral_position_array", "core", "core.spiral_position",
     _size_of(0, "t"), None),
    (sim_events, "spiral_hit_time_array", "core", "core.spiral_hit_time",
     _size_of(0, "dx"), None),
    (algorithms_base, "sample_uniform_ball", "core",
     "core.sample_uniform_ball", _count_of(2, "size"), None),
    (sweep_runner, "simulate_find_times_block", "sim", "sim.block",
     _count_of(3, "trials"), None),
    (sweep_runner, "simulate_find_times_batch", "sim", "sim.batch",
     _trials_times_worlds, None),
    (sweep_runner, "build_algorithm", "algorithms", "algorithms.build",
     None, None),
    (FindTimeAccumulator, "update", "stats", "stats.update", None, None),
    (FindTimeAccumulator, "summary", "stats", "stats.summary", None, None),
    (sweep_runner, "load_blocks", "cache", "cache.read", None, None),
    (sweep_runner, "load_result", "cache", "cache.read", None, None),
    (sweep_runner, "append_blocks", "cache", "cache.write", None,
     _bytes_at(1)),
    (sweep_runner, "save_result", "cache", "cache.write", None, _bytes_at(1)),
    (sweep_runner, "save_journal", "cache", "cache.write", None, _bytes_at(1)),
    (sweep_runner, "clear_journal", "cache", "cache.other", None, None),
    (sweep_runner, "clean_stale_files", "cache", "cache.other", None, None),
]

LAYERS = ("core", "sim", "algorithms", "stats", "cache", "executor", "runner")


class _Op:
    __slots__ = ("calls", "seconds", "elems", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.elems = 0.0
        self.bytes = 0.0


class Tracer:
    """Stack-based self-time accounting plus ``repro.obs`` event tallies."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.ops: Dict[str, _Op] = collections.defaultdict(_Op)
        self.events: Dict[str, float] = collections.defaultdict(float)
        # Executor task timing, from slot start (or submit) to collect.
        self.task_busy_s = 0.0
        self.task_queue_s = 0.0
        self.workers = 1
        self._restore: List[Callable[[], None]] = []
        self._sink: Optional[MemorySink] = None

    # -- the timed call --------------------------------------------------
    def _timed(self, layer, op, fn, elems, written, args, kwargs):
        frame = [0.0]
        self.stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            if self.stack:
                self.stack[-1][0] += elapsed
            record = self.ops[op]
            record.calls += 1
            record.seconds += elapsed
            if elems is not None:
                record.elems += elems(args, kwargs)
            if written is not None:
                record.bytes += written(args, kwargs)

    def wrap(
        self, layer: str, op: str, fn: Callable,
        elems: ElemsFn = None, written: ElemsFn = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            return tracer._timed(layer, op, fn, elems, written, args, kwargs)

        return wrapper

    def root(self, run_sweep: Callable) -> Callable:
        """``run_sweep`` as the root span: its time is the sweep wall."""
        tracer = self

        @functools.wraps(run_sweep)
        def traced_sweep(*args, **kwargs):
            return tracer._timed(
                "runner", "runner.sweep", run_sweep, None, None, args, kwargs
            )

        return traced_sweep

    @property
    def wall_s(self) -> float:
        """Total wall time of the traced sweeps."""
        return self.ops["runner.sweep"].seconds

    # -- installation -----------------------------------------------------
    def install(self, executor) -> None:
        for owner, name, layer, op, elems, written in PATCHES:
            original = owner.__dict__[name]
            wrapped = self.wrap(layer, op, original, elems, written)
            setattr(owner, name, wrapped)
            self._restore.append(
                lambda owner=owner, name=name, original=original:
                setattr(owner, name, original)
            )
        self._install_executor(executor)
        self._sink = MemorySink()
        start_tracing(self._sink)

    def _install_executor(self, executor) -> None:
        tracer = self
        self.workers = max(1, int(executor.workers))
        submit = self.wrap(
            "executor", "executor.submit", executor.submit
        )
        collect = self.wrap(
            "executor", "executor.collect", executor.next_completed
        )
        # Both executors dispatch in submission order: a task submitted
        # while every slot is busy starts when the next task is collected.
        submitted: Dict[int, float] = {}
        started: Dict[int, float] = {}
        waiting: collections.deque = collections.deque()

        def traced_submit(*args, **kwargs):
            ticket = submit(*args, **kwargs)
            if tracer.stack:
                now = time.perf_counter()
                submitted[ticket] = now
                if len(submitted) - len(waiting) <= tracer.workers:
                    started[ticket] = now
                else:
                    waiting.append(ticket)
            return ticket

        def traced_collect():
            ticket, result = collect()
            if tracer.stack and ticket in submitted:
                now = time.perf_counter()
                if waiting and ticket not in started:
                    waiting.remove(ticket)
                start = started.pop(ticket, submitted[ticket])
                tracer.task_queue_s += start - submitted.pop(ticket)
                tracer.task_busy_s += now - start
                if waiting:
                    started[waiting.popleft()] = now
            return ticket, result

        executor.submit = traced_submit
        executor.next_completed = traced_collect

        def restore() -> None:
            del executor.submit
            del executor.next_completed

        self._restore.append(restore)

    def uninstall(self) -> None:
        if self._sink is not None:
            self.drain()
            stop_tracing(self._sink)
            self._sink = None
        while self._restore:
            self._restore.pop()()

    def drain(self) -> None:
        """Fold the sink's ``repro.obs`` records into event tallies."""
        records, self._sink.records = self._sink.records, []
        for record in records:
            name = record["name"]
            data = record.get("data") or {}
            self.events[name] += 1
            if name == "executor.complete":
                self.events["exec_s"] += float(data.get("exec_s", 0.0))
            elif name == "cache.lock_wait":
                self.events["lock_wait_s"] += float(data.get("value", 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, units: int, setup: Dict[str, float],
    untraced_s: float, traced_s: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer table, per measured unit unless the name says a rate."""
    n = max(1, units)
    ops, self_s, ev = tracer.ops, tracer.self_s, tracer.events

    def per_elem(op: str, scale: float) -> float:
        return _ratio(ops[op].seconds * scale, ops[op].elems)

    def per_call(op: str, scale: float) -> float:
        return _ratio(ops[op].seconds * scale, ops[op].calls)

    speculated = ev["executor.speculate"]
    hits, misses = ev["cache.hit"], ev["cache.miss"]
    return {
        "core.spiral_position.ns_per_elem":
            (per_elem("core.spiral_position", 1e9), "ns"),
        "core.spiral_hit_time.ns_per_elem":
            (per_elem("core.spiral_hit_time", 1e9), "ns"),
        "core.sample_uniform_ball.ns_per_elem":
            (per_elem("core.sample_uniform_ball", 1e9), "ns"),
        "core.self_s": (self_s["core"] / n, "s"),
        "sim.block.calls": (ops["sim.block"].calls / n, "count"),
        "sim.block.trials_per_call": (
            _ratio(ops["sim.block"].elems, ops["sim.block"].calls), "count"
        ),
        "sim.block.us_per_trial": (per_elem("sim.block", 1e6), "us"),
        "sim.batch.us_per_trial": (per_elem("sim.batch", 1e6), "us"),
        "sim.self_s": (self_s["sim"] / n, "s"),
        "algorithms.build.calls": (ops["algorithms.build"].calls / n, "count"),
        "algorithms.build.self_s": (self_s["algorithms"] / n, "s"),
        "stats.summary.calls": (ops["stats.summary"].calls / n, "count"),
        "stats.summary.us_per_call":
            (per_call("stats.summary", 1e6), "us"),
        "stats.self_s": (self_s["stats"] / n, "s"),
        "runner.self_s": (self_s["runner"] / n, "s"),
        "runner.block_useful_ratio": (
            _ratio(speculated - ev["executor.discard"], speculated)
            if speculated else 1.0,
            "ratio",
        ),
        "executor.tasks": (ops["executor.submit"].calls / n, "count"),
        "executor.exec_s": (ev["exec_s"] / n, "s"),
        "executor.overhead_s":
            ((tracer.task_busy_s - ev["exec_s"]) / n, "s"),
        "executor.queue_s": (tracer.task_queue_s / n, "s"),
        "executor.utilization": (
            _ratio(ev["exec_s"], tracer.workers * tracer.wall_s), "ratio"
        ),
        "executor.self_s": (self_s["executor"] / n, "s"),
        "cache.read.calls": (ops["cache.read"].calls / n, "count"),
        "cache.read.ms_per_call": (per_call("cache.read", 1e3), "ms"),
        "cache.write.calls": (ops["cache.write"].calls / n, "count"),
        "cache.write.ms_per_call": (per_call("cache.write", 1e3), "ms"),
        "cache.bytes_written": (ops["cache.write"].bytes / n, "B"),
        "cache.lock_wait_s": (ev["lock_wait_s"] / n, "s"),
        "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "cache.self_s": (self_s["cache"] / n, "s"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.executor_s": (setup["executor_s"], "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def children_within_wall(tracer: Tracer) -> Tuple[float, float]:
    """(sum of child-layer self times, sweep wall), both in seconds."""
    children = sum(
        seconds for layer, seconds in tracer.self_s.items()
        if layer != "runner"
    )
    return children, tracer.wall_s


def layer_table(tracer: Tracer, units: int) -> List[str]:
    """Self time per layer and per unit, with its share of the sweep wall."""
    n = max(1, units)
    wall = tracer.wall_s / n
    lines = [f"layer self time per unit (sweep wall {wall:.6f}s):"]
    for layer in LAYERS:
        seconds = tracer.self_s.get(layer, 0.0) / n
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:<12} {seconds:>12.6f}s {share:>7.1%}")
    return lines
