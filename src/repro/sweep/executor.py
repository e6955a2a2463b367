"""Pluggable sweep execution backends with persistent pools.

The sweep runner used to open an ad-hoc ``multiprocessing.Pool`` inside
every ``run_sweep`` call.  That conflated three separable concerns —
*where* tasks run, *how long* the workers live, and *how* results travel
back — and re-paid pool spawn-up for every sweep of a multi-sweep
experiment.  This module owns all three:

* :class:`SerialExecutor` — in-process, zero-overhead execution.  Tasks
  are queued at :meth:`~SweepExecutor.submit` and executed lazily when
  :meth:`~SweepExecutor.next_completed` asks for them, which is what
  makes the adaptive scheduler's speculative submissions free in serial
  mode (a block that is never collected is never simulated).
* :class:`ProcessExecutor` — a **persistent** ``ProcessPoolExecutor``
  that outlives individual sweeps: experiments (and the CLI, across
  experiments) create one executor and pass it to every ``run_sweep``
  call, so back-to-back sweeps reuse warm workers.  The pool is created
  lazily on first submit — a sweep resolved entirely from cache never
  forks.  Worker crashes are survived: the pool is rebuilt and every
  uncollected task resubmitted (tasks are deterministic, so a retry is
  bitwise identical), up to ``max_restarts`` rebuilds.
* :class:`VirtualExecutor` — serial execution under a simulated parallel
  clock with ``workers`` virtual workers and a caller-supplied cost
  model.  Scheduling decisions and completion *order* are exactly those
  of a real pool with the modelled task durations, which gives
  deterministic, machine-independent regression tests for scheduling
  quality (``benchmarks/test_bench_executor.py`` pins the block-level
  scheduler's speedup over the old per-cell pool this way).

Results are 1-D or 2-D ``float64`` arrays.  Pool workers run every task
through :func:`_invoke_task`, which returns ``(result, exec_s)``, and
the pool pickles that pair back.

Determinism contract: executors only move arrays; they never change
them.  Every backend returns, for the same submitted task, the same
bytes — the property tests in ``tests/test_executor.py`` assert serial
== process bitwise for both engines and both budget kinds, including
across injected worker crashes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..faults import FAULTS
from ..obs import BUS

__all__ = [
    "SweepExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "VirtualExecutor",
    "make_executor",
    "ensure_executor",
    "resolve_workers",
    "BACKENDS",
]

#: Known backend names (``auto`` resolves on the worker count).
BACKENDS = ("auto", "serial", "process")

#: Fault-injection hook for the crash/restart tests: when this variable
#: names a file holding an integer ``n > 0``, the next task execution in
#: a worker decrements it and hard-kills the worker (``os._exit``).
#: Production runs never set it.
CRASH_ENV = "REPRO_EXECUTOR_CRASH"

#: How many pool rebuilds a ProcessExecutor tolerates before giving up.
DEFAULT_MAX_RESTARTS = 3

TaskFn = Callable[[object], np.ndarray]

#: The ``--workers`` knob: a count, ``-1``, or ``"auto"``.
WorkersLike = Union[int, str]


def resolve_workers(workers: WorkersLike) -> int:
    """Normalise a worker-count knob to a concrete integer.

    ``"auto"`` (or ``-1``) autotunes to the usable CPU count — the
    scheduling affinity mask where the platform exposes it, so a
    container limited to 4 of 64 cores gets 4 workers, not 64.  Plain
    integers pass through (``0``/``1`` mean serial).
    """
    if workers in ("auto", -1):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 0:
        raise ValueError(f"workers must be >= 0 or 'auto', got {workers!r}")
    return count


def _maybe_crash() -> None:
    """Honour the crash-injection hook (test-only; see :data:`CRASH_ENV`)."""
    path = os.environ.get(CRASH_ENV)
    if not path or not os.path.exists(path):
        return
    try:
        with open(path) as handle:
            remaining = int(handle.read().strip() or 0)
    except (OSError, ValueError):
        return
    if remaining <= 0:
        return
    try:
        with open(path, "w") as handle:
            handle.write(str(remaining - 1))
    except OSError:
        pass
    os._exit(37)


def _invoke_task(fn: TaskFn, payload: object) -> Tuple[np.ndarray, float]:
    """Worker-side wrapper: run one task, return ``(result, exec_s)``.

    The target of every pool-worker execution.  ``exec_s`` is
    the measured execution time: a worker's event bus is disabled by
    design (process-local; DESIGN.md §12), so timing travels back as
    result metadata and the *driver* emits it.
    """
    _maybe_crash()
    started = time.perf_counter()
    result = np.ascontiguousarray(np.asarray(fn(payload), dtype=np.float64))
    return result, time.perf_counter() - started


class SweepExecutor:
    """Abstract executor: submit picklable tasks, collect float64 arrays.

    The contract is deliberately tiny — it is the seam any further
    backend (threads, other hosts) plugs into:

    * :meth:`submit` registers ``fn(payload)`` and returns a ticket;
    * :meth:`next_completed` blocks until *some* submitted task is done
      and returns ``(ticket, result)``;
    * :attr:`pending` counts submitted-but-uncollected tasks;
    * :meth:`close` releases pools.

    ``fn`` must be a module-level function and ``payload`` picklable
    (the serial backends do not care, but tasks must stay portable
    across backends for results to be backend-independent).
    """

    backend: str = "?"
    workers: int = 1

    def submit(self, fn: TaskFn, payload: object) -> int:
        raise NotImplementedError

    def next_completed(self) -> Tuple[int, np.ndarray]:
        raise NotImplementedError

    def discard(self, tickets: Iterable[int]) -> None:
        """Abandon submitted tasks without collecting their results.

        The failure-cleanup seam: a caller whose run dies mid-flight
        must discard its outstanding tickets so a *shared* executor
        hands nothing stale to the next run.  Results of discarded
        tasks (including ones already computed) are dropped;
        never-started serial tasks are simply never executed.
        """
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(SweepExecutor):
    """In-process execution; tasks run lazily at collection time."""

    backend = "serial"
    workers = 1

    def __init__(self) -> None:
        self._tasks: Dict[int, Tuple[TaskFn, object]] = {}
        self._order: List[int] = []
        self._tickets = itertools.count()

    def submit(self, fn: TaskFn, payload: object) -> int:
        ticket = next(self._tickets)
        self._tasks[ticket] = (fn, payload)
        self._order.append(ticket)
        if BUS.enabled:
            BUS.counter("executor.submit", ticket=ticket, backend=self.backend)
            BUS.gauge(
                "executor.queue_depth", len(self._order), backend=self.backend
            )
        return ticket

    def next_completed(self) -> Tuple[int, np.ndarray]:
        if not self._order:
            raise RuntimeError("next_completed() with no pending tasks")
        ticket = self._order.pop(0)
        fn, payload = self._tasks.pop(ticket)
        started = time.perf_counter()
        result = np.asarray(fn(payload), dtype=np.float64)
        if BUS.enabled:
            BUS.counter(
                "executor.complete", ticket=ticket, backend=self.backend,
                exec_s=time.perf_counter() - started,
            )
        return ticket, result

    def discard(self, tickets: Iterable[int]) -> None:
        dropped = {t for t in tickets if t in self._tasks}
        for ticket in dropped:
            del self._tasks[ticket]
        self._order = [t for t in self._order if t not in dropped]

    @property
    def pending(self) -> int:
        return len(self._order)


class VirtualExecutor(SweepExecutor):
    """Serial execution under a simulated ``workers``-way parallel clock.

    ``cost_fn(fn, payload, result)`` models a task's duration in
    arbitrary units (e.g. the sum of simulated find times, a proxy for
    engine work).  Tasks execute eagerly at submit time — results are
    exact, only *time* is simulated — and are handed back in modelled
    completion order: a task starts at ``max(submit clock, earliest free
    virtual worker)`` exactly like a greedy pool, so schedulers driven
    by this executor make the same decisions they would against real
    hardware with those durations.  :attr:`makespan` is then a
    deterministic, machine-independent measure of scheduling quality.
    """

    backend = "virtual"

    def __init__(self, workers: int, cost_fn) -> None:
        self.workers = max(1, int(workers))
        self._cost_fn = cost_fn
        self._clock = 0.0
        self._free = [0.0] * self.workers
        self._heap: list = []
        self._tickets = itertools.count()
        self._seq = itertools.count()  # FIFO tie-break for equal finishes

    def submit(self, fn: TaskFn, payload: object) -> int:
        ticket = next(self._tickets)
        result = np.asarray(fn(payload), dtype=np.float64)
        cost = float(self._cost_fn(fn, payload, result))
        if cost < 0:
            raise ValueError(f"cost_fn returned a negative cost: {cost}")
        worker = min(range(self.workers), key=self._free.__getitem__)
        start = max(self._clock, self._free[worker])
        finish = start + cost
        self._free[worker] = finish
        heapq.heappush(
            self._heap, (finish, next(self._seq), ticket, result, cost)
        )
        if BUS.enabled:
            BUS.counter("executor.submit", ticket=ticket, backend=self.backend)
            BUS.gauge(
                "executor.queue_depth", len(self._heap), backend=self.backend
            )
        return ticket

    def next_completed(self) -> Tuple[int, np.ndarray]:
        if not self._heap:
            raise RuntimeError("next_completed() with no pending tasks")
        finish, _, ticket, result, cost = heapq.heappop(self._heap)
        self._clock = max(self._clock, finish)
        if BUS.enabled:
            # exec_s is in the virtual clock's modelled units.
            BUS.counter(
                "executor.complete", ticket=ticket, backend=self.backend,
                exec_s=cost,
            )
        return ticket, result

    def discard(self, tickets: Iterable[int]) -> None:
        dropped = set(tickets)
        self._heap = [
            entry for entry in self._heap if entry[2] not in dropped
        ]
        heapq.heapify(self._heap)

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def makespan(self) -> float:
        """Virtual time at which the last scheduled task finishes."""
        return max(self._free)


class _Record:
    __slots__ = ("ticket", "fn", "payload", "done")

    def __init__(self, ticket, fn, payload) -> None:
        self.ticket = ticket
        self.fn = fn
        self.payload = payload
        self.done = False


class ProcessExecutor(SweepExecutor):
    """Persistent worker pool with crash recovery.

    The pool is created lazily on first :meth:`submit` and lives until
    :meth:`close` — one executor serves every sweep of an experiment (or
    of a whole CLI invocation).  A dead worker breaks a
    ``ProcessPoolExecutor`` wholesale; this class absorbs that by
    rebuilding the pool and resubmitting every uncollected task, at most
    ``max_restarts`` times.  Because tasks are pure functions of their
    payloads, a resubmitted task returns byte-identical results — crash
    recovery is invisible in the output, which the fault-injection tests
    assert.  Workers run :func:`_invoke_task` and the pool pickles its
    ``(result, exec_s)`` pair back.
    """

    backend = "process"

    def __init__(
        self,
        workers: int,
        *,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        mp_context=None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._max_restarts = int(max_restarts)
        self._mp_context = mp_context
        self._lock = threading.RLock()
        self._ready: "queue.SimpleQueue" = queue.SimpleQueue()
        self._records: Dict[int, _Record] = {}
        self._tickets = itertools.count()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._restarts = 0
        self._closed = False

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._pool

    @property
    def restarts(self) -> int:
        """Pool rebuilds performed so far (crash-recovery telemetry)."""
        return self._restarts

    # -- submission / completion ---------------------------------------
    def submit(self, fn: TaskFn, payload: object) -> int:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            ticket = next(self._tickets)
            record = _Record(ticket, fn, payload)
            self._records[ticket] = record
            self._launch(record)
            depth = len(self._records)
        if BUS.enabled:
            BUS.counter("executor.submit", ticket=ticket, backend=self.backend)
            BUS.gauge("executor.queue_depth", depth, backend=self.backend)
        return ticket

    def _launch(self, record: _Record) -> None:
        """Submit one record to the current pool (lock held)."""
        generation = self._generation
        try:
            future = self._ensure_pool().submit(
                _invoke_task, record.fn, record.payload
            )
        except Exception:
            # Covers a broken pool, but also pool *creation* failing
            # (fork EAGAIN under memory pressure).  Escalate through the
            # rebuild path: each attempt burns a restart, so a machine
            # that cannot fork surfaces a RuntimeError to the caller
            # instead of hanging a callback thread.
            self._rebuild(generation)
            return
        future.add_done_callback(
            lambda f, r=record, g=generation: self._on_done(r, g, f)
        )

    def _on_done(self, record: _Record, generation: int, future) -> None:
        try:
            error = future.exception()
        except CancelledError:
            return  # superseded by a rebuild's resubmission
        with self._lock:
            if record.done or self._closed:
                return
            if isinstance(error, (BrokenProcessPool, BrokenExecutor)):
                # The worker died under this task; rebuild once per
                # generation and resubmit everything uncollected.
                self._rebuild(generation)
                return
            record.done = True
            outcome = error if error is not None else future.result()
        self._ready.put((record.ticket, outcome))

    def _rebuild(self, generation: int) -> None:
        with self._lock:
            if self._closed or generation != self._generation:
                return  # another failure already handled this generation
            self._generation += 1
            self._restarts += 1
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if self._restarts > self._max_restarts:
                failure = RuntimeError(
                    f"sweep worker pool crashed {self._restarts} times; "
                    f"giving up (max_restarts={self._max_restarts})"
                )
                for record in self._records.values():
                    if not record.done:
                        record.done = True
                        self._ready.put((record.ticket, failure))
                return
            resubmitted = 0
            for record in self._records.values():
                if record.done:
                    continue
                if BUS.enabled:
                    BUS.counter(
                        "executor.resubmit",
                        ticket=record.ticket, cause="pool_crash",
                    )
                self._launch(record)
                resubmitted += 1
            if BUS.enabled:
                BUS.counter(
                    "executor.restart",
                    generation=self._generation, resubmitted=resubmitted,
                )

    def next_completed(self) -> Tuple[int, np.ndarray]:
        while True:
            with self._lock:
                if not self._records:
                    raise RuntimeError(
                        "next_completed() with no pending tasks"
                    )
            ticket, outcome = self._ready.get()
            with self._lock:
                record = self._records.pop(ticket, None)
            if record is None:
                continue  # outcome of a discarded task; drop it
            if isinstance(outcome, BaseException):
                raise outcome
            result, exec_s = outcome
            if BUS.enabled:
                BUS.counter(
                    "executor.complete", ticket=ticket,
                    backend=self.backend, exec_s=exec_s,
                )
            return ticket, result

    def discard(self, tickets: Iterable[int]) -> None:
        with self._lock:
            for ticket in set(tickets):
                record = self._records.pop(ticket, None)
                if record is not None:
                    record.done = True  # late callbacks must not re-deliver

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._records)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            self._records.clear()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def make_executor(
    workers: WorkersLike = 0, backend: str = "auto"
) -> SweepExecutor:
    """Build an executor from the ``--workers`` / ``--backend`` knobs.

    ``backend="auto"`` serves resolved worker counts above one with a
    process pool and anything else serially (DESIGN.md §13).  Building a
    :class:`ProcessExecutor` starts no processes — its pool is created
    on first submit — so the only failure ``"auto"`` degrades from here
    is an injected ``executor.process`` fault: it falls back to serial
    with a single ``RuntimeWarning`` and a ``fault.degrade`` event.  A
    pool that fails to start later fails the sweep once its restart
    budget is spent.  Results are backend-independent by the
    determinism contract, so a degraded run is bitwise identical.

    Explicit ``"serial"`` / ``"process"`` force the choice and *fail*
    rather than degrade (``"process"`` with one worker still exercises
    the full IPC path).  ``workers`` accepts an integer or ``"auto"``
    (see :func:`resolve_workers`).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    count = resolve_workers(workers)
    if backend == "serial" or (backend == "auto" and count <= 1):
        return SerialExecutor()
    try:
        if FAULTS.enabled and FAULTS.check("executor.process") is not None:
            raise RuntimeError("injected process tier failure")
        return ProcessExecutor(count)
    except Exception as error:
        if backend == "process":
            raise
        warnings.warn(
            f"backend tier 'process' unavailable ({error}); "
            f"degrading to 'serial'",
            RuntimeWarning,
            stacklevel=2,
        )
        if BUS.enabled:
            BUS.counter(
                "fault.degrade", tier="process", fallback="serial",
                reason=str(error),
            )
        return SerialExecutor()


@contextmanager
def ensure_executor(
    executor: Optional[SweepExecutor],
    workers: WorkersLike = 0,
    backend: str = "auto",
) -> Iterator[SweepExecutor]:
    """Yield ``executor`` as-is, or an ephemeral one closed on exit.

    The sharing seam: experiments call this with their ``executor``
    parameter, so a caller-provided (persistent) executor is reused
    across every sweep in scope while bare ``workers=N`` calls still get
    a pool — scoped to the ``with`` block — without managing one.
    """
    if executor is not None:
        yield executor
        return
    ephemeral = make_executor(workers=workers, backend=backend)
    try:
        yield ephemeral
    finally:
        ephemeral.close()
