"""The sweep workloads, their inputs and their output checks.

Every workload runs the canonical grid D in {8, 16, 32, 64, 128} x
k in {1, 4, 16} with off-axis placement through the public
``repro.run_sweep`` API, as one client issuing sweeps back to back (a
closed loop).  Within a run every unit repeats the same spec, derived
from the run's seed, so every unit does the same work and a unit's
output must equal the first unit's bit for bit.  After each cold unit
the same spec is re-run from that unit's cache, the way a cached
experiment script is re-run, which times the cache read path.

The checks below use only facts the program guarantees, so none of them
can flake:

* determinism: the same spec gives bitwise identical results on every
  run, on every backend, traced or not, cached or not;
* geometry: the off-axis target sits at L1 distance D and agents move
  one grid step per time unit, so every find time is finite (no horizon
  is set, and every algorithm used here finds with probability one) and
  at least D;
* the budget rule: an adaptive cell stops at the first block boundary
  where its policy is satisfied, so re-folding its blocks in schedule
  order must end satisfied (CI target met, or ``max_trials`` reached);
* the cache contract: a rerun of a cached spec reports ``from_cache``
  and returns exactly the cold result.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats import BudgetPolicy, FindTimeAccumulator
from repro.sweep import (
    SweepSpec,
    block_trials,
    make_executor,
    run_sweep,
)

GRID_D = (8, 16, 32, 64, 128)
GRID_K = (1, 4, 16)
FIXED_TRIALS = 256
PRECISION = BudgetPolicy.target_rel_ci(0.05, min_trials=32, max_trials=4096)
POOL_WORKERS = 2
#: Floor on measured units per run, however short ``--seconds`` is.
MIN_UNITS = 4
#: Warm reruns after each cold unit.  With :data:`MIN_UNITS` a run has
#: at least 100 rerun samples, so at least ten lie beyond the p90.
RERUNS_PER_UNIT = 25


def fixed_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        "uniform", GRID_D, GRID_K, FIXED_TRIALS,
        placement="offaxis", seed=seed,
    )


def precision_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        "nonuniform", GRID_D, GRID_K, PRECISION.min_trials,
        placement="offaxis", seed=seed, budget=PRECISION,
    )


# ----------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when correct.
# ----------------------------------------------------------------------

def fingerprint(result) -> Tuple:
    """Bitwise identity of a sweep result: cells, dtypes, shapes, bytes."""
    return tuple(
        (c.distance, c.k, c.times.dtype.str, c.times.shape, c.times.tobytes())
        for c in result.cells
    )


def check_times(result) -> List[str]:
    """Every grid cell present, non-empty, finite and no earlier than D."""
    problems = []
    expected = [(c.distance, c.k) for c in result.spec.cells()]
    got = [(c.distance, c.k) for c in result.cells]
    if sorted(got) != sorted(expected):
        problems.append(f"cells {got} != grid {expected}")
    for cell in result.cells:
        times = cell.times
        if times.size == 0:
            problems.append(f"cell D={cell.distance} k={cell.k} is empty")
        elif not np.all(np.isfinite(times)):
            problems.append(
                f"cell D={cell.distance} k={cell.k} has non-finite times"
            )
        elif times.min() < cell.distance:
            problems.append(
                f"cell D={cell.distance} k={cell.k} found at "
                f"{times.min()} < D"
            )
        if result.spec.budget is None and times.size != result.spec.trials:
            problems.append(
                f"cell D={cell.distance} k={cell.k} has {times.size} "
                f"trials, spec asks {result.spec.trials}"
            )
    return problems


def check_budget(result) -> List[str]:
    """Each adaptive cell ends on a block boundary that satisfies its policy.

    The cell's blocks are folded in schedule order, exactly as the
    runner folds them, so the final summary is the one the runner
    stopped on.
    """
    policy = result.spec.budget
    problems = []
    for cell in result.cells:
        acc = FindTimeAccumulator(
            horizon=result.spec.horizon, confidence=policy.confidence
        )
        start, block = 0, 0
        while start < cell.times.size:
            stop = start + block_trials(block)
            acc.update(cell.times[start:stop])
            start, block = stop, block + 1
        if start != cell.times.size:
            problems.append(
                f"cell D={cell.distance} k={cell.k}: {cell.times.size} "
                f"trials is not a whole number of blocks"
            )
        elif not policy.satisfied(cell.times.size, acc.summary()):
            problems.append(
                f"cell D={cell.distance} k={cell.k} stopped at "
                f"{cell.times.size} trials without meeting "
                f"{policy.describe()}"
            )
    return problems


def check_same(result, reference, what: str) -> List[str]:
    if fingerprint(result) != fingerprint(reference):
        return [f"result differs bitwise from {what}"]
    return []


def check_rerun(result, cold) -> List[str]:
    problems = check_same(result, cold, "its cold result")
    if not result.from_cache:
        problems.append("rerun did not report from_cache")
    return problems


def check_cold(result) -> List[str]:
    """Everything a freshly computed result must satisfy on its own."""
    problems = check_times(result)
    if result.spec.budget is not None:
        problems += check_budget(result)
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Unit:
    """One measured unit: its wall time, output and warm reruns."""

    __slots__ = ("wall", "output", "trials", "rerun_walls", "problems")

    def __init__(self, wall: float, output, trials: int) -> None:
        self.wall = wall
        self.output = output
        self.trials = trials
        self.rerun_walls: List[float] = []
        self.problems: List[str] = []


class Workload:
    """One named workload: its spec, a unit of work and the unit's checks.

    A unit is one cold sweep of the spec into a fresh cache directory.
    The same spec is then re-run :data:`RERUNS_PER_UNIT` times against
    that directory, which is how a cached experiment script is re-run.
    ``sweep`` is the function units call; the traced pass swaps in a
    timed wrapper around :func:`repro.run_sweep`.
    """

    name = "?"
    backend = "serial"
    workers = 1
    make_spec: Callable[[int], SweepSpec]
    #: What :attr:`reference` is, for failure messages.
    reference_is = "the first unit"

    def __init__(self, seed: int, work_dir: str) -> None:
        self.spec = self.make_spec(seed)
        self.work_dir = work_dir
        self.executor = None
        self.sweep: Callable = run_sweep
        #: Checked, unmeasured result every measured unit must equal.
        self.reference = None

    def open_executor(self) -> None:
        self.executor = make_executor(self.workers, backend=self.backend)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="unit-", dir=self.work_dir)

    def prepare(self) -> Optional[List[str]]:
        """Untimed set-up; the problems in what it computed, if anything."""
        return None

    def cold(self, directory: str):
        return self.sweep(
            self.spec, executor=self.executor, cache_dir=directory
        )

    def unit(self) -> Unit:
        directory = self.fresh_dir()
        try:
            started = time.perf_counter()
            result = self.cold(directory)
            unit = Unit(
                time.perf_counter() - started, result, result.total_trials
            )
            unit.problems = self.check(result)
            for _ in range(RERUNS_PER_UNIT):
                started = time.perf_counter()
                again = self.cold(directory)
                unit.rerun_walls.append(time.perf_counter() - started)
                unit.problems += check_rerun(again, result)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return unit

    def check(self, result) -> List[str]:
        problems = []
        if result.from_cache:
            problems.append("cold unit reported from_cache")
        if self.reference is None:
            return problems + check_cold(result)
        return problems + check_same(result, self.reference, self.reference_is)


class FixedGrid(Workload):
    name = "fixed-grid"
    make_spec = staticmethod(fixed_spec)


class PrecisionGrid(Workload):
    name = "precision-grid"
    make_spec = staticmethod(precision_spec)


class PoolGrid(PrecisionGrid):
    """precision-grid on a process pool; must match the serial result."""

    name = "pool-grid"
    backend = "process"
    workers = POOL_WORKERS
    reference_is = "the serial precision-grid result"

    def prepare(self) -> List[str]:
        # The serial result of the same spec is the reference: the
        # determinism contract makes results backend-independent.
        directory = self.fresh_dir()
        try:
            with make_executor(1, backend="serial") as serial:
                self.reference = run_sweep(
                    self.spec, executor=serial, cache_dir=directory
                )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return check_cold(self.reference)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FixedGrid, PrecisionGrid, PoolGrid)
}


class Tally:
    """Measured units plus attempted/failed counts of checked units."""

    def __init__(self) -> None:
        self.units: List[Unit] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems

    @property
    def walls(self) -> List[float]:
        return [unit.wall for unit in self.units]

    @property
    def rerun_walls(self) -> List[float]:
        return [wall for unit in self.units for wall in unit.rerun_walls]


def warm_up(workload: Workload, tally: Tally) -> None:
    """Prepare, then run one checked, unmeasured warm-up unit.

    The warm-up unit pays lazy first-call costs.  Unless preparation
    already set a reference, it becomes the one every later unit must
    equal.
    """
    problems = workload.prepare()
    if problems is not None:
        tally.record(problems)
    unit = workload.unit()
    if tally.record(unit.problems) and workload.reference is None:
        workload.reference = unit.output


def measure(
    workload: Workload,
    seconds: float,
    tally: Tally,
    min_units: int = MIN_UNITS,
) -> None:
    """Closed loop: units back to back for ``seconds`` of wall time."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(tally.units) < min_units:
        unit = workload.unit()
        tally.record(unit.problems)
        unit.output = None  # checked; keeping it would only grow the RSS
        tally.units.append(unit)
