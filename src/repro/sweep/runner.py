"""Sweep execution: cached, batched, executor-backed, adaptive.

:func:`run_sweep` turns a :class:`repro.sweep.spec.SweepSpec` into a
:class:`SweepResult` along one of two paths, selected by the spec's
``budget``.  Both paths hand their work units to a pluggable
:class:`repro.sweep.executor.SweepExecutor` (serial, persistent process
pool, or the virtual-clock test double) instead of spawning ad-hoc pools;
callers can share one executor across many sweeps (see ``executor=``),
which is what the experiments do.

**Fixed path** (``budget is None`` — including canonicalised
``fixed(n)`` policies):

1. the on-disk v1 cache is consulted (keyed by the spec's content hash) —
   a hit returns immediately, which is what makes repeated experiment runs
   and quick/full mode switches cheap;
2. on a miss, each ``k``-group of the grid resolves via the batched
   engines — :func:`repro.sim.events.simulate_find_times_batch` (one
   multi-world task of the stacked excursion kernel, sharing every
   phase's excursion draws across the group) for excursion algorithms,
   or per-world-seeded rows for walker baselines and dynamic worlds,
   split into runs of rows whose length the spec alone fixes
   (:data:`ROW_TASKS`).
   Excursion groups whose distance axis exceeds
   :data:`repro.sweep.spec.FIXED_CHUNK_THRESHOLD` split into
   deterministic chunks (:func:`repro.sweep.spec.group_chunks`) so a
   one-``k``-many-``D`` grid no longer serialises on a single worker;
   the chunk layout is a function of the spec alone, never of the
   worker count, because excursion chunk streams are part of the
   result's identity;
3. chunk tasks are independent, so the executor fans them out; every
   task ships the picklable spec plus its pre-spawned seeds, making
   results bitwise identical to a serial run;
4. finished cells checkpoint into the spec's journal (see
   :func:`run_sweep`), and the raw ``(cells, trials)`` find-time matrix
   is written back to the cache in grid order.

Fixed-path seed policy: one child seed per group via
:func:`repro.sim.rng.spawn_seeds` on the spec's root seed; within a group
the first grandchild seeds the simulation and the rest seed the (possibly
random) treasure placements, one per distance.  Unsplit groups are
byte-for-byte the pre-executor runner — the ``fixed(n)``-parity
guarantee; split groups seed chunk ``c`` with
``derive_seed(group_seed, GROUP_CHUNK_STREAM, c)``.

**Adaptive path** (``target_rel_ci`` / ``wall`` budgets): cells consume
deterministic trial *blocks* (sizes from the capped doubling schedule in
:mod:`repro.sweep.spec`, content from the block-seeded engine entry
points), fold them into a streaming
:class:`repro.stats.FindTimeAccumulator`, and stop as soon as their
:class:`repro.stats.BudgetPolicy` is satisfied.  Scheduling is at
**block granularity** with work stealing: every pending block of every
cell feeds one queue, a cell that satisfies its policy early simply
stops contributing blocks and its worker slots flow to the stragglers,
and when fewer live cells than workers remain the scheduler submits a
cell's *future* blocks speculatively (block content depends only on
``(root seed, D, k, block index)``, so speculation can never change
results — a block past the stopping point is just discarded).  This
removes the whole-cell straggler of the old per-cell fan-out, where one
noisy cell ran its entire stream on a single worker while the rest of
the pool idled.

Blocks travel in **packs**: each free executor slot receives one
``_execute_pack`` task holding the next block of several cells, about a
``1 / free slots`` share of the candidate blocks' estimated cost, and
the pack returns the blocks' times concatenated, which the scheduler splits
by :func:`repro.sweep.spec.block_trials`.  On a serial executor a
scheduling round is therefore one pack holding every live cell's next
block; on a pool a heavy block runs alone while cheap ones share a
pack.  Inside a pack, static-world excursion blocks run as one
:func:`repro.sim.events.simulate_find_times_stacked` pass — one NumPy
pass per phase over all their slots instead of one small pass per
block, which is what the adaptive path's 32-128-trial blocks were bound
by — and other blocks (dynamic worlds, walkers, adaptive searchers)
keep their per-block entry points.  Packing cannot change
results: every block keeps its own block-seeded generator and makes
exactly the RNG calls of a lone block call, the stacked pass is
elementwise over slots, and folding, stopping decisions and speculation
limits stay per cell in schedule order.  Pack composition is a
scheduling choice, like task order, outside the determinism contract.

Because a block's content never depends on how many blocks ran before,
which process ran it, or which other cells exist, a cell's sample is a
deterministic prefix of an infinite trial stream: cached blocks (v2
block store, keyed by the spec's *data* hash) are reused verbatim and
new blocks are appended — across runs, grids, and precision targets.
Serial and pooled runs are bitwise identical for the ``fixed`` and
``target_rel_ci`` policies.  ``wall`` budgets stop on wall-clock time,
so *how many* blocks a cell gets depends on machine speed and load —
the blocks themselves are still the deterministic stream (two wall runs
agree on every shared prefix), but trial counts are not reproducible by
design.

``progress`` (both paths) is called once per finished cell with a
:class:`ProgressEvent` — allocated trials, newly simulated trials, and
the achieved CI half-width — so long adaptive sweeps are not silent.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.belief import AdaptiveSearcher
from ..checks import trace
from ..checks.registry import register_stream
from ..faults import ensure_env_plan
from ..obs import BUS, ensure_env_tracing
from ..sim.events import (
    StackedTask,
    find_time_statistics,
    simulate_find_times_batch,
    simulate_find_times_block,
    simulate_find_times_stacked,
)
from ..sim.protocol import ExcursionBatchEngine, WalkerBatchEngine, engine_for
from ..sim.rng import derive_seed, spawn_seeds
from ..sim.walkers import Walker, walker_find_times_block
from ..sim.world import place_targets, place_treasure
from ..stats import FindTimeAccumulator, FindTimeSummary, summarize_times
from .cache import (
    append_blocks,
    block_store_path,
    cache_path,
    clean_stale_files,
    clear_journal,
    journal_path,
    load_blocks,
    load_journal,
    load_result,
    save_journal,
    save_result,
)
from .executor import SweepExecutor, ensure_executor
from .spec import (
    GROUP_CHUNK_STREAM,
    SweepSpec,
    block_trials,
    build_algorithm,
    completed_trials,
    group_chunks,
    whole_blocks,
)

__all__ = [
    "CellResult",
    "SweepResult",
    "ProgressEvent",
    "run_sweep",
    "reference_cell_times",
]

#: Leading key of the per-cell treasure-placement stream on the adaptive
#: path: ``derive_seed(root, PLACEMENT_STREAM, distance, k)``.  A cell's
#: world must not depend on which other cells are swept (the fixed path's
#: per-group spawn chain does depend on the grid), or cached blocks could
#: not be shared across grids.
PLACEMENT_STREAM = register_stream("PLACEMENT_STREAM", 0x97ACE5)

ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One finished sweep cell, as reported to a ``progress`` callback."""

    distance: int
    k: int
    trials: int  # total trials now backing the cell
    new_trials: int  # trials simulated by *this* run (0 = pure cache hit)
    ci_halfwidth: float  # achieved CI half-width of the (truncated) mean
    rel_ci: float  # ci_halfwidth / mean (inf when undefined)
    source: str  # "cache" | "computed" | "topped-up"


@dataclass(frozen=True)
class CellResult:
    """Measured outcome of one ``(D, k)`` cell: the raw per-trial times.

    Summary statistics are derived properties so that cached and freshly
    computed cells behave identically; mean/stderr (and their sentinels)
    come from :func:`repro.sim.events.find_time_statistics`, the same rule
    ``expected_find_time`` reports.  Adaptive sweeps allocate per cell, so
    ``trials`` varies across cells of one result.
    """

    distance: int
    k: int
    times: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.times.size)

    @property
    def mean(self) -> float:
        """Mean find time; ``inf`` when any trial failed to find."""
        return find_time_statistics(self.times)[0]

    @property
    def stderr(self) -> float:
        return find_time_statistics(self.times)[1]

    @property
    def success_rate(self) -> float:
        """Fraction of trials that found the treasure at all."""
        return float(np.isfinite(self.times).mean())

    @property
    def finite_mean(self) -> float:
        """Mean over finding trials only (``inf`` when none found)."""
        finite = self.times[np.isfinite(self.times)]
        return float(finite.mean()) if finite.size else math.inf

    def summary(
        self, horizon: Optional[float] = None, confidence: float = 0.95
    ) -> FindTimeSummary:
        """Censoring-aware streaming summary (see :mod:`repro.stats`)."""
        return summarize_times(
            self.times, horizon=horizon, confidence=confidence
        )


@dataclass
class SweepResult:
    """All cells of one executed (or cache-loaded) sweep."""

    spec: SweepSpec
    cells: List[CellResult]
    from_cache: bool = False
    _index: Dict[Tuple[int, int], CellResult] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._index = {(c.distance, c.k): c for c in self.cells}

    def cell(self, distance: int, k: int) -> CellResult:
        """Look up one cell; raises ``KeyError`` for off-grid queries."""
        try:
            return self._index[(int(distance), int(k))]
        except KeyError:
            raise KeyError(
                f"no cell (D={distance}, k={k}) in sweep over "
                f"D={self.spec.distances} x k={self.spec.ks}"
            ) from None

    @property
    def total_trials(self) -> int:
        """Trials backing the whole result (adaptive cells vary)."""
        return sum(c.trials for c in self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


class _ProgressGuard:
    """Shield a sweep from a raising progress callback.

    Progress consumers are observers: a callback that raises must not
    poison the (possibly shared) executor mid-sweep by unwinding through
    the scheduler's submit/collect loop — that would discard every
    outstanding ticket of a run whose *results* are perfectly healthy.
    The guard swallows callback exceptions, keeps the first one, and
    ``run_sweep`` surfaces it once as a ``RuntimeWarning`` at sweep end.
    """

    __slots__ = ("callback", "first_error", "errors")

    def __init__(self, callback: ProgressCallback) -> None:
        self.callback = callback
        self.first_error: Optional[BaseException] = None
        self.errors = 0

    def __call__(self, event: "ProgressEvent") -> None:
        try:
            self.callback(event)
        except Exception as error:
            if self.first_error is None:
                self.first_error = error
            self.errors += 1

    def warn_if_failed(self) -> None:
        if not self.errors:
            return
        warnings.warn(
            f"progress callback raised {self.errors} time(s) during the "
            f"sweep (first: {type(self.first_error).__name__}: "
            f"{self.first_error}); sweep results are unaffected",
            RuntimeWarning,
            stacklevel=3,
        )


def _emit(
    progress: Optional[ProgressCallback],
    spec: SweepSpec,
    cell: CellResult,
    new_trials: int,
) -> None:
    """Report one finished cell: progress callback + obs event."""
    if progress is None and not BUS.enabled:
        return
    summary = cell.summary(horizon=spec.horizon)
    if new_trials == 0:
        source = "cache"
    elif new_trials < cell.trials:
        source = "topped-up"
    else:
        source = "computed"
    if BUS.enabled:
        BUS.counter(
            "cell.finish", distance=cell.distance, k=cell.k,
            trials=cell.trials, new_trials=new_trials, source=source,
        )
    if progress is None:
        return
    progress(
        ProgressEvent(
            distance=cell.distance,
            k=cell.k,
            trials=cell.trials,
            new_trials=new_trials,
            ci_halfwidth=summary.ci_halfwidth,
            rel_ci=summary.rel_ci,
            source=source,
        )
    )


# ----------------------------------------------------------------------
# Fixed path (budget is None): group chunks through the executor.
# ----------------------------------------------------------------------

def _execute_chunk(payload) -> np.ndarray:
    """Resolve one fixed-path chunk; module-level so pools can pickle it.

    Returns the ``(len(distances), trials)`` find-time matrix for the
    chunk's cells.  Excursion chunks run one batched engine call under
    ``sim_seed`` (draws shared across the chunk's worlds — common random
    numbers); row-wise chunks (walkers, dynamic worlds) run one
    per-world-seeded engine call per distance.
    """
    spec, k, distances, placement_seeds, sim_seed, world_seeds = payload
    with trace.trace_scope(k=k, distances=tuple(distances)):
        strategy = build_algorithm(spec.algorithm, k, spec.param_dict())
        worlds = [
            _place_world(spec, distance, placement_seed)
            for distance, placement_seed in zip(distances, placement_seeds)
        ]
        if world_seeds is None:
            return simulate_find_times_batch(
                strategy, worlds, k, spec.trials, sim_seed,
                horizon=spec.horizon, scenario=spec.scenario,
            )
        engine = engine_for(strategy)
        return np.stack([
            engine.find_times(
                strategy, world, k, spec.trials, world_seed,
                horizon=spec.horizon, scenario=spec.scenario,
                world_spec=spec.world,
            )
            for world, world_seed in zip(worlds, world_seeds)
        ])


#: Walker and dynamic-world rows are seeded per world, so how a group's
#: rows split into tasks never changes results.  A spec's row groups
#: split into runs of ``ceil(rows / ROW_TASKS)`` rows: about twice the
#: width of a 4-worker pool, so pools can steal work, while a serial run
#: does not pay one task (and, at ``checkpoint_s=0``, one journal write)
#: per row.  The layout is a function of the spec alone, so a journal's
#: checkpoint units are the same under every worker count.
ROW_TASKS = 8


def _fixed_tasks(spec: SweepSpec) -> List[tuple]:
    """Chunk payloads for the fixed path, in grid (cell) order.

    Seeds are spawned in the parent so that the layout a worker sees is
    entirely determined by the spec: per group, grandchild 0 is the
    simulation seed and grandchildren 1.. seed the treasure placements.
    Excursion groups split only by the content-deterministic
    :func:`repro.sweep.spec.group_chunks` layout; walker and
    dynamic-world groups, whose rows are independently seeded per world,
    split into runs of ``ceil(rows / ROW_TASKS)`` rows.
    """
    groups = spec.groups()
    group_seeds = spawn_seeds(spec.seed, len(groups))
    rows_per_task = -(-sum(len(g.distances) for g in groups) // ROW_TASKS)
    tasks: List[tuple] = []
    for group, group_seed in zip(groups, group_seeds):
        child_seeds = spawn_seeds(group_seed, 1 + len(group.distances))
        sim_seed, placement_seeds = child_seeds[0], child_seeds[1:]
        strategy = build_algorithm(spec.algorithm, group.k, spec.param_dict())
        offsets = {d: i for i, d in enumerate(group.distances)}
        if (
            isinstance(engine_for(strategy), WalkerBatchEngine)
            or spec.world is not None
        ):
            world_seeds = spawn_seeds(sim_seed, len(group.distances))
            for start in range(0, len(group.distances), rows_per_task):
                rows = slice(start, start + rows_per_task)
                tasks.append((
                    spec, group.k, group.distances[rows],
                    placement_seeds[rows], None, world_seeds[rows],
                ))
            continue
        chunks = group_chunks(group.distances)
        for index, chunk in enumerate(chunks):
            chunk_seed = (
                sim_seed
                if len(chunks) == 1
                else derive_seed(group_seed, GROUP_CHUNK_STREAM, index)
            )
            rows = [offsets[d] for d in chunk]
            tasks.append((
                spec, group.k, chunk,
                [placement_seeds[r] for r in rows], chunk_seed, None,
            ))
    return tasks


def _run_fixed(
    spec: SweepSpec,
    executor: SweepExecutor,
    cache: bool,
    cache_dir: Optional[str],
    progress: Optional[ProgressCallback],
    resume: bool = False,
    checkpoint_s: Optional[float] = 5.0,
) -> SweepResult:
    path = cache_path(spec, cache_dir) if cache else None
    if path is not None:
        loaded = load_result(spec, path)
        if loaded is not None:
            cached_cells, times = loaded
            cells = [
                CellResult(distance=c.distance, k=c.k, times=times[i])
                for i, c in enumerate(cached_cells)
            ]
            for cell in cells:
                _emit(progress, spec, cell, 0)
            return SweepResult(spec=spec, cells=cells, from_cache=True)

    tasks = _fixed_tasks(spec)
    journal = (
        journal_path(spec, cache_dir)
        if path is not None and (resume or checkpoint_s is not None)
        else None
    )
    #: Finished cells' times, by ``(distance, k)`` — the checkpoint unit.
    done: Dict[Tuple[int, int], np.ndarray] = {}
    if journal is not None and resume:
        # A task is skipped iff all of its cells are journaled; its
        # cells surface like cache hits (zero *new* trials), so a
        # resumed run simulates strictly less than it lost.
        journaled = load_journal(spec, journal)
        for _, k, distances, *_ in tasks:
            if all((distance, k) in journaled for distance in distances):
                for distance in distances:
                    done[(distance, k)] = journaled[(distance, k)]
        if done and BUS.enabled:
            BUS.counter(
                "sweep.resume", algorithm=spec.algorithm, kind="fixed",
                tasks=len(done),
                trials=sum(int(times.size) for times in done.values()),
            )
        for (distance, k), times in done.items():
            _emit(progress, spec, CellResult(distance, k, times), 0)
    tickets = {}
    span_starts: Dict[int, float] = {}
    last_checkpoint = time.monotonic()
    try:
        for index, task in enumerate(tasks):
            if all((distance, task[1]) in done for distance in task[2]):
                continue
            ticket = executor.submit(_execute_chunk, task)
            tickets[ticket] = index
            if BUS.enabled:
                span_starts[ticket] = BUS.span_start(
                    "cell.block", ticket=ticket, kind="chunk",
                    k=task[1], distances=list(task[2]), block=index,
                )
        while tickets:
            ticket, matrix = executor.next_completed()
            index = tickets.pop(ticket)
            _, k, distances, *_ = tasks[index]
            if BUS.enabled and ticket in span_starts:
                BUS.span_end(
                    "cell.block", span_starts.pop(ticket), ticket=ticket,
                    kind="chunk", k=k, distances=list(distances),
                    block=index,
                )
            for distance, times in zip(distances, np.asarray(matrix)):
                done[(distance, k)] = times
                _emit(
                    progress, spec, CellResult(distance, k, times),
                    times.size,
                )
            if journal is not None and checkpoint_s is not None and tickets:
                now = time.monotonic()
                if now - last_checkpoint >= checkpoint_s:
                    if save_journal(spec, journal, done) and BUS.enabled:
                        BUS.counter(
                            "sweep.checkpoint", algorithm=spec.algorithm,
                            kind="fixed", tasks=len(done),
                        )
                    last_checkpoint = now
    except BaseException:
        # Leave nothing of this sweep behind in a (possibly shared)
        # executor: a stale ticket would surface in the next caller's
        # next_completed() as an unrelated failure.
        executor.discard(tickets)
        raise

    # spec.cells() is k-major, distance-minor: the task order.
    grid = spec.cells()
    cells = [
        CellResult(cell.distance, cell.k, done[(cell.distance, cell.k)])
        for cell in grid
    ]
    if path is not None and cells:
        saved = save_result(
            spec, path, grid, np.stack([c.times for c in cells])
        )
        if saved and journal is not None:
            # The v1 entry now owns these results; a surviving journal
            # would only re-feed them to the next resume.  A failed
            # save keeps it, so a resume still skips the finished cells.
            clear_journal(journal)
    return SweepResult(spec=spec, cells=cells, from_cache=False)


# ----------------------------------------------------------------------
# Adaptive path: block-granular work stealing driven by the budget.
# ----------------------------------------------------------------------

def _place_world(spec: SweepSpec, distance: int, seed):
    """The spec's world at ``distance``, placed from ``seed``.

    Dynamic-world specs get an ``(n_targets, 2)`` initial-position array
    (the form every engine accepts alongside a non-default world spec).
    """
    if spec.world is not None:
        return place_targets(
            distance, spec.placement, spec.world.n_targets, seed=seed
        )
    return place_treasure(distance, spec.placement, seed=seed)


def _cell_world(spec: SweepSpec, distance: int, k: int):
    """The cell's world, seeded independently of every other cell."""
    return _place_world(
        spec, distance, derive_seed(spec.seed, PLACEMENT_STREAM, distance, k)
    )


def _usable_prefix(existing: Optional[np.ndarray]) -> np.ndarray:
    """Cached times truncated to a whole-block schedule boundary."""
    if existing is None:
        return np.empty(0, dtype=np.float64)
    existing = np.asarray(existing, dtype=np.float64)
    return existing[: completed_trials(whole_blocks(existing.size))]


def _execute_pack(payload) -> np.ndarray:
    """Simulate a pack of trial blocks; module-level for pickling.

    ``payload`` is ``(spec, [(distance, k, block), ...])``.  Returns the
    blocks' find times concatenated in pack order; the scheduler splits them
    by :func:`repro.sweep.spec.block_trials`.  Static-world excursion
    blocks run together through
    :func:`repro.sim.events.simulate_find_times_stacked`; everything else
    (dynamic worlds, walkers, adaptive searchers) keeps its per-block
    entry point.  Every block carries its own block seed, so each block's
    times equal a lone :func:`repro.sim.events.simulate_find_times_block`
    (or walker) call bit for bit, however blocks are packed.
    """
    spec, blocks = payload
    params = spec.param_dict()
    strategies: Dict[int, object] = {}
    parts: List[Optional[np.ndarray]] = [None] * len(blocks)
    stacked: List[StackedTask] = []
    stacked_at: List[int] = []
    for position, (distance, k, block) in enumerate(blocks):
        with trace.trace_scope(cell=(distance, k), block=block):
            if k not in strategies:
                strategies[k] = build_algorithm(spec.algorithm, k, params)
            strategy = strategies[k]
            world = _cell_world(spec, distance, k)
            trials = block_trials(block)
            engine = engine_for(strategy)
            if not isinstance(engine, ExcursionBatchEngine):
                parts[position] = walker_find_times_block(
                    strategy, world, k, trials, spec.seed,
                    distance=distance, block=block,
                    horizon=spec.horizon, scenario=spec.scenario,
                    world_spec=spec.world,
                )
            elif spec.world is not None:
                parts[position] = simulate_find_times_block(
                    strategy, world, k, trials, spec.seed,
                    distance=distance, block=block,
                    horizon=spec.horizon, scenario=spec.scenario,
                    world_spec=spec.world,
                )
            else:
                stacked.append(StackedTask.for_block(
                    strategy, world, k, trials, spec.seed,
                    distance=distance, block=block,
                    horizon=spec.horizon, scenario=spec.scenario,
                ))
                stacked_at.append(position)
    for position, times in zip(
        stacked_at, simulate_find_times_stacked(stacked)
    ):
        parts[position] = times[0]
    return np.concatenate(parts)


def _execute_block(payload) -> np.ndarray:
    """Simulate one trial block of one cell: a pack of one."""
    spec, distance, k, block = payload
    return _execute_pack((spec, [(distance, k, block)]))


def reference_cell_times(
    spec: SweepSpec,
    distance: int,
    k: int,
    existing: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One cell's policy-satisfied times, computed sequentially.

    This is the *reference semantics* of the adaptive path — the usable
    cached prefix plus blocks in schedule order until the first decision
    point at which the budget policy is satisfied — against which the
    block-level scheduler is property-tested (and which the executor
    benchmark uses as its per-cell-pool baseline).
    """
    policy = spec.budget
    times = _usable_prefix(existing)
    blocks = whole_blocks(times.size)
    acc = FindTimeAccumulator(
        horizon=spec.horizon, confidence=policy.confidence
    )
    if times.size:
        acc.update(times)
    started = time.perf_counter()
    while not policy.satisfied(
        times.size, acc.summary(), time.perf_counter() - started
    ):
        fresh = _execute_block((spec, distance, k, blocks))
        times = np.concatenate([times, fresh])
        acc.update(fresh)
        blocks += 1
    return times


def _run_cell_reference(task) -> np.ndarray:
    """Pool-picklable whole-cell task (benchmark baseline; see above)."""
    spec, distance, k, existing = task
    return reference_cell_times(spec, distance, k, existing)


class _CellState:
    """Scheduler-side state of one adaptive cell."""

    __slots__ = (
        "distance", "k", "parts", "count", "cached", "blocks", "acc",
        "pending", "inflight", "next_submit", "done", "started", "cost",
        "need",
    )

    def __init__(self, spec: SweepSpec, distance: int, k: int, prefix) -> None:
        self.distance = distance
        self.k = k
        self.parts: List[np.ndarray] = [prefix] if prefix.size else []
        self.count = int(prefix.size)
        self.cached = int(prefix.size)
        self.blocks = whole_blocks(prefix.size)  # folded schedule frontier
        self.acc = FindTimeAccumulator(
            horizon=spec.horizon, confidence=spec.budget.confidence
        )
        if prefix.size:
            self.acc.update(prefix)
        self.pending: Dict[int, np.ndarray] = {}  # completed, unfolded
        self.inflight: set = set()  # submitted block indices
        self.next_submit = self.blocks
        self.done = False
        self.started: Optional[float] = None
        self.cost = _times_cost(prefix, spec.horizon)
        self.need = (
            _estimate_need(spec.budget, self.count, self.acc.summary())
            if self.count
            else spec.budget.min_trials
        )

    def elapsed(self) -> float:
        if self.started is None:
            return 0.0
        return time.perf_counter() - self.started

    def weight(self) -> float:
        """Estimated engine cost of one trial of this cell.

        Simulation cost tracks the simulated time mass, so the measured
        per-trial mass of the folded prefix is the best predictor of
        what the next block costs; before any trials land, the universal
        benchmark ``D + D^2/k`` (the paper's optimal time) sets the
        prior.  Only scheduling *order* depends on this — results never
        do — so a rough estimate is plenty.
        """
        if self.count:
            return max(self.cost / self.count, 1.0)
        return float(self.distance) + self.distance * self.distance / self.k

    def times(self) -> np.ndarray:
        if not self.parts:
            return np.empty(0, dtype=np.float64)
        if len(self.parts) == 1:
            return self.parts[0]
        return np.concatenate(self.parts)


def _times_cost(times: np.ndarray, horizon: Optional[float]) -> float:
    """Simulated-time mass of a batch (censored trials pay the horizon)."""
    if not times.size:
        return 0.0
    finite = np.isfinite(times)
    mass = float(times[finite].sum())
    censored = int(times.size - finite.sum())
    if censored and horizon is not None:
        mass += censored * float(horizon)
    return mass


def _estimate_need(policy, count: int, summary) -> int:
    """Predicted total trials this cell wants, from its current summary.

    CLT scaling: the relative CI half-width shrinks like ``1/sqrt(n)``,
    so a cell at ``rel`` with target ``r`` needs about
    ``n * (rel / r)^2`` trials.  This only throttles *speculation* — how
    far past the decision frontier the scheduler may run ahead — so an
    estimate off by a block costs one discarded block of work, never
    correctness.  Non-``target_rel_ci`` policies (``wall``) have no
    usable predictor and fall back to the policy ceiling.
    """
    if policy.kind != "target_rel_ci":
        return policy.max_trials
    rel = summary.rel_ci
    if not math.isfinite(rel) or rel <= 0:
        return policy.max_trials
    # The 0.9 shrink biases the estimate below the next block boundary
    # when the cell will stop on it (the common case): an underestimate
    # costs one submit-collect round trip of pipelining, an overestimate
    # costs a whole discarded block of engine work.
    need = 0.9 * count * (rel / policy.rel_ci) ** 2
    return int(min(policy.max_trials, max(policy.min_trials, need)))


def _fold_ready(state: _CellState, policy) -> None:
    """Fold contiguous completed blocks, re-checking the policy per block.

    Decisions happen strictly in schedule order on the folded prefix, so
    they are independent of completion order, worker count, and
    speculation — the bitwise serial/parallel guarantee.
    """
    while not state.done and state.blocks in state.pending:
        fresh = state.pending.pop(state.blocks)
        state.parts.append(fresh)
        state.count += int(fresh.size)
        state.cost += _times_cost(fresh, state.acc.horizon)
        state.acc.update(fresh)
        state.blocks += 1
        summary = state.acc.summary()
        if policy.satisfied(state.count, summary, state.elapsed()):
            state.done = True
            state.pending.clear()
            if BUS.enabled:
                BUS.counter(
                    "cell.stop", distance=state.distance, k=state.k,
                    trials=state.count, blocks=state.blocks,
                    reason="satisfied",
                )
        else:
            state.need = _estimate_need(policy, state.count, summary)


def _run_adaptive(
    spec: SweepSpec,
    executor: SweepExecutor,
    cache: bool,
    cache_dir: Optional[str],
    progress: Optional[ProgressCallback],
    resume: bool = False,
    checkpoint_s: Optional[float] = 5.0,
) -> SweepResult:
    policy = spec.budget
    path = block_store_path(spec, cache_dir) if cache else None
    store = load_blocks(spec, path) if path is not None else {}

    states = [
        _CellState(
            spec, cell.distance, cell.k,
            _usable_prefix(store.get((cell.distance, cell.k))),
        )
        for cell in spec.cells()
    ]
    def finish(state: _CellState) -> None:
        cell = CellResult(
            distance=state.distance, k=state.k, times=state.times()
        )
        _emit(progress, spec, cell, state.count - state.cached)

    for state in states:
        if policy.satisfied(state.count, state.acc.summary(), 0.0):
            state.done = True
            if BUS.enabled:
                BUS.counter(
                    "cell.stop", distance=state.distance, k=state.k,
                    trials=state.count, blocks=state.blocks,
                    reason="cached",
                )
            finish(state)

    if resume and BUS.enabled:
        # The block store *is* the adaptive path's journal: everything a
        # crashed run flushed is already in ``states`` as cached trials.
        recovered_cells = sum(1 for s in states if s.cached)
        if recovered_cells:
            BUS.counter(
                "sweep.resume", algorithm=spec.algorithm, kind="adaptive",
                tasks=recovered_cells,
                trials=sum(s.cached for s in states),
            )

    tickets: Dict[int, object] = {}
    last_flush = time.monotonic()
    flushed: Dict[Tuple[int, int], int] = {}  # cell -> trials on disk

    def flush_partial() -> None:
        """Rate-limited mid-sweep block-store flush (the checkpoint)."""
        nonlocal last_flush
        if path is None or checkpoint_s is None:
            return
        now = time.monotonic()
        if now - last_flush < checkpoint_s:
            return
        last_flush = now
        partial = {
            (s.distance, s.k): s.times()
            for s in states
            if s.count > s.cached
            and s.count > flushed.get((s.distance, s.k), 0)
        }
        if not partial:
            return
        merged = dict(store)
        merged.update(partial)
        if append_blocks(spec, path, merged):
            for key, times in partial.items():
                flushed[key] = int(times.size)
            if BUS.enabled:
                BUS.counter(
                    "sweep.checkpoint", algorithm=spec.algorithm,
                    kind="adaptive", tasks=len(partial),
                )

    try:
        if policy.kind == "wall":
            # Wall cells land whole; there is no mid-cell prefix worth
            # journaling (counts are machine-dependent by design).
            _schedule_wall_cells(spec, executor, states, tickets, finish)
        else:
            _schedule_blocks(
                spec, executor, states, tickets, finish,
                checkpoint=flush_partial,
            )
    except BaseException:
        # Leave nothing of this sweep behind in a (possibly shared)
        # executor: a stale ticket would surface in the next caller's
        # next_completed() as an unrelated failure.
        executor.discard(tickets)
        raise

    cells: List[CellResult] = []
    updated: Dict[Tuple[int, int], np.ndarray] = {}
    any_new = False
    for state in states:
        if not state.done and BUS.enabled:
            # The scheduler drained without the policy reporting
            # satisfaction — the cell ran out of submittable blocks.
            BUS.counter(
                "cell.stop", distance=state.distance, k=state.k,
                trials=state.count, blocks=state.blocks,
                reason="exhausted",
            )
        times = state.times()
        cells.append(CellResult(distance=state.distance, k=state.k, times=times))
        if state.count > state.cached:
            any_new = True
            updated[(state.distance, state.k)] = times

    if path is not None and any_new:
        store.update(updated)
        append_blocks(spec, path, store)
    return SweepResult(
        spec=spec,
        cells=cells,
        from_cache=bool(cells) and not any_new,
    )


def _schedule_wall_cells(
    spec: SweepSpec,
    executor: SweepExecutor,
    states: List[_CellState],
    tickets: Dict[int, object],
    finish,
) -> None:
    """Resolve ``wall``-budget cells as whole-cell tasks.

    A per-cell wall budget charges a cell only its *own* simulation
    time, which the parent cannot observe at block granularity (between
    a cell's blocks the pool is busy with other cells).  So the worker
    runs the cell's entire sequential reference loop and times itself —
    exactly the pre-executor semantics — at cell-level parallelism.
    Wall allocations are machine-dependent by design, so the block
    scheduler's determinism machinery has nothing to protect here.
    """
    span_starts: Dict[int, float] = {}
    for state in states:
        if state.done:
            continue
        ticket = executor.submit(
            _run_cell_reference,
            (spec, state.distance, state.k, state.times()),
        )
        tickets[ticket] = state
        if BUS.enabled:
            span_starts[ticket] = BUS.span_start(
                "cell.block", ticket=ticket, kind="cell",
                distance=state.distance, k=state.k, block=0,
            )
    while tickets:
        ticket, times = executor.next_completed()
        state = tickets.pop(ticket)
        if BUS.enabled and ticket in span_starts:
            BUS.span_end(
                "cell.block", span_starts.pop(ticket), ticket=ticket,
                kind="cell", distance=state.distance, k=state.k, block=0,
            )
        state.parts = [times]
        state.count = int(times.size)
        state.done = True
        finish(state)


def _schedule_blocks(
    spec: SweepSpec,
    executor: SweepExecutor,
    states: List[_CellState],
    tickets: Dict[int, object],
    finish,
    checkpoint=None,
) -> None:
    """The block-granular work-stealing scheduler (see module docstring).

    ``checkpoint`` (optional, rate-limited by the caller) runs after
    every fold so an interrupted adaptive sweep loses at most one
    checkpoint interval of folded blocks, not the whole run.
    """
    policy = spec.budget
    span_starts: Dict[int, float] = {}
    while True:
        # Fill every free slot with a *pack* of blocks (see _next_pack).
        while len(tickets) < executor.workers:
            members = _next_pack(
                states, policy, executor.workers - len(tickets)
            )
            if not members:
                break
            pack = []
            speculative = steal = False
            for state in members:
                block = state.next_submit
                state.next_submit += 1
                if BUS.enabled:
                    # Past the decision frontier / another block already
                    # pipelining for this cell.
                    if block > state.blocks:
                        speculative = True
                        BUS.counter(
                            "executor.speculate",
                            distance=state.distance, k=state.k, block=block,
                        )
                    if state.inflight:
                        steal = True
                        BUS.counter(
                            "executor.steal",
                            distance=state.distance, k=state.k, block=block,
                        )
                state.inflight.add(block)
                if state.started is None:
                    state.started = time.perf_counter()
                pack.append((state, block))
            ticket = executor.submit(
                _execute_pack,
                (spec, [(s.distance, s.k, block) for s, block in pack]),
            )
            tickets[ticket] = pack
            if BUS.enabled:
                span_starts[ticket] = BUS.span_start(
                    "cell.block", ticket=ticket, kind="pack",
                    speculative=speculative, steal=steal,
                    **_pack_labels(pack),
                )
        if not tickets:
            break
        ticket, times = executor.next_completed()
        pack = tickets.pop(ticket)
        if BUS.enabled and ticket in span_starts:
            BUS.span_end(
                "cell.block", span_starts.pop(ticket), ticket=ticket,
                kind="pack", **_pack_labels(pack),
            )
        offset = 0
        for state, block in pack:
            size = block_trials(block)
            fresh = times[offset : offset + size]
            offset += size
            state.inflight.discard(block)
            if state.done:
                # Speculative overshoot of an already-satisfied cell.
                if BUS.enabled:
                    BUS.counter(
                        "executor.discard",
                        distance=state.distance, k=state.k, block=block,
                    )
                continue
            state.pending[block] = fresh
            _fold_ready(state, policy)
            if state.done:
                finish(state)
        if checkpoint is not None:
            checkpoint()


def _next_pack(
    states: List[_CellState], policy, free: int
) -> List[_CellState]:
    """The cells whose next block goes into the next pack, in rank order.

    A cell's frontier block (nothing outstanding) is always needed;
    blocks beyond it are speculation, allowed only up to the cell's
    estimated total need so an early stop never discards more than the
    block straddling the estimate.  Cells rank by estimated per-trial
    cost *per in-flight block* — weighted fair queuing — so a heavy
    straggler pipelines several of its (independent) blocks across the
    pool while cheap cells hold one block each: blocks only *decide*
    sequentially, they never have to *run* sequentially.  The pack takes
    ranked cells until it holds a ``1 / free`` share of the candidates'
    estimated block cost, so the free slots split the round evenly: on a
    process pool a heavy block runs alone while cheap ones share a pack,
    and on a serial executor each round is one pack of every live cell.
    """
    candidates = [
        s
        for s in states
        if not s.done
        and completed_trials(s.next_submit) < policy.max_trials
        and (
            s.next_submit == s.blocks
            or completed_trials(s.next_submit) < s.need
        )
    ]
    candidates.sort(
        key=lambda s: s.weight() / (len(s.inflight) + 1), reverse=True
    )
    costs = [s.weight() * block_trials(s.next_submit) for s in candidates]
    share = sum(costs) / free
    members: List[_CellState] = []
    cost = 0.0
    for state, block_cost in zip(candidates, costs):
        members.append(state)
        cost += block_cost
        if cost >= share:
            break
    return members


def _pack_labels(pack) -> Dict[str, List[int]]:
    """A pack's blocks as the flat lists a ``cell.block`` span carries."""
    return {
        "distances": [state.distance for state, _ in pack],
        "ks": [state.k for state, _ in pack],
        "blocks": [block for _, block in pack],
    }


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    backend: str = "auto",
    executor: Optional[SweepExecutor] = None,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    resume: bool = False,
    checkpoint_s: Optional[float] = 5.0,
) -> SweepResult:
    """Execute a sweep spec (or load/top it up from the cache).

    Execution goes through a :class:`repro.sweep.executor.SweepExecutor`.
    Pass ``executor=`` to reuse a persistent one across many sweeps (the
    experiments do; worker pools then spawn once per experiment, not once
    per sweep); otherwise an ephemeral executor is built from ``workers``
    and ``backend`` (``"auto"`` picks a process pool when ``workers > 1``
    and in-process serial execution otherwise — exactly the historical
    semantics) and closed before returning.

    Serial and pooled runs produce bitwise-identical results — except
    under a ``wall`` budget, whose per-cell trial *counts* are wall-clock
    dependent by design (the underlying block streams stay
    deterministic).  ``cache`` toggles both lookup and write-back;
    ``cache_dir`` overrides the default cache location (see
    :func:`repro.sweep.cache.default_cache_dir`).  ``progress`` is
    called once per finished cell with a :class:`ProgressEvent`.

    Crash recovery (DESIGN.md §13): while a cached fixed-path sweep
    runs, completed cells checkpoint every ``checkpoint_s`` seconds
    into an atomic per-spec journal (``0`` checkpoints after every
    finished task; ``None`` disables); adaptive sweeps flush folded
    blocks to the block store on the same cadence.  After a driver
    crash, ``resume=True`` (CLI: ``repro-ants sweep --resume``) reloads
    the journal, re-simulates only the tasks whose cells it lacks, and
    produces a result bitwise identical to an uninterrupted run, under
    any worker count.  The journal is deleted once the final result is
    cached, and kept if that write fails.

    Walker strategies (``random_walk``, ``biased_walk``, ``levy``) require
    the spec to carry a finite ``horizon``: memoryless walks on ``Z^2``
    have infinite expected hitting times, so an uncapped walker sweep
    need not terminate.
    """
    probe = build_algorithm(spec.algorithm, spec.ks[0], spec.param_dict())
    if isinstance(probe, Walker) and spec.horizon is None:
        raise ValueError(
            f"sweep algorithm {spec.algorithm!r} is a walker baseline and "
            f"needs a finite spec horizon (walks on Z^2 have infinite "
            f"expected hitting time)"
        )
    if isinstance(probe, AdaptiveSearcher) and spec.horizon is None:
        raise ValueError(
            f"sweep algorithm {spec.algorithm!r} is an adaptive searcher "
            f"and needs a finite spec horizon"
        )
    if spec.world is not None and spec.horizon is None:
        raise ValueError(
            "sweeps over a non-default world spec need a finite horizon: "
            "moving or late-arriving targets make unbounded searches "
            "non-terminating"
        )
    ensure_env_tracing()
    ensure_env_plan()
    if cache:
        # Reclaim droppings of crashed writers (orphaned *.tmp from a
        # kill mid-save, aged-out quarantined entries) before this run
        # adds its own files to the same directory.
        clean_stale_files(cache_dir)
    with ensure_executor(executor, workers=workers, backend=backend) as ex:
        guard = _ProgressGuard(progress) if progress is not None else None
        span_started: Optional[float] = None
        busy0 = 0.0
        if BUS.enabled:
            busy0 = BUS.metrics.total("executor.complete.exec_s")
            span_started = BUS.span_start(
                "sweep",
                algorithm=spec.algorithm,
                spec=spec.spec_hash(),
                cells=len(spec.cells()),
                backend=ex.backend,
                workers=ex.workers,
                budget=(spec.budget.kind if spec.budget else None),
                cache=cache,
            )
        try:
            if spec.budget is None:
                result = _run_fixed(
                    spec, ex, cache, cache_dir, guard,
                    resume=resume, checkpoint_s=checkpoint_s,
                )
            else:
                result = _run_adaptive(
                    spec, ex, cache, cache_dir, guard,
                    resume=resume, checkpoint_s=checkpoint_s,
                )
        finally:
            if guard is not None:
                guard.warn_if_failed()
        if span_started is not None and BUS.enabled:
            wall = time.perf_counter() - span_started
            busy = BUS.metrics.total("executor.complete.exec_s") - busy0
            slots = max(1, int(ex.workers))
            BUS.gauge(
                "worker.utilization",
                busy / (slots * wall) if wall > 0 else 0.0,
                busy_s=busy, wall_s=wall, workers=slots,
                backend=ex.backend,
            )
            BUS.span_end(
                "sweep", span_started,
                algorithm=spec.algorithm,
                spec=spec.spec_hash(),
                cells=len(result.cells),
                total_trials=result.total_trials,
                from_cache=result.from_cache,
            )
        return result
