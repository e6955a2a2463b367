"""Batched walker engine: vectorised memoryless baselines (engine 3).

The non-excursion baselines — simple random walks, correlated (persistent)
walks, and Lévy flights — have no excursion structure, so the excursion
engine of :mod:`repro.sim.events` cannot touch them and they historically
ran through the per-step Python engine at ``horizon x k x trials``
generator steps.  This module replaces that path with chunked NumPy
simulation, exact in distribution against the step engine (validated by
``tests/test_walker_engine.py``) and orders of magnitude faster, so the
walker baselines can run at the same sample sizes as the paper's
constructions.

Two simulation shapes:

* **step-chunked** (:class:`RandomWalker`): all ``trials x k`` walkers
  advance through a shared clock in chunks of ``span`` steps; per chunk
  the per-step offsets are drawn as a ``(walkers, span)`` matrix,
  positions are two cumulative sums, and treasure hits are an
  elementwise comparison.

* **segment-chunked** (:class:`BiasedWalker`, :class:`LevyWalker`):
  walkers consume whole straight segments rather than steps, each walker
  on its own clock.  A segment's target hit is a closed-form ray test
  (the target lies on the axis-aligned ray within the segment length),
  so a length-``L`` run costs O(1) work instead of ``L`` steps.  The
  correlated walk's per-step reorientation coin makes its straight runs
  geometric, so its headings are resampled per *run* — vectorised
  ``rng.geometric`` lengths with uniform headings — instead of per step;
  Lévy flights draw vectorised Zipf lengths the same way.

Every world runs through a :class:`repro.sim.world.TargetTrack`, except
the random walk's static treasure.  The segment walkers run the paper's
static treasure as a one-target, never-moving track, so one hit test
(:func:`_segment_hits`) serves every world.  The random walk keeps an
elementwise static test beside :func:`_step_chunk_hits`, because the two
draw lossy-detection coins in a different order relative to the slot's
step cap, and merging them would reseed one side.

Both shapes prune at trial granularity: once any walker of a trial has
found, siblings whose clock has passed that find time are retired (their
future hits could never improve the trial's first find).

Memory stays at ``O(live walkers x chunk)`` 64-bit entries (the offset
and cumulative-position matrices); the default chunk is sized so that a
matrix stays around a few million elements, degrading to ``16 x walkers``
— a small constant factor over the unavoidable per-walker state — when
the walker count alone exceeds the budget.

Walkers are registered as sweepable strategies in
:mod:`repro.sweep.spec`, so ``SweepSpec``/``run_sweep`` dispatch them —
with the npz cache and the multiprocessing pool — exactly like excursion
algorithms.  A sweep over walkers must set a ``horizon``: memoryless
walks on ``Z^2`` have infinite expected hitting times (the paper's
motivating observation), so an uncapped simulation need not terminate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..scenarios import ScenarioSpec, resolve_scenario, steps_within
from .rng import (
    BLOCK_STREAM,
    SeedLike,
    derive_rng,
    derive_seed,
    make_rng,
    spawn_seeds,
)
from .world import (
    TARGET_STREAM,
    TargetTrack,
    World,
    WorldSpec,
    composed_detection,
    initial_targets,
    resolve_world,
)

__all__ = [
    "Walker",
    "RandomWalker",
    "BiasedWalker",
    "LevyWalker",
    "walker_find_times",
    "walker_find_times_block",
    "walker_find_times_batch",
]

#: A world argument: a :class:`World`, a ``(tx, ty)`` pair, or (with a
#: multi-target world spec) an ``(n_targets, 2)`` array.
WorldLike = Union[World, Tuple[int, int], np.ndarray]

#: Unit moves in the step-program order: +x, +y, -x, -y.
_DIR_X = np.array([1, 0, -1, 0], dtype=np.int64)
_DIR_Y = np.array([0, 1, 0, -1], dtype=np.int64)

#: Soft cap on elements per per-chunk matrix when no chunk is given.
_CHUNK_BUDGET = 1 << 22


def _auto_chunk(walkers: int, chunk: Optional[int], floor: int, cap: int) -> int:
    """Chunk width: explicit value, or budgeted by the walker count."""
    if chunk is not None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        return int(chunk)
    return max(floor, min(cap, _CHUNK_BUDGET // max(walkers, 1)))


def _validate(k: int, trials: int, horizon: float) -> int:
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be >= 1")
    if horizon is None or not math.isfinite(horizon) or horizon < 1:
        raise ValueError(
            f"walker simulation needs a finite horizon >= 1, got {horizon!r} "
            "(memoryless walks on Z^2 have infinite expected hitting time)"
        )
    return int(horizon)


@dataclass
class _SlotPlan:
    """Resolved per-slot perturbations for one walker simulation.

    Slots are laid out trial-major (``slot = trial * k + agent``), matching
    ``trial_of``.  ``step_cap`` is the last *step index* a slot may take —
    the wall-clock horizon and the slot's crash time, both converted to
    steps via its speed — so hits are valid iff ``step <= step_cap`` and a
    slot retires once its step clock reaches the cap.  ``None`` plan means
    "no scenario, no delays": the engines then keep the exact legacy path.
    ``detection`` is the scenario's lossy-detection probability (``None``
    when certain), before :func:`repro.sim.world.composed_detection`
    folds in the world's.
    """

    speeds: np.ndarray
    delays: np.ndarray
    step_cap: np.ndarray
    detection: Optional[float]

    def wall(self, slots: np.ndarray, steps) -> np.ndarray:
        """Wall-clock time of the given slots after ``steps`` steps."""
        return self.delays[slots] + steps / self.speeds[slots]


def _slot_plan(
    scenario: Optional[ScenarioSpec],
    start_delays,
    k: int,
    trials: int,
    horizon: int,
    rng: np.random.Generator,
) -> Optional[_SlotPlan]:
    """Build the per-slot plan, or ``None`` when nothing is perturbed."""
    scn = resolve_scenario(scenario)
    if scn is None and start_delays is None:
        return None
    n = trials * k
    delays = np.zeros(n, dtype=np.float64)
    if start_delays is not None:
        given = np.asarray(start_delays, dtype=np.float64)
        if np.any(given < 0):
            raise ValueError("start delays must be non-negative")
        delays += np.broadcast_to(given, (trials, k)).ravel()
    speeds = np.ones(n, dtype=np.float64)
    detection = None
    if scn is not None:
        if scn.start_stagger > 0:
            delays += np.tile(scn.delays(k), trials)
        if scn.speed_spread > 0:
            speeds = np.tile(scn.speeds(k), trials)
        if scn.detection_prob < 1:
            detection = scn.detection_prob
    # Steps allowed inside the wall-clock horizon: delay + step/speed <=
    # horizon (a hit at exactly the horizon is kept — the step engine's
    # rule).  Crash lifetimes come from a spawned child of ``rng`` so the
    # movement draws that follow stay identical across hazard settings
    # (paired hazard sweeps, as in the excursion engines).
    step_cap = steps_within(horizon - delays, speeds).astype(np.int64)
    if scn is not None and scn.crash_hazard > 0:
        (life_rng,) = rng.spawn(1)
        lifetimes = life_rng.geometric(scn.crash_hazard, size=n)
        crash_cap = steps_within(lifetimes.astype(np.float64), speeds)
        step_cap = np.minimum(step_cap, crash_cap.astype(np.int64))
    return _SlotPlan(
        speeds=speeds, delays=delays, step_cap=step_cap, detection=detection
    )


def _world_track(
    world,
    world_spec: Optional[WorldSpec],
    trials: int,
    seed: SeedLike,
) -> TargetTrack:
    """The world's target track; a static treasure is a one-target track.

    A ``None``/all-default spec (the paper's model) builds a one-target,
    never-moving track without deriving a target stream, so it touches
    no randomness.  Other worlds draw their motion and arrival randomness
    from ``derive_rng(seed, TARGET_STREAM)``, never from the walker's own
    movement stream.  ``world`` is a :class:`World`, a ``(tx, ty)`` pair
    or an ``(n_targets, 2)`` array of initial positions.
    """
    wspec = resolve_world(world_spec)
    spec = wspec or WorldSpec()
    targets0 = initial_targets(world, spec)
    motion_rng = None if wspec is None else derive_rng(seed, TARGET_STREAM)
    return TargetTrack(spec, targets0, trials, motion_rng)


def _mask_missed(valid: np.ndarray, q: Optional[float], rng) -> np.ndarray:
    """Clear valid-hit cells whose detection coin fails (in place).

    One coin per hit cell — each cell crossing is an independent
    detection opportunity — flipped only at the rare hits rather than
    per simulated step/segment.
    """
    if q is not None:
        hr, hc = np.nonzero(valid)
        if hr.size:
            missed = rng.random(hr.size) >= q
            valid[hr[missed], hc[missed]] = False
    return valid


def _step_chunk_hits(
    track: TargetTrack,
    px: np.ndarray,
    py: np.ndarray,
    alive: np.ndarray,
    trial_of: np.ndarray,
    t: int,
    span: int,
    plan: Optional[_SlotPlan],
    q: Optional[float],
    rng,
) -> np.ndarray:
    """Valid-hit matrix for one dynamic-world step chunk.

    Targets are frozen at the chunk's start time ``t`` — the walker
    engine's per-chunk motion granularity (pass a smaller ``chunk`` to
    refine it) — then each target is an elementwise position comparison,
    arrival-gated in wall-clock time and detection-thinned with the
    composed detection probability ``q``.
    """
    trials_idx = trial_of[alive]
    pos = track.positions_at(t)
    steps = t + 1 + np.arange(span, dtype=np.int64)
    if plan is not None:
        wall = plan.wall(alive[:, None], steps[None, :].astype(np.float64))
        cap_ok = steps[None, :] <= plan.step_cap[alive, None]
    else:
        wall = steps.astype(np.float64)[None, :]
        cap_ok = None
    hit = np.zeros(px.shape, dtype=bool)
    for j in range(track.n):
        hj = (px == pos[trials_idx, j, 0][:, None]) & (
            py == pos[trials_idx, j, 1][:, None]
        )
        if track.spec.arrival == "geometric":
            hj = hj & (wall >= track.arrival[trials_idx, j][:, None])
        hit |= _mask_missed(hj, q, rng)
    if cap_ok is not None:
        hit = hit & cap_ok
    return hit


def _segment_hits(
    track: TargetTrack,
    start_x: np.ndarray,
    start_y: np.ndarray,
    start_t: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    lengths: np.ndarray,
    alive: np.ndarray,
    trial_of: np.ndarray,
    horizon: int,
    plan: Optional[_SlotPlan],
    q: Optional[float],
    rng,
) -> np.ndarray:
    """Per-slot earliest valid hit *step time* (inf when none).

    Targets are frozen at the chunk's earliest slot clock (monotone across
    chunks: every surviving slot's clock only grows).  A segment crosses
    a target iff the target lies on its axis-aligned ray within the
    segment length: a closed-form test.  Hits count up to the slot's step
    cap, then at or after the target's arrival, and each survives its
    detection coin with probability ``q`` (a straight segment crosses a
    cell at most once, so one coin per hitting segment is exact).  Hit
    times along a slot's segment stream strictly increase (length-0
    segments never hit), so the minimum over all (segment, target)
    entries is the slot's first valid hit.
    """
    trials_idx = trial_of[alive]
    chunk_start = float(start_t[:, 0].min()) if start_t.size else 0.0
    pos = track.positions_at(chunk_start)
    geometric = track.spec.arrival == "geometric"
    best_step = np.full(alive.size, np.inf)
    for j in range(track.n):
        txj = pos[trials_idx, j, 0][:, None]
        tyj = pos[trials_idx, j, 1][:, None]
        off_x = (txj - start_x) * dx
        off_y = (tyj - start_y) * dy
        hit = np.where(
            dx != 0,
            (start_y == tyj) & (off_x >= 1) & (off_x <= lengths),
            (start_x == txj) & (off_y >= 1) & (off_y <= lengths),
        )
        offset = np.where(dx != 0, off_x, off_y)
        hit_time = start_t + offset
        if plan is None:
            valid = hit & (hit_time <= horizon)
        else:
            valid = hit & (hit_time <= plan.step_cap[alive, None])
        if geometric:
            wall = hit_time.astype(np.float64)
            if plan is not None:
                wall = plan.wall(alive[:, None], wall)
            valid = valid & (wall >= track.arrival[trials_idx, j][:, None])
        valid = _mask_missed(valid, q, rng)
        times = np.where(valid, hit_time.astype(np.float64), np.inf)
        best_step = np.minimum(best_step, times.min(axis=1))
    return best_step


class Walker(ABC):
    """A memoryless baseline simulable by the batched walker engine.

    Subclasses implement :meth:`find_times` (the vectorised simulator) and
    :meth:`step_algorithm` (the equivalent
    :class:`repro.algorithms.base.SearchAlgorithm`, used by the
    cross-engine parity tests).  ``uses_k`` mirrors the step-program
    baselines: walkers are k-oblivious.
    """

    uses_k = False
    name = "walker"

    @abstractmethod
    def find_times(
        self,
        world: WorldLike,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: float,
        chunk: Optional[int] = None,
        scenario: Optional[ScenarioSpec] = None,
        start_delays=None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        """First times any of ``k`` walkers stands on the treasure.

        Returns a float array of shape ``(trials,)``: the first time at
        which any of the trial's ``k`` independent walkers visits the
        treasure, or ``inf`` if none does within ``horizon`` steps.  A hit
        at exactly ``horizon`` is kept (the step engine's rule).

        ``scenario`` (:class:`repro.scenarios.ScenarioSpec`) perturbs the
        walkers — crash lifetimes, per-agent speeds (times become
        wall-clock: a step costs ``1 / speed``), staggered starts, lossy
        detection.  ``start_delays`` (shape ``(k,)`` or ``(trials, k)``)
        gives explicit per-agent delays, matching the excursion engines'
        parameter; both perturbations combine additively.  The default
        (no scenario, no delays) is bitwise identical to the unperturbed
        engine.

        ``world`` is a :class:`World` or a ``(tx, ty)`` pair; with a
        multi-target ``world_spec`` it may also be an ``(n_targets, 2)``
        array of initial positions.  ``world_spec``
        (:class:`repro.sim.world.WorldSpec`) declares the world process;
        ``None`` or the all-default spec is the paper's static treasure
        and draws no target randomness.  Moving targets are frozen per
        simulation chunk.
        """

    @abstractmethod
    def step_algorithm(self):
        """The step-program twin (``repro.algorithms.baselines``) for parity."""

    def describe(self) -> str:
        return self.step_algorithm().describe()


class RandomWalker(Walker):
    """Simple symmetric random walk on ``Z^2`` (:class:`RandomWalkSearch`)."""

    name = "random-walk"

    def find_times(
        self,
        world: WorldLike,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: float,
        chunk: Optional[int] = None,
        scenario: Optional[ScenarioSpec] = None,
        start_delays=None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        horizon = _validate(k, trials, horizon)
        track = _world_track(world, world_spec, trials, seed)
        rng = make_rng(seed)
        static = track.spec.is_default
        if static:
            tx, ty = track.positions_at(0)[0, 0]
        n = trials * k
        span_cap = _auto_chunk(n, chunk, floor=16, cap=8192)
        x = np.zeros(n, dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        trial_of = np.repeat(np.arange(trials), k)
        trial_best = np.full(trials, np.inf)
        alive = np.arange(n)
        plan = _slot_plan(scenario, start_delays, k, trials, horizon, rng)
        q = composed_detection(
            track.spec, plan.detection if plan is not None else None
        )
        max_steps = horizon
        if plan is not None:
            alive = alive[plan.step_cap[alive] > 0]
            max_steps = int(plan.step_cap.max(initial=0))
        t = 0
        while t < max_steps and alive.size:
            span = min(span_cap, max_steps - t)
            moves = rng.integers(0, 4, size=(alive.size, span))
            px = x[alive, None] + np.cumsum(_DIR_X[moves], axis=1)
            py = y[alive, None] + np.cumsum(_DIR_Y[moves], axis=1)
            if static:
                hit = (px == tx) & (py == ty)
                if plan is not None:
                    # Hit at chunk column j happens at step t + j + 1; only
                    # steps within the slot's cap (horizon and crash, in its
                    # own speed) count, and each crossing is noticed only with
                    # the scenario's detection probability.
                    steps = t + 1 + np.arange(span, dtype=np.int64)
                    hit = hit & (steps[None, :] <= plan.step_cap[alive, None])
                    hit = _mask_missed(hit, q, rng)
            else:
                hit = _step_chunk_hits(
                    track, px, py, alive, trial_of, t, span, plan, q, rng
                )
            any_hit = hit.any(axis=1)
            if np.any(any_hit):
                first = np.argmax(hit[any_hit], axis=1)
                if plan is not None:
                    sel = alive[any_hit]
                    np.minimum.at(
                        trial_best, trial_of[sel],
                        plan.wall(sel, t + first + 1.0),
                    )
                else:
                    np.minimum.at(
                        trial_best, trial_of[alive[any_hit]], t + first + 1.0
                    )
            x[alive] = px[:, -1]
            y[alive] = py[:, -1]
            t += span
            # Finders stop; siblings of a finished trial can only hit at
            # times > t >= the trial's recorded find, so they retire too.
            alive = alive[~any_hit]
            if plan is not None:
                alive = alive[t < plan.step_cap[alive]]
                alive = alive[
                    plan.wall(alive, t) < trial_best[trial_of[alive]]
                ]
            else:
                alive = alive[t < trial_best[trial_of[alive]]]
        return trial_best

    def step_algorithm(self):
        from ..algorithms.baselines import RandomWalkSearch

        return RandomWalkSearch()


class _SegmentWalker(Walker):
    """Shared chunk loop for walkers that move in straight segments.

    Subclasses provide :meth:`_sample_segments` — ``(lengths, headings)``
    matrices for the steady-state segment stream — and optionally
    :meth:`_initial_segments` when the first segment per walker is
    distributed differently (the correlated walk's first run).
    """

    def _initial_segments(
        self, rng: np.random.Generator, count: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per-walker first segment ``(lengths, headings)``, or ``None``."""
        return None

    @abstractmethod
    def _sample_segments(
        self, rng: np.random.Generator, count: int, segments: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw a ``(count, segments)`` block of segment lengths/headings."""

    def find_times(
        self,
        world: WorldLike,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: float,
        chunk: Optional[int] = None,
        scenario: Optional[ScenarioSpec] = None,
        start_delays=None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        horizon = _validate(k, trials, horizon)
        track = _world_track(world, world_spec, trials, seed)
        rng = make_rng(seed)
        n = trials * k
        segs = _auto_chunk(n, chunk, floor=16, cap=512)
        x = np.zeros(n, dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        t = np.zeros(n, dtype=np.int64)
        trial_of = np.repeat(np.arange(trials), k)
        trial_best = np.full(trials, np.inf)
        alive = np.arange(n)
        plan = _slot_plan(scenario, start_delays, k, trials, horizon, rng)
        if plan is not None:
            alive = alive[plan.step_cap[alive] > 0]
        q = composed_detection(
            track.spec, plan.detection if plan is not None else None
        )

        first_block = self._initial_segments(rng, n)
        if first_block is not None:
            lengths, dirs = first_block
            if plan is not None:
                lengths, dirs = lengths[alive], dirs[alive]
            alive = self._consume(
                x, y, t, trial_of, trial_best, alive,
                lengths[:, None], dirs[:, None], track, horizon, plan, q, rng,
            )
        while alive.size:
            lengths, dirs = self._sample_segments(rng, alive.size, segs)
            alive = self._consume(
                x, y, t, trial_of, trial_best, alive,
                lengths, dirs, track, horizon, plan, q, rng,
            )
        return trial_best

    @staticmethod
    def _consume(
        x, y, t, trial_of, trial_best, alive, lengths, dirs, track, horizon,
        plan, q, rng,
    ) -> np.ndarray:
        """Walk one ``(alive, segments)`` block; returns the surviving rows."""
        dx = _DIR_X[dirs]
        dy = _DIR_Y[dirs]
        step_x = dx * lengths
        step_y = dy * lengths
        end_x = x[alive, None] + np.cumsum(step_x, axis=1)
        end_y = y[alive, None] + np.cumsum(step_y, axis=1)
        end_t = t[alive, None] + np.cumsum(lengths, axis=1)
        start_x = end_x - step_x
        start_y = end_y - step_y
        start_t = end_t - lengths
        find_step = _segment_hits(
            track, start_x, start_y, start_t, dx, dy, lengths,
            alive, trial_of, horizon, plan, q, rng,
        )
        any_hit = np.isfinite(find_step)
        if np.any(any_hit):
            if plan is None:
                np.minimum.at(
                    trial_best, trial_of[alive[any_hit]], find_step[any_hit]
                )
            else:
                sel = alive[any_hit]
                np.minimum.at(
                    trial_best, trial_of[sel], plan.wall(sel, find_step[any_hit])
                )
        x[alive] = end_x[:, -1]
        y[alive] = end_y[:, -1]
        t[alive] = end_t[:, -1]
        # Survivors: no hit, clock inside the horizon (and crash cap), and
        # — since a live walker's future hits happen strictly after its
        # clock — still able to beat the trial's recorded find.
        alive = alive[~any_hit]
        if plan is None:
            return alive[
                (t[alive] < horizon) & (t[alive] < trial_best[trial_of[alive]])
            ]
        return alive[
            (t[alive] < plan.step_cap[alive])
            & (plan.wall(alive, t[alive]) < trial_best[trial_of[alive]])
        ]


class BiasedWalker(_SegmentWalker):
    """Correlated random walk with heading persistence (:class:`BiasedWalkSearch`).

    Each step keeps the current heading with probability ``persistence``
    and otherwise redraws it uniformly from the four axis directions.  The
    i.i.d. reorientation coins make straight runs geometric — length
    ``~ Geometric(1 - persistence)`` with an independent uniform heading
    per run — so the engine resamples headings per *run* (the first run is
    one step shorter: the step program checks the coin before the first
    move, so the initial heading survives zero or more steps).
    """

    def __init__(self, persistence: float = 0.9):
        if not 0 <= persistence < 1:
            raise ValueError(f"persistence must be in [0, 1), got {persistence}")
        self.persistence = float(persistence)
        self.name = f"biased-walk(p={persistence:g})"

    def _initial_segments(self, rng, count):
        lengths = rng.geometric(1.0 - self.persistence, size=count) - 1
        return lengths.astype(np.int64), rng.integers(0, 4, size=count)

    def _sample_segments(self, rng, count, segments):
        lengths = rng.geometric(1.0 - self.persistence, size=(count, segments))
        return lengths.astype(np.int64), rng.integers(0, 4, size=(count, segments))

    def step_algorithm(self):
        from ..algorithms.baselines import BiasedWalkSearch

        return BiasedWalkSearch(self.persistence)


class LevyWalker(_SegmentWalker):
    """Lévy flight with Zipf segment lengths (:class:`LevyFlightSearch`).

    Per chunk, each live walker draws a batch of ``(length, direction)``
    pairs (``length ~ Zipf(mu)`` capped at ``max_segment``) and resolves
    them with the closed-form ray test, so a length-``L`` flight costs
    O(1) instead of ``L`` per-cell steps.
    """

    def __init__(self, mu: float = 2.0, max_segment: int = 10**6):
        if not 1.0 < mu <= 4.0:
            raise ValueError(f"mu must be in (1, 4], got {mu}")
        self.mu = float(mu)
        self.max_segment = int(max_segment)
        self.name = f"levy(mu={mu:g})"

    def _sample_segments(self, rng, count, segments):
        lengths = np.minimum(
            rng.zipf(self.mu, size=(count, segments)), self.max_segment
        ).astype(np.int64)
        return lengths, rng.integers(0, 4, size=(count, segments))

    def step_algorithm(self):
        from ..algorithms.baselines import LevyFlightSearch

        return LevyFlightSearch(self.mu, self.max_segment)


def walker_find_times(
    walker: Walker,
    world: WorldLike,
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: float,
    chunk: Optional[int] = None,
    scenario: Optional[ScenarioSpec] = None,
    start_delays=None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """Functional entry point: ``walker.find_times`` with the same contract."""
    return walker.find_times(
        world, k, trials, seed, horizon=horizon, chunk=chunk,
        scenario=scenario, start_delays=start_delays, world_spec=world_spec,
    )


def walker_find_times_block(
    walker: Walker,
    world: WorldLike,
    k: int,
    trials: int,
    root_seed: SeedLike,
    *,
    distance: int,
    block: int,
    horizon: float,
    chunk: Optional[int] = None,
    scenario: Optional[ScenarioSpec] = None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """One deterministic trial block of walker cell ``(distance, k)``.

    The walker twin of :func:`repro.sim.events.simulate_find_times_block`:
    block ``block`` is seeded
    ``derive_seed(root_seed, BLOCK_STREAM, distance, k, block)``, so a
    cell's blocks depend only on ``(root_seed, distance, k, block)`` and
    cached blocks append bitwise-identically across runs and processes.
    """
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    seed = derive_seed(root_seed, BLOCK_STREAM, int(distance), int(k), int(block))
    return walker.find_times(
        world, k, trials, seed, horizon=horizon, chunk=chunk,
        scenario=scenario, world_spec=world_spec,
    )


def walker_find_times_batch(
    walker: Walker,
    worlds: Sequence[WorldLike],
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: float,
    chunk: Optional[int] = None,
    scenario: Optional[ScenarioSpec] = None,
    start_delays=None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """Per-world find-time matrix, shape ``(len(worlds), trials)``.

    The sweep-facing twin of :func:`walker_find_times` (the walker
    counterpart of :func:`repro.sim.events.simulate_find_times_batch`,
    the excursion kernel's multi-world entry point):
    world ``w`` is simulated with the ``w``-th child of ``seed``
    (:func:`repro.sim.rng.spawn_seeds`), so each row is bitwise identical
    to a direct :meth:`Walker.find_times` call with that child seed —
    independent of how worlds are distributed across sweep workers.

    Unlike the excursion kernel's world sets, draws are *not* shared across
    worlds: a walker's trajectory has ``horizon`` steps of state, so
    cross-world sharing would couple entire paths rather than pairing
    noise, and the chunked simulators are already within a small factor
    of memory bandwidth.
    """
    if len(worlds) == 0:
        raise ValueError("worlds must be non-empty")
    rows = [
        walker.find_times(
            w, k, trials, s, horizon=horizon, chunk=chunk,
            scenario=scenario, start_delays=start_delays,
            world_spec=world_spec,
        )
        for w, s in zip(worlds, spawn_seeds(seed, len(worlds)))
    ]
    return np.stack(rows)
