"""Vectorised excursion-level simulation of excursion algorithms.

For every algorithm built from go/spiral/return excursions (all of the
paper's constructions), the only randomness in a phase is the excursion
draw; conditioned on it, the time at which the agent would stand on the
treasure is a closed form:

* on the outbound Manhattan leg (x-first), if the treasure lies on it;
* during the spiral, at ``travel + spiral_hit_time(tau - u)`` if that hit
  time is within the budget;
* on the return leg, again geometrically.

:func:`simulate_find_times` therefore never steps the grid: it samples all
``trials x k`` excursion draws for a phase at once, resolves hits with the
closed forms of :mod:`repro.core.spiral`, and advances per-agent clocks.
This is exact in distribution — validated against the step engine by
``tests/test_engine_vs_events.py`` — and several orders of magnitude
faster, which is what makes the paper-scale parameter sweeps feasible.

Every static-world simulation runs through one phase loop,
:func:`simulate_find_times_stacked`.  Its :class:`StackedTask` is a set of
worlds sharing one generator's excursion draws, and many independent
tasks (the sweep runner's trial blocks) run as one NumPy pass per phase;
each task's output is bitwise equal to its own lone call.
:func:`simulate_find_times_batch` is the kernel's one-task case and the
static path of :func:`simulate_find_times` its one-task, one-world case.
Dynamic and multi-target worlds have their own phase loop, because they
draw detection coins per target.

:func:`excursion_find_time` is the scalar single-agent twin used for exact
replay tests against the step engine: given the same RNG it consumes
random numbers in exactly the same order as
:meth:`repro.algorithms.base.ExcursionAlgorithm.step_program`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.base import ExcursionAlgorithm, ExcursionFamily
from ..core.spiral import (
    SAFE_OFFSET,
    ring_entry_time_array,
    spiral_hit_time,
    spiral_hit_time_array,
    spiral_hit_time_float_array,
    spiral_position,
    spiral_position_array,
)
from ..scenarios import ScenarioSpec, resolve_scenario
from .rng import BLOCK_STREAM, SeedLike, derive_rng, derive_seed, make_rng
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
    "simulate_find_times",
    "simulate_find_times_block",
    "simulate_find_times_stacked",
    "simulate_find_times_batch",
    "StackedTask",
    "excursion_find_time",
    "expected_find_time",
    "find_time_statistics",
]

WorldsLike = Union[Sequence[World], Sequence[Tuple[int, int]], np.ndarray]


def _hit_times(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Spiral hit times as float64: exact int64 path, float64 for far offsets.

    Heavy-tailed samplers (harmonic search) occasionally draw start nodes
    so distant that the int64 closed form would overflow; those entries are
    resolved in float64, whose few-ULP error is irrelevant at that scale.
    """
    dx = np.asarray(dx, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.int64)
    far = (np.abs(dx) > SAFE_OFFSET) | (np.abs(dy) > SAFE_OFFSET)
    if not np.any(far):
        return spiral_hit_time_array(dx, dy).astype(np.float64)
    out = np.empty(dx.shape, dtype=np.float64)
    near = ~far
    out[near] = spiral_hit_time_array(dx[near], dy[near])
    out[far] = spiral_hit_time_float_array(dx[far], dy[far])
    return out


def _outbound_hit_offsets(
    ux: np.ndarray, uy: np.ndarray, tx: int, ty: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Treasure hits on the x-first Manhattan walk from the source to ``u``.

    Returns ``(mask, offset)``: whether the treasure lies on the leg and the
    number of steps into the walk at which it is reached.
    """
    sgnx = np.sign(ux)
    sgny = np.sign(uy)
    on_x_leg = (ty == 0) & (tx * sgnx >= 1) & (abs(tx) <= np.abs(ux))
    on_y_leg = (tx == ux) & (ty * sgny >= 1) & (abs(ty) <= np.abs(uy))
    offset = np.where(on_x_leg, abs(tx), np.abs(ux) + abs(ty))
    return on_x_leg | on_y_leg, offset


def _return_hit_offsets(
    ex: np.ndarray, ey: np.ndarray, tx: int, ty: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Treasure hits on the x-first Manhattan walk from ``e`` back to the source."""
    on_x_leg = (ty == ey) & (tx * np.sign(ex) >= 0) & (abs(tx) <= np.abs(ex))
    on_y_leg = (tx == 0) & (ty * np.sign(ey) >= 0) & (abs(ty) <= np.abs(ey))
    off_x = np.abs(ex) - abs(tx)
    off_y = np.abs(ex) + np.abs(ey) - abs(ty)
    offset = np.where(on_x_leg, off_x, off_y)
    return on_x_leg | on_y_leg, offset


def _scenario_state(
    scn: Optional[ScenarioSpec],
    k: int,
    trials: int,
    cum: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[
    np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[float]
]:
    """Resolve an active scenario against the initial agent clocks.

    Returns ``(cum, speeds, crash_abs, q)``: the (possibly delayed)
    per-slot clocks, the per-agent speed row (``None`` for unit speeds),
    the absolute wall-clock crash times (``None`` for immortal agents;
    lifetimes are geometric with the spec's per-time-unit hazard, measured
    from each agent's own start) and the detection probability (``None``
    for perfect detection).  A ``None`` scenario returns everything
    untouched — the engines then never branch off the legacy path.

    Crash lifetimes come from a *spawned child* of ``rng``, not the main
    stream: the excursion draws that follow are then identical across
    hazard settings of the same seed, so a hazard sweep (E11) compares
    paired executions rather than independent resamples.
    """
    if scn is None:
        return cum, None, None, None
    if scn.start_stagger > 0:
        cum = cum + scn.delays(k)
    speeds = scn.speeds(k) if scn.speed_spread > 0 else None
    crash_abs = None
    if scn.crash_hazard > 0:
        (life_rng,) = rng.spawn(1)
        lifetimes = life_rng.geometric(scn.crash_hazard, size=(trials, k))
        crash_abs = cum + lifetimes.astype(np.float64)
    q = scn.detection_prob if scn.detection_prob < 1 else None
    return cum, speeds, crash_abs, q


def _simulate_find_times_dynamic(
    algorithm: ExcursionAlgorithm,
    targets0: np.ndarray,
    spec: WorldSpec,
    k: int,
    trials: int,
    seed: SeedLike,
    *,
    horizon: Optional[float],
    max_phases: int,
    start_delays: Optional[np.ndarray],
    scenario: Optional[ScenarioSpec],
) -> np.ndarray:
    """Dynamic/multi-target twin of :func:`simulate_find_times`.

    Target positions are advanced *at excursion granularity*: each phase,
    every trial's targets are moved in closed form to that trial's
    earliest active-agent clock and frozen for the phase's excursions
    (exact for static multi-target worlds; the documented modelling
    granularity for moving targets — see DESIGN.md §10).  Hits are
    resolved per target with the same outbound/spiral/return closed forms
    as the legacy kernel; a hit is valid only at wall-clock times at or
    after the target's arrival, gated per leg because arrival is a lower
    bound (a return-leg crossing can count even when the outbound crossing
    of the same excursion was too early).
    """
    if spec.motion != "static" and horizon is None:
        raise ValueError(
            "dynamic-motion worlds need a horizon: a moving target can "
            "escape every searcher, so an un-capped run may never end"
        )
    rng = make_rng(seed)
    motion_rng = derive_rng(seed, TARGET_STREAM)
    scn = resolve_scenario(scenario)

    cum = np.zeros((trials, k), dtype=np.float64)
    if start_delays is not None:
        delays = np.asarray(start_delays, dtype=np.float64)
        if np.any(delays < 0):
            raise ValueError("start delays must be non-negative")
        cum = cum + np.broadcast_to(delays, (trials, k))
    cum, speeds, crash_abs, q = _scenario_state(scn, k, trials, cum, rng)
    q_eff = composed_detection(spec, q)
    track = TargetTrack(spec, targets0, trials, motion_rng)
    best = np.full(trials, np.inf)
    cap = np.inf if horizon is None else float(horizon)

    families = algorithm.families()
    for phase_index in itertools.count():
        if phase_index >= max_phases:
            raise RuntimeError(
                f"simulation exceeded max_phases={max_phases}; "
                f"pass a horizon or raise the cap"
            )
        if crash_abs is not None:
            cum[cum >= crash_abs] = np.inf
        active = cum < np.minimum(best, cap)[:, None]
        if not np.any(active):
            break
        family = next(families, None)
        if family is None:
            break

        rows, cols = np.nonzero(active)
        count = rows.size
        ux, uy, budgets = family.sample(rng, count)
        start = cum[rows, cols]
        travel = np.abs(ux) + np.abs(uy)
        dx_end, dy_end = spiral_position_array(budgets)
        ex = ux + dx_end
        ey = uy + dy_end
        speed = speeds[cols] if speeds is not None else None

        # Freeze each trial's targets at its earliest active clock.
        t_query = np.where(
            active.any(axis=1),
            np.min(np.where(active, cum, np.inf), axis=1),
            0.0,
        )
        pos = track.positions(t_query)

        # Earliest valid hit on any target, per draw, in wall-clock time.
        hit_wall = np.full(count, np.inf)
        for j in range(spec.n_targets):
            txj = pos[rows, j, 0]
            tyj = pos[rows, j, 1]
            arr_j = track.arrival[rows, j]

            out_mask, out_off = _outbound_hit_offsets(ux, uy, txj, tyj)
            if q_eff is not None:
                out_mask = out_mask & (rng.random(count) < q_eff)
            spiral_hit = _hit_times(txj - ux, tyj - uy)
            sp_mask = spiral_hit <= budgets
            if q_eff is not None:
                sp_mask = sp_mask & (rng.random(count) < q_eff)
            ret_mask, ret_off = _return_hit_offsets(ex, ey, txj, tyj)
            if q_eff is not None:
                ret_mask = ret_mask & (rng.random(count) < q_eff)

            target_wall = np.full(count, np.inf)
            for mask, off in (
                (out_mask, out_off.astype(np.float64)),
                (sp_mask, travel + spiral_hit),
                (ret_mask, travel + budgets + ret_off),
            ):
                wall = start + (off / speed if speed is not None else off)
                ok = mask & (wall >= arr_j)
                target_wall = np.where(
                    ok, np.minimum(target_wall, wall), target_wall
                )
            hit_wall = np.minimum(hit_wall, target_wall)

        found = np.isfinite(hit_wall)
        if crash_abs is not None:
            found &= hit_wall <= crash_abs[rows, cols]
        if np.any(found):
            np.minimum.at(best, rows[found], hit_wall[found])
            cum[rows[found], cols[found]] = np.inf

        not_found = ~found
        duration = travel + budgets + np.abs(ex) + np.abs(ey)
        if speed is not None:
            duration = duration / speed
        cum[rows[not_found], cols[not_found]] = (
            start[not_found] + duration[not_found]
        )

    best[best > cap] = np.inf
    return best


def simulate_find_times(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    start_delays: Optional[np.ndarray] = None,
    scenario: Optional[ScenarioSpec] = None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """First times at which any of ``k`` agents finds the treasure.

    Runs ``trials`` independent executions of ``algorithm`` with ``k``
    agents each and returns a float array of shape ``(trials,)`` holding the
    first find time per execution (``inf`` when the excursion stream ends —
    one-shot algorithms — or ``horizon`` is exceeded without a find).

    Semantics are identical to the step engine: a find is recorded on the
    outbound leg, the spiral, or the return leg, whichever comes first.

    ``start_delays`` (shape ``(k,)`` or ``(trials, k)``, non-negative)
    models the paper's asynchronous-start remark (Section 2): agent ``i``
    only begins executing at its delay; times remain measured from ``t0 = 0``.

    ``scenario`` (:class:`repro.scenarios.ScenarioSpec`) perturbs agents
    with crash failures, heterogeneous speeds, staggered starts, and lossy
    detection; all times stay wall-clock (an edge costs ``1 / speed``).
    A ``None`` or all-default scenario takes exactly the legacy code path
    and is bitwise identical to the unperturbed engine.

    ``world_spec`` (:class:`repro.sim.world.WorldSpec`) declares the world
    process.  A ``None`` or all-default spec resolves to ``None`` and the
    static single-target path runs: the one-task case of
    :func:`simulate_find_times_stacked` (bitwise identical output to the
    pre-world engine, enforced by property tests); anything else
    routes to the dynamic kernel, where ``world`` may also be an
    ``(n_targets, 2)`` array of initial target positions.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    wspec = resolve_world(world_spec)
    if wspec is not None:
        return _simulate_find_times_dynamic(
            algorithm,
            initial_targets(world, wspec),
            wspec,
            k,
            trials,
            seed,
            horizon=horizon,
            max_phases=max_phases,
            start_delays=start_delays,
            scenario=scenario,
        )
    return simulate_find_times_stacked(
        [
            StackedTask(
                algorithm, [world], k, trials, seed, horizon=horizon,
                start_delays=start_delays, scenario=scenario,
            )
        ],
        max_phases=max_phases,
    )[0][0]


def _block_seed(root_seed: SeedLike, distance: int, k: int, block: int) -> int:
    """Seed of trial block ``block`` of cell ``(distance, k)``."""
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    return derive_seed(root_seed, BLOCK_STREAM, int(distance), int(k), int(block))


@dataclass(frozen=True, eq=False)
class StackedTask:
    """One static-world simulation of a stacked pass.

    The fields are :func:`simulate_find_times_batch`'s arguments:
    ``worlds`` (``World`` instances, ``(tx, ty)`` pairs or an ``(n, 2)``
    integer array) share the task's excursion draws, and the task's
    result is their ``(len(worlds), trials)`` find-time matrix.
    :meth:`for_block` builds the one-world task of one sweep block, seeded
    like :func:`simulate_find_times_block`.  That task holds the block's
    live generator (constructed, and so traced, where ``for_block`` is
    called), so it runs once.
    """

    algorithm: ExcursionAlgorithm
    worlds: WorldsLike
    k: int
    trials: int
    seed: SeedLike = None
    horizon: Optional[float] = None
    start_delays: Optional[np.ndarray] = None
    scenario: Optional[ScenarioSpec] = None

    @classmethod
    def for_block(
        cls,
        algorithm: ExcursionAlgorithm,
        world: World,
        k: int,
        trials: int,
        root_seed: SeedLike,
        *,
        distance: int,
        block: int,
        horizon: Optional[float] = None,
        scenario: Optional[ScenarioSpec] = None,
    ) -> "StackedTask":
        return cls(
            algorithm, [world], k, trials,
            make_rng(_block_seed(root_seed, distance, k, block)),
            horizon=horizon, scenario=scenario,
        )


def _as_treasure_arrays(worlds: WorldsLike) -> np.ndarray:
    """Normalise a worlds argument to an ``(n, 2)`` int64 treasure array.

    Accepts a sequence of :class:`World` instances, a sequence of
    ``(tx, ty)`` pairs, or an ``(n, 2)`` array.  Coordinates must be
    integral: integer-valued floats are accepted, anything else raises
    rather than being truncated to a different node.
    """
    if not isinstance(worlds, np.ndarray):
        worlds = [w.treasure if isinstance(w, World) else tuple(w)
                  for w in worlds]
    pairs = np.asarray(worlds)
    if pairs.dtype.kind == "f" and not np.all(
        np.isfinite(pairs) & (pairs == np.floor(pairs))
    ):
        raise ValueError("treasure coordinates must be integers")
    pairs = pairs.astype(np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise ValueError(
            f"worlds must be a non-empty sequence of (tx, ty) pairs; "
            f"got array of shape {pairs.shape}"
        )
    if np.any((pairs[:, 0] == 0) & (pairs[:, 1] == 0)):
        raise ValueError("treasure must not be placed on the source")
    return pairs


def _resolve_draws(
    families: Sequence[ExcursionFamily],
    draws: Sequence[Tuple[np.ndarray, ...]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every task's draws: one call over all of them when the
    family types agree (the sweep case), else one call per task."""
    resolve = type(families[0]).resolve
    if all(type(family).resolve is resolve for family in families):
        return resolve(tuple(np.concatenate(field) for field in zip(*draws)))
    parts = [type(f).resolve(d) for f, d in zip(families, draws)]
    ux, uy, budgets = (np.concatenate(field) for field in zip(*parts))
    return ux, uy, budgets


def simulate_find_times_stacked(
    tasks: Sequence[StackedTask],
    *,
    max_phases: int = 1_000_000,
) -> List[np.ndarray]:
    """Many independent static-world simulations as one NumPy pass per phase.

    Returns one ``(len(task.worlds), task.trials)`` find-time matrix per
    task, each bitwise equal to ``simulate_find_times_batch(task.algorithm,
    task.worlds, task.k, task.trials, task.seed, ...)`` run on its own (and
    a one-world task's row to the matching :func:`simulate_find_times`
    call).  The equality holds because every task keeps its own generator
    and ``families()`` iterator and makes exactly that call's RNG calls in
    exactly its order — the excursion draw of :meth:`ExcursionFamily.draw`,
    then the outbound, spiral and return detection coins — while
    everything without randomness is elementwise and runs once over the
    union of the live tasks' slots: resolving the draws to start nodes,
    the outbound/spiral/return hit closed forms, the spiral end positions,
    and the ``best``/clock updates.

    A task's worlds are resolved against its shared draws on a (most open
    worlds of a live task) x (live draws) hit grid; a task with fewer open
    worlds pads with its last one, whose hits land in that world's entry
    again.  A slot (trial, agent) stays live while any of its task's
    worlds still wants it, and a world leaves the grid once no clock can
    improve it.  Finders keep advancing rather than parking: a hit is
    never later than the end of its excursion, so later excursions never
    undercut the ``best`` it set.  A task leaves the union when none of
    its slots can improve its result or its excursion stream ends.

    The per-phase Python and NumPy-call overhead is then paid once per
    phase instead of once per task and phase, which is what dominates
    small blocks (the adaptive sweep path's 32-128-trial blocks).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    rngs: List[np.random.Generator] = []
    streams: List[Iterator[ExcursionFamily]] = []
    cums, speed_rows, crash_rows, coin_qs, treasures = [], [], [], [], []
    for task in tasks:
        if task.k < 1:
            raise ValueError(f"k must be >= 1, got {task.k}")
        if task.trials < 1:
            raise ValueError(f"trials must be >= 1, got {task.trials}")
        treasures.append(_as_treasure_arrays(task.worlds))
        rng = make_rng(task.seed)
        cum = np.zeros((task.trials, task.k), dtype=np.float64)
        if task.start_delays is not None:
            delays = np.asarray(task.start_delays, dtype=np.float64)
            if np.any(delays < 0):
                raise ValueError("start delays must be non-negative")
            cum = cum + np.broadcast_to(delays, (task.trials, task.k))
        cum, speeds, crash_abs, q = _scenario_state(
            resolve_scenario(task.scenario), task.k, task.trials, cum, rng
        )
        rngs.append(rng)
        streams.append(task.algorithm.families())
        cums.append(cum.ravel())
        speed_rows.append(speeds)
        crash_rows.append(crash_abs)
        coin_qs.append(q)

    # Flat per-slot state: task segments are contiguous and row-major
    # within, so np.flatnonzero(active) lists each task's live slots in
    # exactly the order np.nonzero gives on its own (trials, k) grid.
    trials = np.array([task.trials for task in tasks])
    ks = np.array([task.k for task in tasks])
    slot_bounds = np.concatenate([[0], np.cumsum(trials * ks)])
    trial_bounds = np.concatenate([[0], np.cumsum(trials)])
    cum = np.concatenate(cums)
    slot_trial = np.repeat(np.arange(trial_bounds[-1]), np.repeat(ks, trials))
    trial_slots = np.concatenate([[0], np.cumsum(np.repeat(ks, trials))[:-1]])
    trial_cap = np.repeat(
        [np.inf if t.horizon is None else float(t.horizon) for t in tasks],
        trials,
    )
    slot_speed = None
    if any(row is not None for row in speed_rows):
        slot_speed = np.concatenate([
            np.tile(row if row is not None else np.ones(t.k), t.trials)
            for row, t in zip(speed_rows, tasks)
        ])
    slot_crash = None
    if any(row is not None for row in crash_rows):
        slot_crash = np.concatenate([
            row.ravel() if row is not None else np.full(t.trials * t.k, np.inf)
            for row, t in zip(crash_rows, tasks)
        ])
    lossy = any(q is not None for q in coin_qs)

    # Worlds are numbered task by task; ``best`` holds one entry per
    # (trial, world), the task's worlds contiguous within each trial.
    n_worlds = np.array([len(pairs) for pairs in treasures])
    treasure_x, treasure_y = np.concatenate(treasures).T
    world_task = np.repeat(np.arange(len(tasks)), n_worlds)
    world_bounds = np.concatenate([[0], np.cumsum(n_worlds)])
    world_local = np.arange(world_bounds[-1]) - world_bounds[world_task]
    trial_worlds = np.repeat(n_worlds, trials)
    trial_entries = np.concatenate([[0], np.cumsum(trial_worlds)[:-1]])
    entry_trial = np.repeat(np.arange(trial_bounds[-1]), trial_worlds)
    entry_world = (
        world_bounds[np.repeat(np.arange(len(tasks)), trials)][entry_trial]
        + np.arange(entry_trial.size) - trial_entries[entry_trial]
    )
    entry_cap = trial_cap[entry_trial]
    best = np.full(entry_trial.size, np.inf)
    single_world = world_bounds[-1] == len(tasks)

    running = list(range(len(tasks)))
    for phase_index in itertools.count():
        if phase_index >= max_phases:
            raise RuntimeError(
                f"simulation exceeded max_phases={max_phases}; "
                f"pass a horizon or raise the cap"
            )
        if slot_crash is not None:
            # Crashed agents never move again; park their clocks at +inf.
            cum[cum >= slot_crash] = np.inf
        # A slot is live while its trial's slowest world still wants it.
        target = np.minimum(best, entry_cap)
        active = cum < np.maximum.reduceat(target, trial_entries)[slot_trial]
        live_counts = np.add.reduceat(active, slot_bounds[:-1], dtype=np.intp)

        # Each task's RNG calls, in its own order: draw, then the coins.
        live, families, draws, counts, coins = [], [], [], [], []
        for i in running:
            count = int(live_counts[i])
            if not count:
                continue
            family = next(streams[i], None)
            if family is None:
                # Stream exhausted: the task's agents idle at the source.
                lo, hi = slot_bounds[i], slot_bounds[i + 1]
                cum[lo:hi] = np.inf
                active[lo:hi] = False
                continue
            live.append(i)
            families.append(family)
            draws.append(family.draw(rngs[i], count))
            counts.append(count)
            q = coin_qs[i]
            if q is not None:
                coins.append(
                    tuple(rngs[i].random(count) < q for _ in range(3))
                )
            elif lossy:
                coins.append((np.ones(count, dtype=bool),) * 3)
        running = live
        if not running:
            break

        if single_world:
            # World i is task i's only world, open while the task is live.
            grid_world = np.array(live)[None, :]
        else:
            # A world is open while some clock of its trials is below its
            # target; only open worlds of live tasks enter the hit grid.
            floor = np.minimum.reduceat(cum, trial_slots)
            open_worlds = np.flatnonzero(np.bincount(
                entry_world[target > floor[entry_trial]],
                minlength=world_bounds[-1],
            ))
            n_open = np.bincount(
                world_task[open_worlds], minlength=len(tasks)
            )[live]
            first = np.cumsum(n_open) - n_open
            grid_world = open_worlds[first + np.minimum(
                np.arange(n_open.max())[:, None], n_open - 1
            )]
        if len(live) > 1:
            grid_world = np.repeat(grid_world, counts, axis=1)
        tx = treasure_x[grid_world]
        ty = treasure_y[grid_world]

        slots = np.flatnonzero(active)
        ux, uy, budgets = _resolve_draws(families, draws)
        out_coin = sp_coin = ret_coin = None
        if lossy:
            out_coin, sp_coin, ret_coin = (
                np.concatenate(column) for column in zip(*coins)
            )
        start = cum[slots]
        travel = np.abs(ux) + np.abs(uy)

        # Earliest hit per (open world, draw), inf when the excursion misses.
        out_mask, out_off = _outbound_hit_offsets(ux, uy, tx, ty)
        if out_coin is not None:
            out_mask = out_mask & out_coin
        hit_offset = np.where(out_mask, out_off, np.inf)

        # Spiral hits are possible only where the budget reaches the
        # treasure's L-inf ring, so entries whose ring is entered after
        # the budget are pruned before evaluating the (more expensive)
        # exact closed form.  The tiny relative slack keeps the float
        # pre-check conservative.
        dx = tx - ux
        dy = ty - uy
        cand_w, cand_s = np.nonzero(
            ring_entry_time_array(dx, dy) * (1.0 - 1e-12) <= budgets
        )
        if cand_w.size:
            spiral_hit = _hit_times(dx[cand_w, cand_s], dy[cand_w, cand_s])
            sp_mask = spiral_hit <= budgets[cand_s]
            if sp_coin is not None:
                sp_mask = sp_mask & sp_coin[cand_s]
            hit_offset[cand_w, cand_s] = np.minimum(
                hit_offset[cand_w, cand_s],
                np.where(sp_mask, travel[cand_s] + spiral_hit, np.inf),
            )

        dx_end, dy_end = spiral_position_array(budgets)
        ex = ux + dx_end
        ey = uy + dy_end
        ret_mask, ret_off = _return_hit_offsets(ex, ey, tx, ty)
        if ret_coin is not None:
            ret_mask = ret_mask & ret_coin
        np.minimum(
            hit_offset,
            np.where(ret_mask, travel + budgets + ret_off, np.inf),
            out=hit_offset,
        )

        # Offsets are step counts; wall-clock conversion divides by speed.
        speed = slot_speed[slots] if slot_speed is not None else None
        w_sub, s_idx = np.nonzero(np.isfinite(hit_offset))
        if w_sub.size:
            hit_wall = hit_offset[w_sub, s_idx]
            if speed is not None:
                hit_wall = hit_wall / speed[s_idx]
            hit_wall = start[s_idx] + hit_wall
            found = slots[s_idx]
            world = np.broadcast_to(grid_world, hit_offset.shape)[w_sub, s_idx]
            if slot_crash is not None:
                # A hit after the agent's crash time never happens.
                alive = hit_wall <= slot_crash[found]
                hit_wall, found, world = (
                    hit_wall[alive], found[alive], world[alive]
                )
            np.minimum.at(
                best,
                trial_entries[slot_trial[found]] + world_local[world],
                hit_wall,
            )

        duration = travel + budgets + np.abs(ex) + np.abs(ey)
        if speed is not None:
            duration = duration / speed
        cum[slots] = start + duration

    best[best > entry_cap] = np.inf
    entry_bounds = trial_entries[trial_bounds[:-1]]
    return [
        np.ascontiguousarray(
            best[lo:lo + t.trials * w].reshape(t.trials, w).T
        )
        for lo, t, w in zip(entry_bounds, tasks, n_worlds)
    ]


def simulate_find_times_block(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    root_seed: SeedLike,
    *,
    distance: int,
    block: int,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    scenario: Optional[ScenarioSpec] = None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """One deterministic trial *block* of cell ``(distance, k)``.

    The incremental sweep runner's per-block entry point: block ``block``
    of a cell is seeded
    ``derive_seed(root_seed, BLOCK_STREAM, distance, k, block)`` and
    simulated with :func:`simulate_find_times`.  (The runner runs
    static-world blocks stacked, via :meth:`StackedTask.for_block`, with
    bitwise the same result.)  Because the seed
    depends only on ``(root_seed, distance, k, block)`` — never on how
    many blocks ran before, which process runs it, or which other cells
    exist — blocks are *appendable*: a cached 200-trial cell tops up to
    1000 by simulating blocks 3.. and concatenating, bitwise identical to
    having run all blocks in one session.
    """
    seed = _block_seed(root_seed, distance, k, block)
    return simulate_find_times(
        algorithm, world, k, trials, seed,
        horizon=horizon, max_phases=max_phases, scenario=scenario,
        world_spec=world_spec,
    )


def simulate_find_times_batch(
    algorithm: ExcursionAlgorithm,
    worlds: WorldsLike,
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    start_delays: Optional[np.ndarray] = None,
    scenario: Optional[ScenarioSpec] = None,
) -> np.ndarray:
    """First find times for many worlds at once, sharing excursion draws.

    The batched twin of :func:`simulate_find_times`: ``worlds`` is a
    sequence of treasure positions (``World`` instances, ``(tx, ty)``
    pairs or an ``(n, 2)`` integer array) and the result has shape
    ``(len(worlds), trials)`` — row ``w`` holds the per-trial first find
    times for world ``w``.  It is the one-task case of
    :func:`simulate_find_times_stacked`.

    Each phase's ``trials x k`` excursion draws are sampled **once** and
    resolved against every world by broadcasting to a
    ``(worlds, draws)`` hit grid, so the per-draw sampling cost is paid once
    instead of once per world.  Per world, every row is distributed exactly
    as a :func:`simulate_find_times` trial (the excursion draws are i.i.d.,
    so conditioning on which slots are still running never biases them);
    with a single world the two functions are *bitwise identical* for the
    same seed.  Across worlds the shared draws act as common random numbers:
    per-world means are unbiased, and cross-world comparisons (the point of
    a D-sweep) see reduced variance because the noise is paired.

    An agent keeps drawing excursions while *any* world still needs it
    (different worlds find at different times); per-world ``best`` clocks
    record each world's first find.

    ``horizon``, ``max_phases``, ``start_delays`` and ``scenario`` behave
    exactly as in :func:`simulate_find_times`; the horizon is shared by all
    worlds.  Scenario perturbations are per *slot* (trial, agent) or per
    draw — crash times, speeds, delays and detection coins are all
    world-independent — so the shared-draw pairing across worlds is
    preserved and the single-world bitwise-twin contract holds under any
    scenario.
    """
    return simulate_find_times_stacked(
        [
            StackedTask(
                algorithm, worlds, k, trials, seed, horizon=horizon,
                start_delays=start_delays, scenario=scenario,
            )
        ],
        max_phases=max_phases,
    )[0]


def excursion_find_time(
    algorithm: ExcursionAlgorithm,
    world: World,
    rng: np.random.Generator,
    *,
    horizon: float = math.inf,
    max_phases: int = 1_000_000,
) -> float:
    """Exact find time of a *single* agent, replaying the step program's draws.

    Consumes ``rng`` exactly as
    :meth:`repro.algorithms.base.ExcursionAlgorithm.step_program` does (one
    ``sample_one`` per excursion), so for any seed this returns precisely
    the step at which the step-level engine would see the agent stand on
    the treasure.  Used by cross-engine validation and by instrumentation
    that needs per-agent determinism.
    """
    tx, ty = world.treasure
    elapsed = 0.0
    for phase_index, family in enumerate(algorithm.families()):
        if phase_index >= max_phases or elapsed >= horizon:
            return math.inf
        (ux, uy), budget = family.sample_one(rng)
        travel = abs(ux) + abs(uy)

        candidates = []
        # Outbound leg.
        if ty == 0 and tx * np.sign(ux) >= 1 and abs(tx) <= abs(ux):
            candidates.append(abs(tx))
        if tx == ux and ty * np.sign(uy) >= 1 and abs(ty) <= abs(uy):
            candidates.append(abs(ux) + abs(ty))
        # Spiral.
        hit = spiral_hit_time(tx - ux, ty - uy)
        if hit <= budget:
            candidates.append(travel + hit)
        # Return leg.
        dxe, dye = spiral_position(budget)
        ex, ey = ux + dxe, uy + dye
        if ty == ey and tx * np.sign(ex) >= 0 and abs(tx) <= abs(ex):
            candidates.append(travel + budget + abs(ex) - abs(tx))
        if tx == 0 and ty * np.sign(ey) >= 0 and abs(ty) <= abs(ey):
            candidates.append(travel + budget + abs(ex) + abs(ey) - abs(ty))

        if candidates:
            return elapsed + min(candidates)
        elapsed += travel + budget + abs(ex) + abs(ey)
    return math.inf


def expected_find_time(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    seed: SeedLike = None,
    **kwargs,
) -> Tuple[float, float]:
    """Convenience wrapper: mean find time and its standard error.

    Returns ``(mean, stderr)`` over ``trials`` executions.  Truncated
    (non-finding) runs propagate ``inf`` into the mean, which is the honest
    answer for one-shot algorithms.

    ``stderr`` sentinels: ``inf`` when any run failed to find (the spread
    is unbounded), and ``nan`` for a single finite trial — one sample
    carries no spread information, and reporting ``0.0`` would silently
    overstate confidence.
    """
    times = simulate_find_times(algorithm, world, k, trials, seed, **kwargs)
    return find_time_statistics(times)


def find_time_statistics(times: np.ndarray) -> Tuple[float, float]:
    """``(mean, stderr)`` of a find-time sample, with the shared sentinels.

    The single source of the sentinel rules used by
    :func:`expected_find_time` and the sweep subsystem's cell statistics:
    ``stderr`` is ``inf`` when any trial failed to find and ``nan`` for a
    single finite trial.
    """
    times = np.asarray(times, dtype=np.float64)
    mean = float(np.mean(times))
    if not np.all(np.isfinite(times)):
        stderr = math.inf
    elif times.size == 1:
        stderr = math.nan
    else:
        stderr = float(np.std(times, ddof=1) / math.sqrt(times.size))
    return mean, stderr
