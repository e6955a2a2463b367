"""Exact step-level simulation: agents traverse one grid edge per time unit.

This is the reference engine — a literal implementation of the paper's
model (Section 2): ``k`` identical probabilistic agents start at the source
at time 0, each edge traversal costs one time unit, and the search ends
when an agent stands on the treasure.  It executes any
:class:`repro.algorithms.base.SearchAlgorithm` step program, including the
non-excursion baselines (random walks, Lévy flights).

It is used for (1) validating the vectorised engine, (2) running baselines,
and (3) the lower-bound instrumentation of Theorems 4.1/4.2, which needs
the set of distinct nodes each agent visits by a time cutoff — something
only a step-level execution can observe.

Because agents do not interact, they are simulated one at a time; when only
the first find time is needed, later agents inherit the best time found so
far as their horizon, which prunes most of the work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..algorithms.base import Point, SearchAlgorithm
from ..scenarios import (
    SCENARIO_STREAM,
    ScenarioSpec,
    resolve_scenario,
    steps_within,
)
from .rng import SeedLike, derive_rng
from .world import (
    MOTION_DIR_X,
    MOTION_DIR_Y,
    TARGET_STREAM,
    Result,
    World,
    WorldSpec,
    composed_detection,
    initial_targets,
    resolve_world,
)

__all__ = ["AgentTrace", "StepRun", "run_agent", "run_search", "first_visit_times"]

#: Largest horizon for which a dynamic-motion target trajectory is
#: precomputed (the step engine materialises positions per time unit).
_MAX_DYNAMIC_HORIZON = 1 << 22


@dataclass
class AgentTrace:
    """What one agent did during a step-level run.

    ``find_time`` is the first time the agent stood on the treasure (``None``
    if it never did within its horizon); ``visited`` maps each distinct cell
    to its first-visit time when recording was requested.
    """

    agent: int
    find_time: Optional[int]
    steps: int
    visited: Optional[Dict[Point, int]] = None


@dataclass
class StepRun:
    """Outcome of a step-level multi-agent run."""

    result: Result
    traces: List[AgentTrace]

    @property
    def found(self) -> bool:
        return self.result.found


def run_agent(
    algorithm: SearchAlgorithm,
    world: World,
    rng: np.random.Generator,
    horizon: int,
    *,
    agent: int = 0,
    record_visits: bool = False,
    stop_at_find: bool = True,
    detection_prob: float = 1.0,
    detect_rng: Optional[np.random.Generator] = None,
) -> AgentTrace:
    """Run one agent's step program for up to ``horizon`` steps.

    With ``stop_at_find`` the program halts at the first treasure visit;
    otherwise it runs the full horizon (used by coverage instrumentation,
    where "by time 2T" semantics require every agent to walk the whole
    window).

    With ``detection_prob < 1`` each treasure visit is *noticed* only with
    that probability (one coin per visit from ``detect_rng``, a stream
    separate from the trajectory's ``rng`` so the walk itself is
    unperturbed); unnoticed visits leave the agent searching.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if detection_prob < 1.0 and detect_rng is None:
        raise ValueError("detection_prob < 1 requires a detect_rng stream")
    treasure = world.treasure
    visited: Optional[Dict[Point, int]] = None
    if record_visits:
        visited = {(0, 0): 0}
    find_time: Optional[int] = None
    steps = 0
    program = algorithm.step_program(rng)
    for t, position in enumerate(program, start=1):
        if t > horizon:
            steps = t - 1
            break
        steps = t
        if visited is not None and position not in visited:
            visited[position] = t
        if find_time is None and position == treasure:
            if detection_prob >= 1.0 or detect_rng.random() < detection_prob:
                find_time = t
                if stop_at_find:
                    break
    return AgentTrace(agent=agent, find_time=find_time, steps=steps, visited=visited)


def _step_trajectory(
    spec: WorldSpec,
    targets0: np.ndarray,
    horizon: int,
    motion_rng: np.random.Generator,
) -> np.ndarray:
    """Target positions at every integer time, shape ``(T + 1, n, 2)``.

    The step engine is the reference, so it evaluates motion *per step*
    rather than at excursion/chunk granularity: ``drift`` is the closed
    form at each time, ``walk`` flips one lazy-step coin plus one
    direction per time unit.  Static motion returns a single-row view
    (indexed with a clamp, so no ``(T, n, 2)`` array is materialised).
    """
    n = spec.n_targets
    if spec.motion == "static":
        return targets0[None, :, :]
    if horizon > _MAX_DYNAMIC_HORIZON:
        raise ValueError(
            "dynamic-motion step runs precompute the target trajectory; "
            f"horizon {horizon} exceeds the {_MAX_DYNAMIC_HORIZON} cap — "
            "use the vectorised engines for long dynamic runs"
        )
    if spec.motion == "drift":
        dirs = motion_rng.integers(0, 4, size=n)
        dvec = np.stack([MOTION_DIR_X[dirs], MOTION_DIR_Y[dirs]], axis=-1)
        steps = np.floor(
            spec.motion_rate * np.arange(horizon + 1, dtype=np.float64)
        ).astype(np.int64)
        return targets0[None, :, :] + steps[:, None, None] * dvec[None, :, :]
    moved = motion_rng.random((horizon, n)) < spec.motion_rate
    dirs = motion_rng.integers(0, 4, size=(horizon, n))
    dvec = np.stack([MOTION_DIR_X[dirs], MOTION_DIR_Y[dirs]], axis=-1)
    traj = np.empty((horizon + 1, n, 2), dtype=np.int64)
    traj[0] = targets0
    traj[1:] = targets0[None, :, :] + np.cumsum(
        np.where(moved[:, :, None], dvec, 0), axis=0
    )
    return traj


def _run_agent_dynamic(
    algorithm: SearchAlgorithm,
    traj: np.ndarray,
    arrivals: np.ndarray,
    rng: np.random.Generator,
    horizon: int,
    *,
    agent: int = 0,
    detection_prob: float = 1.0,
    detect_rng: Optional[np.random.Generator] = None,
) -> AgentTrace:
    """Dynamic-world twin of :func:`run_agent`: per-step target lookup.

    ``traj`` holds every target's position at each integer time (a
    single-row view for static motion, index-clamped); a visit counts only
    at steps at or after the target's arrival, and each target crossing
    flips its own detection coin.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if detection_prob < 1.0 and detect_rng is None:
        raise ValueError("detection_prob < 1 requires a detect_rng stream")
    n = traj.shape[1]
    last = traj.shape[0] - 1
    find_time: Optional[int] = None
    steps = 0
    program = algorithm.step_program(rng)
    for t, position in enumerate(program, start=1):
        if t > horizon:
            steps = t - 1
            break
        steps = t
        row = traj[t if t <= last else last]
        hit = False
        for j in range(n):
            if (
                position[0] == row[j, 0]
                and position[1] == row[j, 1]
                and t >= arrivals[j]
            ):
                if (
                    detection_prob >= 1.0
                    or detect_rng.random() < detection_prob
                ):
                    hit = True
                    break
        if hit:
            find_time = t
            break
    return AgentTrace(agent=agent, find_time=find_time, steps=steps)


def run_search(
    algorithm: SearchAlgorithm,
    world: World,
    k: int,
    seed: SeedLike = None,
    *,
    horizon: int = 10**7,
    record_visits: bool = False,
    prune: bool = True,
    scenario: Optional[ScenarioSpec] = None,
    start_delays=None,
    world_spec: Optional[WorldSpec] = None,
) -> StepRun:
    """Simulate ``k`` agents at step level; the search ends at the first find.

    Agent ``i`` draws its randomness from ``derive_rng(seed, i)``, so any
    individual agent can be replayed in isolation (the cross-engine tests
    rely on this).  With ``prune`` (default), each successive agent only
    needs to be simulated up to the best find time seen so far.
    Pruning is disabled automatically when ``record_visits`` is set, since
    coverage instrumentation needs full-horizon walks.

    ``scenario`` (:class:`repro.scenarios.ScenarioSpec`) and
    ``start_delays`` (length ``k``) perturb the agents exactly as in the
    vectorised engines: ``horizon`` and ``Result.time`` become wall-clock
    (agent ``i``'s step ``t`` happens at ``delay_i + t / speed_i``), crash
    lifetimes cap each agent's walk, and lossy detection flips one coin
    per treasure visit.  Per-agent scenario randomness comes from
    ``derive_rng(seed, i, SCENARIO_STREAM)``, so trajectory streams are
    untouched and the default scenario is exactly the legacy behaviour.
    ``AgentTrace.find_time`` stays the *step index* of the find; the
    wall-clock conversion lives in ``Result.time``.

    ``world_spec`` (:class:`repro.sim.world.WorldSpec`) declares the world
    process.  Every world shares the loop below (horizons, crash
    lifetimes, detection coins, pruning, the ``Result``); only the
    per-agent walk differs.  The paper's static single-target world (a
    ``None``/all-default spec; ``world`` a :class:`World` or a ``(tx, ty)``
    pair) walks :func:`run_agent`, which compares one cell per step.
    Other worlds precompute every target's per-step position from
    ``derive_rng(seed, TARGET_STREAM)`` (``world`` may then also be an
    ``(n_targets, 2)`` array) and walk the per-step-exact
    reference :func:`_run_agent_dynamic`; they reject ``record_visits``,
    explicit delays, and speed/stagger scenarios, which would decouple a
    step index from the wall clock.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    wspec = resolve_world(world_spec)
    scn = resolve_scenario(scenario)
    if wspec is None:
        # Plain ints keep run_agent's per-step tuple compare cheap.
        (tx, ty), = initial_targets(world, WorldSpec()).tolist()
        walk = functools.partial(
            run_agent, algorithm, World(treasure=(tx, ty)),
            record_visits=record_visits, stop_at_find=not record_visits,
        )
    else:
        if record_visits:
            raise ValueError(
                "record_visits is not supported for dynamic worlds"
            )
        if start_delays is not None:
            raise ValueError(
                "start_delays are not supported for dynamic worlds in "
                "the step engine"
            )
        if scn is not None and (scn.speed_spread > 0 or scn.start_stagger > 0):
            raise ValueError(
                "the step engine runs dynamic worlds only with unit speeds "
                "and simultaneous starts; use the vectorised engines for "
                "speed/stagger scenarios"
            )
        horizon = int(horizon)
        targets0 = initial_targets(world, wspec)
        motion_rng = derive_rng(seed, TARGET_STREAM)
        traj = _step_trajectory(wspec, targets0, horizon, motion_rng)
        if wspec.arrival == "geometric":
            arrivals = motion_rng.geometric(
                wspec.arrival_hazard, size=wspec.n_targets
            ).astype(np.float64)
        else:
            arrivals = np.zeros(wspec.n_targets, dtype=np.float64)
        walk = functools.partial(_run_agent_dynamic, algorithm, traj, arrivals)

    delays = np.zeros(k, dtype=np.float64)
    if start_delays is not None:
        given = np.asarray(start_delays, dtype=np.float64)
        if given.shape != (k,):
            raise ValueError(
                f"start_delays must have shape ({k},), got {given.shape}"
            )
        if np.any(given < 0):
            raise ValueError("start delays must be non-negative")
        delays = delays + given
    speeds = np.ones(k, dtype=np.float64)
    if scn is not None:
        delays = delays + scn.delays(k)
        speeds = scn.speeds(k)
    perturbed = scn is not None or start_delays is not None
    crash = scn is not None and scn.crash_hazard > 0
    detection = composed_detection(
        wspec, scn.detection_prob if scn is not None else None
    )

    traces: List[AgentTrace] = []
    best_wall: Optional[float] = None
    finder: Optional[int] = None
    effective_prune = prune and not record_visits
    for i in range(k):
        speed = float(speeds[i])
        delay = float(delays[i])
        if perturbed:
            # Steps inside the wall-clock horizon: delay + t/speed <= horizon.
            agent_horizon = int(steps_within(horizon - delay, speed))
        else:
            agent_horizon = horizon
        srng = None
        if crash or detection is not None:
            srng = derive_rng(seed, i, SCENARIO_STREAM)
        if crash:
            lifetime = float(srng.geometric(scn.crash_hazard))
            agent_horizon = min(
                agent_horizon, int(steps_within(lifetime, speed))
            )
        if effective_prune and best_wall is not None:
            # Step t can only improve the record if delay + t/speed < best.
            if perturbed:
                cap = int(math.ceil((best_wall - delay) * speed)) - 1
            else:
                cap = int(best_wall) - 1
            agent_horizon = min(agent_horizon, max(cap, 0))
        trace = walk(
            derive_rng(seed, i),
            agent_horizon,
            agent=i,
            detection_prob=1.0 if detection is None else detection,
            detect_rng=srng if detection is not None else None,
        )
        traces.append(trace)
        if trace.find_time is not None:
            wall = delay + trace.find_time / speed if perturbed else float(
                trace.find_time
            )
            if best_wall is None or wall < best_wall:
                best_wall = wall
                finder = i
    total_steps = sum(trace.steps for trace in traces)
    if best_wall is None:
        result = Result(
            time=float("inf"), found=False, finder=None, steps_simulated=total_steps
        )
    else:
        result = Result(
            time=float(best_wall), found=True, finder=finder,
            steps_simulated=total_steps,
        )
    return StepRun(result=result, traces=traces)


def first_visit_times(
    algorithm: SearchAlgorithm,
    world: World,
    k: int,
    seed: SeedLike,
    horizon: int,
) -> List[Dict[Point, int]]:
    """Per-agent first-visit maps over a fixed time window.

    Convenience wrapper used by the Theorem 4.1/4.2 instrumentation: every
    agent walks exactly ``horizon`` steps (no early stop), and the map of
    distinct cells to first-visit times is returned per agent.
    """
    run = run_search(
        algorithm,
        world,
        k,
        seed,
        horizon=horizon,
        record_visits=True,
        prune=False,
    )
    return [trace.visited or {} for trace in run.traces]
