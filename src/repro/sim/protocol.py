"""One ``Engine`` protocol over the three simulation engines.

Every engine in the package answers the same question — "first times at
which any of ``k`` agents finds a target, over ``trials`` executions" —
but historically through three differently-shaped entry points:
:func:`repro.sim.events.simulate_find_times` (excursion batch),
:meth:`repro.sim.walkers.Walker.find_times` (walker batch, also the shape
of the adaptive searchers in :mod:`repro.algorithms.belief`), and
:func:`repro.sim.engine.run_search` (step-level reference, one execution
per call).  This module pins the common contract as a
:class:`typing.Protocol` and provides one thin adapter per engine, so
cross-engine property tests, the sweep runner, and future callers can
treat "an engine" as a value.

The adapters add nothing on top of the underlying entry points, so
going through the protocol is bitwise identical to calling the engine
directly, for a ``None``/all-default ``world_spec`` too (pinned by
``tests/test_worldspec.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..scenarios import ScenarioSpec
from .rng import SeedLike, derive_seed
from .world import WorldSpec

__all__ = [
    "Engine",
    "ExcursionBatchEngine",
    "StepEngine",
    "WalkerBatchEngine",
    "engine_for",
]


@runtime_checkable
class Engine(Protocol):
    """The common find-times contract implemented by all three engines.

    ``find_times`` returns a float array of shape ``(trials,)`` — the
    first find time per execution, ``inf`` when truncated — for any
    supported ``(strategy, world, world_spec, scenario)`` combination.
    ``world`` is a :class:`repro.sim.world.World` or a ``(tx, ty)`` pair
    for static single-target runs and may be an ``(n_targets, 2)``
    initial-position array when a non-default ``world_spec`` is given.
    """

    name: str

    def find_times(
        self,
        strategy,
        world,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: Optional[float] = None,
        scenario: Optional[ScenarioSpec] = None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        ...


@dataclass(frozen=True)
class ExcursionBatchEngine:
    """Adapter over :func:`repro.sim.events.simulate_find_times`."""

    name: str = "excursion-batch"

    def find_times(
        self,
        strategy,
        world,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: Optional[float] = None,
        scenario: Optional[ScenarioSpec] = None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        from .events import simulate_find_times

        return simulate_find_times(
            strategy, world, k, trials, seed,
            horizon=horizon, scenario=scenario, world_spec=world_spec,
        )


@dataclass(frozen=True)
class WalkerBatchEngine:
    """Adapter over the strategy's own batched ``find_times``.

    Covers :class:`repro.sim.walkers.Walker` subclasses and any other
    strategy that simulates itself row-wise (the adaptive searchers of
    :mod:`repro.algorithms.belief` share the signature).
    """

    name: str = "walker-batch"

    def find_times(
        self,
        strategy,
        world,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: Optional[float] = None,
        scenario: Optional[ScenarioSpec] = None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        return strategy.find_times(
            world, k, trials, seed,
            horizon=horizon, scenario=scenario, world_spec=world_spec,
        )


@dataclass(frozen=True)
class StepEngine:
    """Adapter over :func:`repro.sim.engine.run_search`, one trial per run.

    Trial ``i`` runs with seed ``derive_seed(seed, i)`` (agents then
    derive their legacy per-agent streams from it), so any single trial
    can be replayed in isolation.  The step engine is the reference:
    slow, per-step exact, and the only engine that evaluates dynamic
    target motion at step granularity.
    """

    name: str = "step"

    def find_times(
        self,
        strategy,
        world,
        k: int,
        trials: int,
        seed: SeedLike = None,
        *,
        horizon: Optional[float] = None,
        scenario: Optional[ScenarioSpec] = None,
        world_spec: Optional[WorldSpec] = None,
    ) -> np.ndarray:
        from .engine import run_search

        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if horizon is None:
            raise ValueError("the step engine adapter needs a horizon")
        times = np.empty(trials, dtype=np.float64)
        for i in range(trials):
            run = run_search(
                strategy, world, k, derive_seed(seed, i),
                horizon=int(horizon), scenario=scenario,
                world_spec=world_spec,
            )
            times[i] = run.result.time
        return times


def engine_for(strategy) -> Engine:
    """The natural engine for a strategy, as the sweep runner dispatches it.

    Excursion algorithms route to the excursion batch engine, strategies
    that carry their own batched ``find_times`` (walkers, adaptive
    searchers) to the walker-batch adapter, and plain step programs to the
    step engine.
    """
    from ..algorithms.base import ExcursionAlgorithm, SearchAlgorithm

    if isinstance(strategy, ExcursionAlgorithm):
        return ExcursionBatchEngine()
    if hasattr(strategy, "find_times"):
        return WalkerBatchEngine()
    if isinstance(strategy, SearchAlgorithm):
        return StepEngine()
    raise TypeError(
        f"no engine simulates {type(strategy).__name__} instances"
    )
