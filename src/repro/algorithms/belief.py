"""Adaptive grid-belief searcher for dynamic and multi-target worlds.

The paper's algorithms (``A_k``, ``A_uniform``, the harmonic family) are
*oblivious*: the excursion schedule is fixed in advance and never reacts
to what the agent observes.  That obliviousness is exactly what the
lower bound of Section 4 exploits — but it also means the algorithms
ignore the one signal a non-communicating searcher does have for free:
*negative* observations ("I swept this region and found nothing").  On
static worlds the signal is worthless in expectation (the paper's setting
is adversarial in the target position), yet on the generalised worlds of
:mod:`repro.sim.world` — moving targets, late arrivals, multiple
targets — it is not, and experiment E12 quantifies the gap.

:class:`GridBeliefSearch` is the deliberately simple adaptive baseline:

* the plane is tiled by ``(2h + 1) × (2h + 1)`` boxes whose centres form
  a coarse occupancy grid out to an L1 *prior radius* ``R`` (derived
  from the horizon when not given);
* each agent keeps a **private** belief weight per cell — there is no
  communication, exactly as in the paper's model; agents differ only
  through their tie-breaking randomness, which is what decorrelates
  them;
* an excursion greedily picks the cell maximising ``belief / cost``
  (cost = round trip to the centre plus the in-box spiral sweep),
  trembling uniformly among near-maximal cells so ``k`` agents spread
  out instead of marching in lockstep;
* sweeping a box and finding nothing multiplies the cell's belief by
  ``1 - q`` (``q`` = composed detection probability; a perfect sweep
  zeroes it), and on worlds whose truth drifts — target motion or
  geometric arrival — beliefs leak back toward the uniform prior at a
  rate matched to the world's churn, so old negatives expire.

Randomness contract: tie-breaking and detection coins for agent ``a`` of
trial ``t`` come from ``derive_rng(seed, BELIEF_STREAM, t, a)`` and
target motion/arrival for trial ``t`` from
``derive_rng(seed, TARGET_STREAM, t)``.  Belief draws get their own
registered stream tag precisely because the *number* of draws depends on
the world (an adaptive searcher consumes randomness data-dependently);
interleaving them with target-motion draws would unpair the target
trajectory across otherwise-identical runs.  See DESIGN.md §10.

Detection is modelled for the spiral sweep only: travel legs to and from
the cell centre do not detect.  This is a conservative, simplifying
choice (it loses a few incidental crossings an excursion algorithm would
get) and keeps the cost/coverage bookkeeping exact: boxes tile the plane
disjointly, so one sweep observes each cell of its box exactly once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..checks.registry import register_stream
from ..core.spiral import spiral_hit_time
from ..scenarios import ScenarioSpec, resolve_scenario
from ..sim.rng import SeedLike, derive_rng
from ..sim.world import (
    TARGET_STREAM,
    TargetTrack,
    World,
    WorldSpec,
    composed_detection,
    initial_targets,
    resolve_world,
)

__all__ = [
    "AdaptiveSearcher",
    "BELIEF_STREAM",
    "GridBeliefSearch",
]

#: Stream tag for adaptive-searcher decision randomness (tie-breaking,
#: detection coins), keyed ``derive_rng(seed, BELIEF_STREAM, trial,
#: agent)``.  Adaptive draws are data-dependent in *count*, so they must
#: never share a stream with target motion (``TARGET_STREAM``) or any
#: fixed-schedule engine stream.
BELIEF_STREAM = register_stream("BELIEF_STREAM", 0xBE11EF)

#: Belief mass below which a cell is considered exhausted; when every
#: cell of every agent is exhausted on a non-leaking world the trial can
#: stop early (nothing will ever be re-examined).
_EXHAUSTED = 1e-12

#: Cap on the prior radius in units of the cell side, bounding the grid
#: to a few tens of thousands of cells however large the horizon is.
_MAX_RADIUS_CELLS = 64


class AdaptiveSearcher(ABC):
    """A strategy that simulates itself batch-wise and adapts to feedback.

    Shares the :meth:`repro.sim.walkers.Walker.find_times` signature (and
    therefore the :class:`repro.sim.protocol.WalkerBatchEngine` adapter)
    but is deliberately *not* a :class:`~repro.sim.walkers.Walker`:
    walkers are memoryless step processes with a step-program twin,
    whereas adaptive searchers carry state across excursions and have no
    step-level equivalent.  ``uses_k`` mirrors the walkers: each agent
    runs the same program regardless of ``k``.
    """

    uses_k = False
    name = "adaptive"

    @abstractmethod
    def find_times(
        self,
        world: World,
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
        """First times any of ``k`` agents finds a target; ``Walker`` rules.

        Returns a ``(trials,)`` float array with ``inf`` for truncated
        trials; a hit at exactly ``horizon`` is kept.  ``chunk`` is
        accepted for signature compatibility and ignored (adaptive
        searchers simulate trial-by-trial).
        """

    def describe(self) -> str:
        return self.name


class GridBeliefSearch(AdaptiveSearcher):
    """Greedy-excursion searcher over a coarse private occupancy grid.

    ``cell`` is the half-width ``h`` of the ``(2h + 1)``-sided boxes,
    ``radius`` the L1 prior radius (``None`` derives
    ``max(2 · side, isqrt(horizon) // 2)`` capped at ``64 · side``), and
    ``tremble`` the greedy tolerance: an excursion picks uniformly among
    cells scoring at least ``(1 - tremble) ·`` the maximum
    ``belief / cost``.
    """

    name = "grid-belief"

    def __init__(
        self,
        cell: int = 4,
        radius: Optional[int] = None,
        tremble: float = 0.25,
    ) -> None:
        self.cell = int(cell)
        if self.cell < 1:
            raise ValueError(f"cell must be >= 1, got {cell}")
        self.radius = None if radius is None else int(radius)
        if self.radius is not None and self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self.tremble = float(tremble)
        if not 0.0 <= self.tremble < 1.0:
            raise ValueError(f"tremble must be in [0, 1), got {tremble}")

    def describe(self) -> str:
        radius = "auto" if self.radius is None else str(self.radius)
        return (
            f"GridBelief(h={self.cell}, R={radius}, "
            f"tremble={self.tremble:g})"
        )

    def _resolved_radius(self, horizon: float) -> int:
        side = 2 * self.cell + 1
        if self.radius is not None:
            return self.radius
        derived = math.isqrt(int(horizon)) // 2
        return max(2 * side, min(derived, _MAX_RADIUS_CELLS * side))

    def _grid(self, horizon: float):
        """Cell centres ``(n_cells, 2)`` and per-cell excursion costs."""
        side = 2 * self.cell + 1
        radius = self._resolved_radius(horizon)
        m = radius // side
        span = np.arange(-m, m + 1, dtype=np.int64) * side
        cx, cy = np.meshgrid(span, span, indexing="ij")
        centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
        keep = np.abs(centers).sum(axis=1) <= radius
        centers = centers[keep]
        travel = np.abs(centers).sum(axis=1).astype(np.float64)
        sweep = float(side * side - 1)
        cost = 2.0 * travel + sweep
        return centers, travel, cost, sweep

    def find_times(
        self,
        world: World,
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
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if horizon is None or not np.isfinite(horizon) or horizon <= 0:
            raise ValueError(
                f"grid-belief search needs a finite positive horizon, "
                f"got {horizon}"
            )
        horizon = float(horizon)
        scn = resolve_scenario(scenario)
        if scn is not None and scn.crash_hazard > 0.0:
            raise ValueError(
                "grid-belief search does not support crash scenarios: "
                "belief state has no crash-time closed form"
            )
        wspec = resolve_world(world_spec)

        h = self.cell
        centers, travel, cost, sweep = self._grid(horizon)
        n_cells = len(centers)
        uniform = 1.0 / n_cells

        q = composed_detection(
            wspec, scn.detection_prob if scn is not None else None
        )

        # Belief leak rate on worlds whose truth churns: target motion
        # crosses a cell boundary roughly every side/rate time units, and
        # geometric arrival flips absent cells at the hazard rate.
        leak = 0.0
        if wspec is not None:
            if wspec.motion != "static":
                leak += wspec.motion_rate / (2 * h + 1)
            if wspec.arrival == "geometric":
                leak += wspec.arrival_hazard
        leak = min(leak, 1.0)

        targets0 = initial_targets(world, wspec or WorldSpec())
        n_targets = len(targets0)

        speeds = scn.speeds(k) if scn is not None else np.ones(k)
        base_delays = (
            scn.delays(k) if scn is not None else np.zeros(k, dtype=np.float64)
        )
        extra = None
        if start_delays is not None:
            extra = np.asarray(start_delays, dtype=np.float64)
            if extra.shape == (k,):
                extra = np.broadcast_to(extra, (trials, k))
            elif extra.shape != (trials, k):
                raise ValueError(
                    f"start_delays must have shape ({k},) or "
                    f"({trials}, {k}), got {extra.shape}"
                )

        times = np.full(trials, np.inf, dtype=np.float64)
        for trial in range(trials):
            track = None
            arrivals = np.zeros(n_targets, dtype=np.float64)
            if wspec is not None and (
                not wspec.is_static or wspec.arrival == "geometric"
            ):
                track = TargetTrack(
                    wspec, targets0, 1, derive_rng(seed, TARGET_STREAM, trial)
                )
                arrivals = track.arrival[0].astype(np.float64)
            rngs = [
                derive_rng(seed, BELIEF_STREAM, trial, agent)
                for agent in range(k)
            ]
            beliefs = np.full((k, n_cells), uniform, dtype=np.float64)
            clocks = base_delays.copy()
            if extra is not None:
                clocks = clocks + extra[trial]
            best = np.inf

            while True:
                i = int(np.argmin(clocks))
                t = clocks[i]
                if t >= min(best, horizon) or not np.isfinite(t):
                    break
                b = beliefs[i]
                if b.max() <= _EXHAUSTED:
                    if leak > 0.0:
                        b[:] = uniform
                    else:
                        clocks[i] = np.inf
                        continue
                score = b / cost
                cand = np.nonzero(
                    score >= (1.0 - self.tremble) * score.max()
                )[0]
                c = int(cand[rngs[i].integers(cand.size)])
                cx, cy = int(centers[c, 0]), int(centers[c, 1])
                duration = cost[c] / speeds[i]

                if track is not None:
                    pos = track.positions_at(t)[0]
                else:
                    pos = targets0
                hit = np.inf
                for j in range(n_targets):
                    dx = int(pos[j, 0]) - cx
                    dy = int(pos[j, 1]) - cy
                    if abs(dx) > h or abs(dy) > h:
                        continue
                    wall = t + (travel[c] + spiral_hit_time(dx, dy)) / speeds[i]
                    if wall < arrivals[j] or wall > horizon:
                        continue
                    if q is not None and not rngs[i].random() < q:
                        continue
                    hit = min(hit, wall)

                if np.isfinite(hit):
                    best = min(best, hit)
                    clocks[i] = np.inf
                    continue

                if q is None:
                    b[c] = 0.0
                else:
                    b[c] *= 1.0 - q
                if leak > 0.0:
                    mix = 1.0 - (1.0 - leak) ** duration
                    b *= 1.0 - mix
                    b += mix * uniform
                clocks[i] = t + duration

            if best <= horizon:
                times[trial] = best
        return times
