"""The search world: source node, target placement, world dynamics, results.

The paper's setting (Section 2): all ``k`` agents start at a source node
``s`` of ``Z^2``; an adversary places the treasure at a target node ``tau``
at distance ``D = d(s, tau)``, unknown to the agents.  Everything is
translation invariant, so the source is pinned at the origin and a world is
fully described by the treasure offset.

Placement helpers cover the three placements used across the experiments:

* ``axis`` — ``(D, 0)``: a generic placement;
* ``corner`` — the cell of distance ``D`` that the canonical spiral visits
  *last* (``(0, -D)``), the worst case for spiral-based local search;
* ``offaxis`` — ``(-1, -(D-1))``: spiral-late *and* off both coordinate
  axes.  Excursion algorithms walk deterministic x-first Manhattan legs,
  so the two axes are "commuting highways" that get incidentally covered;
  an adversary avoids them.  This is the default adversarial stand-in for
  the experiments;
* ``random`` — uniform on the ring of radius ``D``.

True adversarial (argmin visit-probability) placement is provided by
:mod:`repro.analysis.lower_bounds`, which needs executions to estimate the
visit-probability map.

Beyond the paper's single static treasure, :class:`WorldSpec` declares a
*world process* — how many targets exist, how they move, when they appear,
and how reliably a crossing detects them (see DESIGN.md §10):

* **Motion** (``motion``, ``motion_rate``): ``static`` is the paper's
  model.  ``drift`` gives each target one axis direction (drawn once from
  the target stream) and moves it ``floor(rate * t)`` cells along it by
  wall-clock time ``t`` — closed form at any query time.  ``walk`` is a
  lazy random walk: over a window of ``dt`` integer time units the target
  takes ``Binomial(dt, rate)`` unit steps, each uniform over the four axis
  directions — advanced in closed form per window (one binomial plus one
  multinomial draw), never per step.
* **Appearance** (``arrival``, ``arrival_hazard``): ``present`` means the
  target exists from ``t = 0``.  ``geometric`` draws a per-target arrival
  time ``A ~ Geometric(hazard)`` (support ``1, 2, ...``); crossings at
  wall-clock time strictly before ``A`` do not count.  The target's
  trajectory is defined from ``t = 0`` regardless — arrival only gates
  detection.
* **Multi-target** (``n_targets``): target 0 takes the requested placement;
  extra targets are placed uniformly on the same ring, each from its own
  derived placement stream.  A run's find time is the first valid hit on
  *any* target.
* **Detection** (``detection_prob``): per-crossing notice probability,
  multiplying the scenario-level lossy-detection knob.

Determinism contract: all motion, arrival, and extra-placement randomness
is drawn from streams derived via the registered ``TARGET_STREAM`` /
``PLACEMENT_DRAW_STREAM`` tags, never from the searcher's own stream — so
an algorithm's excursion draws stay paired across world settings.  The
static single-target default (canonicalised to ``None`` by
:func:`resolve_world`) draws from none of them: the excursion kernel and
the random walk keep a separate static path for it, and the step engine
and the segment walkers run it as a one-target, never-moving world.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..checks.registry import register_stream
from ..core.geometry import l1_norm, sample_uniform_ring
from .rng import SeedLike, derive_rng, make_rng

__all__ = [
    "PLACEMENT_DRAW_STREAM",
    "Result",
    "TARGET_STREAM",
    "TargetTrack",
    "World",
    "WorldSpec",
    "composed_detection",
    "initial_targets",
    "place_targets",
    "place_treasure",
    "resolve_world",
]

Point = Tuple[int, int]

SOURCE: Point = (0, 0)

#: Stream tag for the ``place_treasure("random")`` ring draw and the extra
#: targets of multi-target placement, keyed ``derive_rng(seed,
#: PLACEMENT_DRAW_STREAM[, j])`` — placement randomness never rides on a
#: raw ``make_rng(seed)`` stream (R001/R003 cover it like any other draw).
PLACEMENT_DRAW_STREAM = register_stream("PLACEMENT_DRAW_STREAM", 0x97ACE5D1)

#: Stream tag for target motion and arrival draws, keyed
#: ``derive_rng(seed, TARGET_STREAM[, ...])``.  Dynamic-world randomness
#: lives on its own derived stream so the searcher's excursion/step draws
#: stay paired across motion/arrival settings (see DESIGN.md §10).
TARGET_STREAM = register_stream("TARGET_STREAM", 0x7A26E7)

#: The four axis directions shared by drift and lazy-walk motion, in the
#: same N/E/S/W order as the walker engines' step tables.
MOTION_DIR_X = np.array([0, 1, 0, -1], dtype=np.int64)
MOTION_DIR_Y = np.array([1, 0, -1, 0], dtype=np.int64)

_MOTIONS = ("static", "drift", "walk")
_ARRIVALS = ("present", "geometric")


@dataclass(frozen=True)
class World:
    """An instance of the search problem: a treasure offset from the source.

    ``treasure`` is the target node ``tau``; ``distance`` is ``D = d(s, tau)``.
    """

    treasure: Point

    def __post_init__(self) -> None:
        if self.treasure == SOURCE:
            raise ValueError("treasure must not be placed on the source")

    @property
    def distance(self) -> int:
        """``D``, the hop distance from the source to the treasure."""
        return l1_norm(self.treasure[0], self.treasure[1])

    @property
    def source(self) -> Point:
        return SOURCE


@dataclass(frozen=True)
class WorldSpec:
    """A declarative world process, serialisable and hashable.

    All-default fields mean "the paper's model" — one static target,
    present from ``t = 0``, detected with certainty; engines treat that
    case as exactly equivalent to passing no world spec at all (same code
    path, same random-number consumption, bitwise-identical output), the
    same structural guarantee :class:`repro.scenarios.ScenarioSpec` gives
    for its all-default case.
    """

    n_targets: int = 1
    motion: str = "static"
    motion_rate: float = 0.0
    arrival: str = "present"
    arrival_hazard: float = 0.0
    detection_prob: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_targets", int(self.n_targets))
        object.__setattr__(self, "motion", str(self.motion))
        object.__setattr__(self, "motion_rate", float(self.motion_rate))
        object.__setattr__(self, "arrival", str(self.arrival))
        object.__setattr__(
            self, "arrival_hazard", float(self.arrival_hazard)
        )
        object.__setattr__(
            self, "detection_prob", float(self.detection_prob)
        )
        if self.n_targets < 1:
            raise ValueError(f"n_targets must be >= 1, got {self.n_targets}")
        if self.motion not in _MOTIONS:
            raise ValueError(
                f"motion must be one of {_MOTIONS}, got {self.motion!r}"
            )
        if self.motion == "static":
            if self.motion_rate != 0.0:
                raise ValueError(
                    "motion_rate must be 0 for static motion, got "
                    f"{self.motion_rate}"
                )
        elif not 0.0 < self.motion_rate <= 1.0:
            raise ValueError(
                f"{self.motion} motion needs motion_rate in (0, 1], got "
                f"{self.motion_rate}"
            )
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"arrival must be one of {_ARRIVALS}, got {self.arrival!r}"
            )
        if self.arrival == "present":
            if self.arrival_hazard != 0.0:
                raise ValueError(
                    "arrival_hazard must be 0 for present arrival, got "
                    f"{self.arrival_hazard}"
                )
        elif not 0.0 < self.arrival_hazard <= 1.0:
            raise ValueError(
                "geometric arrival needs arrival_hazard in (0, 1], got "
                f"{self.arrival_hazard}"
            )
        if not 0.0 < self.detection_prob <= 1.0:
            raise ValueError(
                f"detection_prob must be in (0, 1], got {self.detection_prob}"
            )

    @property
    def is_default(self) -> bool:
        """Whether this world is the paper's static single-target model."""
        return (
            self.n_targets == 1
            and self.motion == "static"
            and self.arrival == "present"
            and self.detection_prob == 1.0
        )

    @property
    def is_static(self) -> bool:
        """Whether target positions are time-invariant."""
        return self.motion == "static"

    def describe(self) -> str:
        """Compact human-readable knob summary (only non-default knobs)."""
        parts = []
        if self.n_targets != 1:
            parts.append(f"n_targets={self.n_targets}")
        if self.motion != "static":
            parts.append(f"motion={self.motion}({self.motion_rate:g})")
        if self.arrival != "present":
            parts.append(f"arrival=geometric({self.arrival_hazard:g})")
        if self.detection_prob < 1:
            parts.append(f"detection_prob={self.detection_prob:g}")
        return ", ".join(parts) if parts else "default"

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form (the sweep-cache hashing basis)."""
        return {
            "n_targets": self.n_targets,
            "motion": self.motion,
            "motion_rate": self.motion_rate,
            "arrival": self.arrival,
            "arrival_hazard": self.arrival_hazard,
            "detection_prob": self.detection_prob,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorldSpec":
        return cls(
            n_targets=int(data.get("n_targets", 1)),
            motion=str(data.get("motion", "static")),
            motion_rate=float(data.get("motion_rate", 0.0)),
            arrival=str(data.get("arrival", "present")),
            arrival_hazard=float(data.get("arrival_hazard", 0.0)),
            detection_prob=float(data.get("detection_prob", 1.0)),
        )


def resolve_world(world: Optional[WorldSpec]) -> Optional[WorldSpec]:
    """Canonicalise: a ``None`` or all-default world resolves to ``None``.

    ``None`` means the paper's static single-target world, which draws
    no target-stream randomness in any engine.  The excursion kernel and
    the random walk branch on it to keep their separate static path; the
    step engine and the segment walkers run it as a one-target world.
    Mirrors :func:`repro.scenarios.resolve_scenario`.
    """
    if world is None:
        return None
    if not isinstance(world, WorldSpec):
        raise TypeError(
            f"world must be a WorldSpec or None, got {type(world).__name__}"
        )
    return None if world.is_default else world


def composed_detection(
    spec: Optional[WorldSpec], scenario_prob: Optional[float]
) -> Optional[float]:
    """Per-crossing detection probability, ``None`` when detection is certain.

    The one rule every engine uses: the world's ``detection_prob`` times
    the scenario's lossy-detection probability (``None`` for either means
    certain), as ``q_world * q_scenario``.
    """
    q = 1.0 if spec is None else spec.detection_prob
    if scenario_prob is not None:
        q *= scenario_prob
    return q if q < 1.0 else None


def place_treasure(
    distance: int, placement: str = "corner", seed: SeedLike = None
) -> World:
    """Build a :class:`World` with the treasure at hop distance ``distance``.

    ``placement`` is one of ``"axis"`` (``(D, 0)``), ``"corner"`` (the
    spiral-last cell ``(0, -D)``), ``"offaxis"`` (spiral-late and away
    from the commuting axes — the experiments' adversarial stand-in) or
    ``"random"`` (uniform on the ring, drawn from the registered
    ``PLACEMENT_DRAW_STREAM``; a live ``Generator`` seed is consumed
    directly, so callers that manage their own stream keep doing so).
    """
    if distance < 1:
        raise ValueError(f"treasure distance must be >= 1, got {distance}")
    if placement == "axis":
        return World((distance, 0))
    if placement == "corner":
        return World((0, -distance))
    if placement == "offaxis":
        if distance == 1:
            return World((0, -1))
        return World((-1, -(distance - 1)))
    if placement == "random":
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            rng = derive_rng(seed, PLACEMENT_DRAW_STREAM)
        x, y = sample_uniform_ring(rng, distance, 1)
        return World((int(x[0]), int(y[0])))
    raise ValueError(f"unknown placement {placement!r}")


def place_targets(
    distance: int,
    placement: str = "corner",
    n_targets: int = 1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Initial positions for ``n_targets`` targets, shape ``(n_targets, 2)``.

    Target 0 takes the requested ``placement`` exactly as
    :func:`place_treasure` would (so single-target worlds reduce to the
    legacy placement); every extra target is uniform on the same ring,
    drawn from its own ``derive_rng(seed, PLACEMENT_DRAW_STREAM, j)``
    stream so target ``j``'s position is independent of ``n_targets``.
    """
    if n_targets < 1:
        raise ValueError(f"n_targets must be >= 1, got {n_targets}")
    first = place_treasure(distance, placement, seed=seed).treasure
    targets = np.empty((n_targets, 2), dtype=np.int64)
    targets[0, 0] = first[0]
    targets[0, 1] = first[1]
    for j in range(1, n_targets):
        rng = derive_rng(seed, PLACEMENT_DRAW_STREAM, j)
        x, y = sample_uniform_ring(rng, distance, 1)
        targets[j, 0] = int(x[0])
        targets[j, 1] = int(y[0])
    return targets


def initial_targets(
    world: Union[World, np.ndarray, Tuple], spec: WorldSpec
) -> np.ndarray:
    """Normalise an engine's ``world`` argument to ``(n_targets, 2)`` int64.

    Dynamic-world engine entry points accept either a legacy
    :class:`World` (single target) or an array/sequence of initial target
    positions; the count must match ``spec.n_targets`` and no target may
    start on the source.
    """
    if isinstance(world, World):
        targets = np.array([world.treasure], dtype=np.int64)
    else:
        targets = np.asarray(world, dtype=np.int64)
        if targets.ndim == 1 and targets.shape == (2,):
            targets = targets[None, :]
    if targets.ndim != 2 or targets.shape[1] != 2:
        raise ValueError(
            f"targets must have shape (n_targets, 2), got {targets.shape}"
        )
    if targets.shape[0] != spec.n_targets:
        raise ValueError(
            f"world has {targets.shape[0]} targets but the WorldSpec "
            f"declares n_targets={spec.n_targets}"
        )
    if np.any((targets[:, 0] == 0) & (targets[:, 1] == 0)):
        raise ValueError("no target may start on the source")
    return targets


class TargetTrack:
    """Per-trial dynamic target state, advanced in closed form.

    Holds the positions of ``spec.n_targets`` targets for ``trials``
    independent trials and answers position queries at per-trial
    non-decreasing times (each engine queries a trial at a clock that only
    grows: the earliest active-agent clock per phase for the excursion
    kernel, the chunk start for the walker engines).  Motion never steps
    the grid: ``drift`` is a pure closed form of the query time, and
    ``walk`` advances a window of ``dt`` time units with one
    ``Binomial(dt, rate)`` draw for the step count plus one multinomial
    for the direction split.  All randomness comes from the dedicated
    ``motion_rng`` (the ``TARGET_STREAM`` derivation), so the searcher's
    own draws stay paired across world settings.  Only drift, walk and
    geometric arrival draw from it, so a static, present world may pass
    ``None``.
    """

    def __init__(
        self,
        spec: WorldSpec,
        targets0: np.ndarray,
        trials: int,
        motion_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.spec = spec
        self.trials = trials
        self.n = spec.n_targets
        base = np.broadcast_to(targets0[None, :, :], (trials, self.n, 2))
        self._base = None
        self._drift = None
        self._pos = None
        self._time = None
        if spec.motion == "drift":
            dirs = motion_rng.integers(0, 4, size=(trials, self.n))
            self._drift = np.stack(
                [MOTION_DIR_X[dirs], MOTION_DIR_Y[dirs]], axis=-1
            )
            self._base = np.array(base, dtype=np.int64)
        else:
            self._pos = np.array(base, dtype=np.int64)
            if spec.motion == "walk":
                self._time = np.zeros(trials, dtype=np.int64)
        if spec.arrival == "geometric":
            self.arrival = motion_rng.geometric(
                spec.arrival_hazard, size=(trials, self.n)
            ).astype(np.float64)
        else:
            self.arrival = np.zeros((trials, self.n), dtype=np.float64)
        self._rng = motion_rng

    def positions(self, query: np.ndarray) -> np.ndarray:
        """Target positions ``(trials, n_targets, 2)`` at per-trial times.

        ``query`` is a ``(trials,)`` float array of wall-clock times,
        non-decreasing per trial across calls (non-advancing or stale
        queries are no-ops for the stateful ``walk`` motion).
        """
        if self.spec.motion == "static":
            return self._pos
        t = np.floor(
            np.maximum(np.where(np.isfinite(query), query, 0.0), 0.0)
        ).astype(np.int64)
        if self.spec.motion == "drift":
            steps = np.floor(
                self.spec.motion_rate * t.astype(np.float64)
            ).astype(np.int64)
            return self._base + steps[:, None, None] * self._drift
        dt = np.maximum(t - self._time, 0)
        if np.any(dt > 0):
            counts = self._rng.binomial(
                np.broadcast_to(dt[:, None], (self.trials, self.n)),
                self.spec.motion_rate,
            )
            splits = self._rng.multinomial(counts.reshape(-1), [0.25] * 4)
            self._pos[:, :, 0] += (splits @ MOTION_DIR_X).reshape(
                self.trials, self.n
            )
            self._pos[:, :, 1] += (splits @ MOTION_DIR_Y).reshape(
                self.trials, self.n
            )
            np.maximum(self._time, t, out=self._time)
        return self._pos

    def positions_at(self, time: float) -> np.ndarray:
        """Positions with every trial advanced to the same wall-clock time."""
        return self.positions(np.full(self.trials, float(time)))


@dataclass(frozen=True)
class Result:
    """Outcome of one simulated search run.

    ``time`` is the first time at which any agent stands on the treasure
    (``math.inf``/``np.inf`` when the run was truncated before a find);
    ``finder`` identifies the finding agent when known; ``steps_simulated``
    records the total number of steps actually executed across all agents
    (early stops and pruning make this smaller than ``k * horizon``).
    ``meta`` is deep-copied on construction, so two results never alias
    one mapping and callers may mutate their argument afterwards.
    """

    time: float
    found: bool
    finder: Optional[int] = None
    steps_simulated: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.found and not np.isfinite(self.time):
            raise ValueError("found results must carry a finite time")
        object.__setattr__(self, "meta", copy.deepcopy(dict(self.meta)))
