"""Algorithm interfaces shared by both simulation engines.

The paper's agents are identical probabilistic machines (Section 2).  Two
views of an algorithm are exposed:

* a **step program** — an infinite iterator of grid positions, one per time
  unit, consumed by the exact step-level engine (:mod:`repro.sim.engine`);
* an **excursion view** — for algorithms built from go/spiral/return
  excursions, an iterator of :class:`ExcursionFamily` objects, each of which
  can sample the excursion's start node and spiral budget.  The vectorised
  engine (:mod:`repro.sim.events`) resolves excursions in closed form,
  which is exact in distribution and orders of magnitude faster.

The step program of an excursion algorithm is derived generically from its
excursion view (:meth:`ExcursionAlgorithm.step_program`), so both engines
execute literally the same excursion stream when given the same RNG —
the basis of the cross-engine validation tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Tuple

import numpy as np

from ..core.geometry import ball_cells_from_index, ball_size, sample_uniform_ball
from ..core.spiral import spiral_steps
from ..core.walks import manhattan_path

__all__ = [
    "Point",
    "ExcursionFamily",
    "UniformBallFamily",
    "SearchAlgorithm",
    "ExcursionAlgorithm",
]

Point = Tuple[int, int]


class ExcursionFamily(ABC):
    """Distribution of one excursion: a random start node and spiral budget.

    ``sample(rng, size)`` returns integer arrays ``(ux, uy, budget)`` of the
    given size: the excursion walks from the source to ``(ux, uy)``, spirals
    for ``budget`` steps, and walks back.

    Sampling splits into :meth:`draw` (every RNG call, in order) and
    :meth:`resolve` (an RNG-free, elementwise map from the draws to
    ``(ux, uy, budget)``).  ``resolve`` is a static method of the family
    *type*, so the stacked excursion engine can concatenate the draws of
    many families of one type and resolve them in a single pass; for any
    RNG state, ``resolve(draw(rng, size))`` equals ``sample(rng, size)``
    bit for bit.  The defaults treat ``sample``'s output as the draws.
    """

    @abstractmethod
    def sample(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``size`` independent excursions."""

    def draw(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, ...]:
        """The RNG part of :meth:`sample`: equal-length arrays of raw draws."""
        return self.sample(rng, size)

    @staticmethod
    def resolve(
        draws: Tuple[np.ndarray, ...]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RNG-free map from (possibly concatenated) draws to excursions."""
        ux, uy, budgets = draws
        return ux, uy, budgets

    def sample_one(self, rng: np.random.Generator) -> Tuple[Point, int]:
        """Draw a single excursion as ``((x, y), budget)``."""
        ux, uy, budget = self.sample(rng, 1)
        return (int(ux[0]), int(uy[0])), int(budget[0])


class UniformBallFamily(ExcursionFamily):
    """Excursion of the iterated algorithms: ``u ~ Uniform(B(radius))``, fixed budget."""

    def __init__(self, radius: int, budget: int):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.radius = radius
        self.budget = budget

    def sample(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        ux, uy = sample_uniform_ball(rng, self.radius, size)
        budgets = np.full(size, self.budget, dtype=np.int64)
        return ux, uy, budgets

    def draw(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ball indices (the only RNG call of :meth:`sample`) and budgets."""
        index = rng.integers(0, ball_size(self.radius), size=size, dtype=np.int64)
        return index, np.full(size, self.budget, dtype=np.int64)

    @staticmethod
    def resolve(
        draws: Tuple[np.ndarray, ...]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        index, budgets = draws
        ux, uy = ball_cells_from_index(index)
        return ux, uy, budgets

    def __repr__(self) -> str:
        return f"UniformBallFamily(radius={self.radius}, budget={self.budget})"


class SearchAlgorithm(ABC):
    """A search protocol executed identically by every agent.

    Subclasses must provide :meth:`step_program`; schedule/excursion-based
    algorithms should instead subclass :class:`ExcursionAlgorithm` and
    provide :meth:`ExcursionAlgorithm.families`.
    """

    #: Short machine-friendly identifier (used in tables and registries).
    name: str = "search"

    #: Whether the algorithm uses knowledge of the number of agents k.
    uses_k: bool = False

    @abstractmethod
    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        """Yield the agent's position after each time step (source excluded).

        The program never terminates on its own; engines stop it when the
        treasure is found or a horizon is reached.  It must not depend on
        the treasure location — agents have no information about the target.
        """

    def describe(self) -> str:
        """One-line human description (overridden with parameters)."""
        return self.name


class ExcursionAlgorithm(SearchAlgorithm):
    """Base for algorithms that are a stream of go/spiral/return excursions."""

    @abstractmethod
    def families(self) -> Iterator[ExcursionFamily]:
        """Yield the excursion distributions in execution order.

        The iterator may be finite (one-shot algorithms such as harmonic
        search); agents that exhaust it sit at the source forever.
        """

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        """Generic step-level interpretation of the excursion stream."""
        source: Point = (0, 0)
        for family in self.families():
            (ux, uy), budget = family.sample_one(rng)
            target = (ux, uy)
            # Walk out.
            position = source
            for position in manhattan_path(source, target):
                yield position
            # Spiral for `budget` steps.
            x, y = position
            steps = spiral_steps()
            for _ in range(budget):
                dx, dy = next(steps)
                x, y = x + dx, y + dy
                yield x, y
            # Walk home.
            for position in manhattan_path((x, y), source):
                yield position
        # Finite excursion stream exhausted: idle at the source.
        while True:
            yield source
