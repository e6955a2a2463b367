"""The paper's search algorithms and the baselines they are compared against.

Upper-bound constructions (Sections 3 and 5):

* :class:`NonUniformSearch` — Algorithm 3 (``A_k``), Theorem 3.1;
* :class:`RhoApproxSearch` — Corollary 3.2;
* :class:`UniformSearch` — Algorithm 1 (``A_uniform``), Theorem 3.3;
* :class:`HarmonicSearch` / :class:`RestartingHarmonicSearch` — Section 5;
* :class:`HedgedApproxSearch` / :class:`NaiveTrustSearch` — the
  approximate-knowledge setting of Theorem 4.2.

Baselines: :class:`SingleSpiralSearch`, :class:`KnownDSearch`,
:class:`RandomWalkSearch`, :class:`BiasedWalkSearch`,
:class:`LevyFlightSearch`.

Adaptive baseline for the generalised worlds of :mod:`repro.sim.world`:
:class:`GridBeliefSearch` (:mod:`repro.algorithms.belief`), compared in
experiment E12.
"""

from .approximate import (
    HedgedApproxSearch,
    NaiveTrustSearch,
    RhoApproxSearch,
    one_sided_guesses,
)
from .base import ExcursionAlgorithm, ExcursionFamily, SearchAlgorithm, UniformBallFamily
from .belief import AdaptiveSearcher, GridBeliefSearch
from .baselines import (
    BiasedWalkSearch,
    KnownDSearch,
    LevyFlightSearch,
    RandomWalkSearch,
    SingleSpiralSearch,
)
from .harmonic import (
    HarmonicSearch,
    PowerLawRingFamily,
    RestartingHarmonicSearch,
    harmonic_normalizing_constant,
)
from .nonuniform import NonUniformSearch, ScaledBudgetSearch
from .sector import SectorSearch, sector_find_times
from .uniform import UniformSearch

__all__ = [
    "AdaptiveSearcher",
    "BiasedWalkSearch",
    "ExcursionAlgorithm",
    "ExcursionFamily",
    "GridBeliefSearch",
    "HarmonicSearch",
    "HedgedApproxSearch",
    "KnownDSearch",
    "LevyFlightSearch",
    "NaiveTrustSearch",
    "NonUniformSearch",
    "PowerLawRingFamily",
    "RandomWalkSearch",
    "RestartingHarmonicSearch",
    "RhoApproxSearch",
    "ScaledBudgetSearch",
    "SearchAlgorithm",
    "SectorSearch",
    "SingleSpiralSearch",
    "UniformBallFamily",
    "UniformSearch",
    "harmonic_normalizing_constant",
    "one_sided_guesses",
    "sector_find_times",
]
