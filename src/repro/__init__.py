"""repro — reproduction of *Collaborative Search on the Plane without Communication*.

Feinerman, Korman, Lotker, Sereni (PODC 2012): ``k`` identical,
non-communicating probabilistic agents search the grid ``Z^2`` for an
adversarially placed treasure at unknown distance ``D``.

Quickstart::

    from repro import NonUniformSearch, UniformSearch, place_treasure, simulate_find_times

    world = place_treasure(distance=64, placement="corner")
    times = simulate_find_times(NonUniformSearch(k=16), world, k=16, trials=100, seed=0)
    print(times.mean())          # ~ O(D + D^2/k)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
theorem-by-theorem reproduction results.
"""

from .algorithms import (
    AdaptiveSearcher,
    BiasedWalkSearch,
    ExcursionAlgorithm,
    ExcursionFamily,
    GridBeliefSearch,
    HarmonicSearch,
    HedgedApproxSearch,
    KnownDSearch,
    LevyFlightSearch,
    NaiveTrustSearch,
    NonUniformSearch,
    RandomWalkSearch,
    RestartingHarmonicSearch,
    RhoApproxSearch,
    SearchAlgorithm,
    SingleSpiralSearch,
    UniformSearch,
)
from .analysis.competitiveness import competitiveness, optimal_time
from .scenarios import AgentProfile, ScenarioSpec
from .sim import (
    BiasedWalker,
    Engine,
    LevyWalker,
    RandomWalker,
    Result,
    Walker,
    World,
    WorldSpec,
    engine_for,
    excursion_find_time,
    expected_find_time,
    make_rng,
    place_targets,
    place_treasure,
    resolve_world,
    run_search,
    simulate_find_times,
    simulate_find_times_batch,
    walker_find_times,
    walker_find_times_batch,
)
from .stats import (
    BudgetPolicy,
    FindTimeAccumulator,
    FindTimeSummary,
    StreamingMoments,
    summarize_times,
)
from .sweep import (
    SweepExecutor,
    SweepSpec,
    make_executor,
    run_sweep,
)

__version__ = "1.8.0"

__all__ = [
    "AdaptiveSearcher",
    "AgentProfile",
    "BiasedWalkSearch",
    "BiasedWalker",
    "BudgetPolicy",
    "Engine",
    "ExcursionAlgorithm",
    "ExcursionFamily",
    "FindTimeAccumulator",
    "FindTimeSummary",
    "GridBeliefSearch",
    "HarmonicSearch",
    "HedgedApproxSearch",
    "KnownDSearch",
    "LevyFlightSearch",
    "LevyWalker",
    "NaiveTrustSearch",
    "NonUniformSearch",
    "RandomWalkSearch",
    "RandomWalker",
    "Result",
    "RestartingHarmonicSearch",
    "RhoApproxSearch",
    "ScenarioSpec",
    "SearchAlgorithm",
    "SingleSpiralSearch",
    "StreamingMoments",
    "SweepSpec",
    "UniformSearch",
    "Walker",
    "World",
    "WorldSpec",
    "competitiveness",
    "engine_for",
    "excursion_find_time",
    "expected_find_time",
    "make_executor",
    "make_rng",
    "optimal_time",
    "place_targets",
    "place_treasure",
    "resolve_world",
    "run_search",
    "run_sweep",
    "simulate_find_times",
    "simulate_find_times_batch",
    "summarize_times",
    "SweepExecutor",
    "walker_find_times",
    "walker_find_times_batch",
    "__version__",
]
