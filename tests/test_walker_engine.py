"""Cross-validation of the batched walker engine (repro.sim.walkers).

The walker engine never steps the grid cell by cell (the Lévy simulator
resolves whole segments in closed form), so agreement with the step
engine is *distributional*, mirroring the excursion-engine validation in
``tests/test_engine_vs_events.py``:

* success rates within binomial noise of the step engine's;
* KS tests on the finite (finding) portion of the find-time samples;
* the horizon boundary rule (a find at exactly ``horizon`` is kept);
* bitwise reproducibility: batch rows vs direct calls, pooled sweeps vs
  serial sweeps, and the deprecated ``random_walk_find_times`` alias vs
  the engine it wraps.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.algorithms.baselines import random_walk_find_times
from repro.scenarios import ScenarioSpec
from repro.algorithms import RandomWalkSearch
from repro.sim.engine import first_visit_times, run_agent, run_search
from repro.sim.protocol import StepEngine
from repro.sim.rng import derive_rng, spawn_seeds
from repro.sim.walkers import (
    BiasedWalker,
    LevyWalker,
    RandomWalker,
    walker_find_times,
    walker_find_times_batch,
)
from repro.sim.world import World, place_treasure
from repro.sweep import SweepSpec, run_sweep

# (walker, world, horizon): scenarios small enough for the step engine
# yet with non-trivial success probability within the horizon.
PARITY_CASES = [
    (RandomWalker(), place_treasure(2, "axis"), 60),
    (BiasedWalker(0.9), place_treasure(5, "axis"), 200),
    (LevyWalker(2.0), place_treasure(6, "axis"), 300),
]


def _step_engine_times(walker, world, horizon, runs, seed):
    """Single-agent find times from the step engine (inf when censored)."""
    algorithm = walker.step_algorithm()
    times = np.full(runs, np.inf)
    for i in range(runs):
        trace = run_agent(algorithm, world, derive_rng(seed, i), horizon)
        if trace.find_time is not None:
            times[i] = trace.find_time
    return times


class TestDistributionalParity:
    @pytest.mark.parametrize(
        "walker,world,horizon",
        PARITY_CASES,
        ids=["random", "biased", "levy"],
    )
    def test_success_rate_and_ks_vs_step_engine(self, walker, world, horizon):
        fast = walker.find_times(world, 1, 1500, seed=11, horizon=horizon)
        slow = _step_engine_times(walker, world, horizon, 300, seed=12)

        fast_rate = float(np.isfinite(fast).mean())
        slow_rate = float(np.isfinite(slow).mean())
        # 300 step-engine runs: ~3 sigma of binomial noise stays under 0.1.
        assert abs(fast_rate - slow_rate) < 0.12

        fast_finite = fast[np.isfinite(fast)]
        slow_finite = slow[np.isfinite(slow)]
        assert fast_finite.size > 30 and slow_finite.size > 30
        result = stats.ks_2samp(fast_finite, slow_finite)
        assert result.pvalue > 0.001

    def test_biased_mean_ci_overlap(self):
        """Conditional means agree within pooled standard error."""
        walker = BiasedWalker(0.8)
        world = place_treasure(4, "axis")
        fast = walker.find_times(world, 1, 2000, seed=21, horizon=150)
        slow = _step_engine_times(walker, world, 150, 400, seed=22)
        f = fast[np.isfinite(fast)]
        s = slow[np.isfinite(slow)]
        pooled_se = math.sqrt(f.var() / f.size + s.var() / s.size)
        assert abs(f.mean() - s.mean()) < 5 * pooled_se + 1e-9

    def test_k_walkers_beat_one(self):
        world = place_treasure(3, "axis")
        one = RandomWalker().find_times(world, 1, 800, seed=31, horizon=100)
        four = RandomWalker().find_times(world, 4, 800, seed=32, horizon=100)
        assert np.isfinite(four).mean() > np.isfinite(one).mean()


class TestHorizonBoundary:
    """A find at exactly ``horizon`` is kept — the step engine's rule."""

    def test_random_walker_keeps_find_at_exact_horizon(self):
        world = World((2, 0))
        times = RandomWalker().find_times(world, 1, 2000, seed=41, horizon=2)
        finite = times[np.isfinite(times)]
        assert finite.size > 0
        assert np.all(finite == 2.0)

    def test_levy_walker_keeps_find_at_exact_horizon(self):
        # Only a first segment of length >= 3 in the +x direction can reach
        # (3, 0) by t = 3; any such hit lands at exactly t = 3.
        world = World((3, 0))
        times = LevyWalker(2.0).find_times(world, 1, 2000, seed=42, horizon=3)
        finite = times[np.isfinite(times)]
        assert finite.size > 0
        assert np.all(finite == 3.0)

    def test_levy_hit_after_horizon_is_censored(self):
        # Horizon 2 cannot reach distance 3, even mid-segment.
        times = LevyWalker(2.0).find_times(World((3, 0)), 1, 500, seed=43, horizon=2)
        assert np.all(~np.isfinite(times))


class TestReproducibility:
    def test_chunk_size_does_not_change_the_distribution(self):
        """Chunking is an implementation knob, not a semantic one."""
        world = place_treasure(3, "axis")
        small = RandomWalker().find_times(
            world, 2, 600, seed=51, horizon=120, chunk=7
        )
        large = RandomWalker().find_times(
            world, 2, 600, seed=52, horizon=120, chunk=4096
        )
        assert abs(np.isfinite(small).mean() - np.isfinite(large).mean()) < 0.1

    def test_same_seed_is_bitwise_stable(self):
        world = place_treasure(4, "axis")
        for walker in (RandomWalker(), BiasedWalker(0.9), LevyWalker(2.0)):
            a = walker.find_times(world, 2, 100, seed=53, horizon=200)
            b = walker.find_times(world, 2, 100, seed=53, horizon=200)
            assert np.array_equal(a, b)

    def test_batch_rows_match_direct_calls(self):
        worlds = [place_treasure(2, "axis"), place_treasure(4, "offaxis")]
        for walker in (RandomWalker(), BiasedWalker(0.9), LevyWalker(2.0)):
            matrix = walker_find_times_batch(
                walker, worlds, 2, 80, seed=54, horizon=150
            )
            seeds = spawn_seeds(54, len(worlds))
            for row, world, child in zip(matrix, worlds, seeds):
                direct = walker.find_times(world, 2, 80, child, horizon=150)
                assert np.array_equal(row, direct)

    @pytest.mark.parametrize(
        "scenario", [None, ScenarioSpec(detection_prob=0.6, crash_hazard=0.01)]
    )
    def test_pair_and_world_are_bitwise_equal(self, scenario):
        """A static world may be given as a ``(tx, ty)`` pair."""
        for walker in (RandomWalker(), BiasedWalker(0.8), LevyWalker(2.0)):
            a = walker.find_times(
                World((2, -1)), 3, 60, seed=56, horizon=150, chunk=9,
                scenario=scenario,
            )
            b = walker.find_times(
                (2, -1), 3, 60, seed=56, horizon=150, chunk=9,
                scenario=scenario,
            )
            assert np.isfinite(a).any()
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "scenario", [None, ScenarioSpec(detection_prob=0.6, crash_hazard=0.01)]
    )
    def test_step_engine_takes_a_pair(self, scenario):
        """The step engine's entry points accept a ``(tx, ty)`` pair too."""
        algo = RandomWalkSearch()
        for world in (World((2, -1)), (2, -1)):
            runs = [
                run_search(algo, world, 3, seed, horizon=120, scenario=scenario)
                for seed in range(6)
            ]
            times = StepEngine().find_times(
                algo, world, 3, 8, seed=57, horizon=120, scenario=scenario
            )
            visits = first_visit_times(algo, world, 2, 58, 40)
            if isinstance(world, World):
                expected = (runs, times, visits)
                continue
            assert any(run.result.found for run in runs)
            assert runs == expected[0]
            assert np.array_equal(times, expected[1])
            assert visits == expected[2]

    def test_pair_on_the_source_is_rejected(self):
        for walker in (RandomWalker(), BiasedWalker(0.8), LevyWalker(2.0)):
            with pytest.raises(ValueError, match="source"):
                walker.find_times((0, 0), 1, 3, 0, horizon=50)
        with pytest.raises(ValueError, match="source"):
            run_search(RandomWalkSearch(), (0, 0), 1, 0, horizon=50)

    def test_functional_wrapper_matches_method(self):
        world = place_treasure(3, "axis")
        a = walker_find_times(RandomWalker(), world, 1, 50, seed=55, horizon=60)
        b = RandomWalker().find_times(world, 1, 50, seed=55, horizon=60)
        assert np.array_equal(a, b)


class TestDeprecatedAlias:
    def test_alias_is_bitwise_identical_and_warns(self):
        world = place_treasure(3, "axis")
        with pytest.deprecated_call():
            legacy = random_walk_find_times(
                world, 2, 60, 100, np.random.default_rng(61)
            )
        modern = RandomWalker().find_times(
            world, 2, 60, np.random.default_rng(61), horizon=100, chunk=4096
        )
        assert np.array_equal(legacy, modern)


class TestValidation:
    def test_rejects_bad_counts(self):
        world = place_treasure(3, "axis")
        with pytest.raises(ValueError):
            RandomWalker().find_times(world, 0, 1, seed=0, horizon=10)
        with pytest.raises(ValueError):
            RandomWalker().find_times(world, 1, 0, seed=0, horizon=10)

    @pytest.mark.parametrize("horizon", [0, -5, math.inf, math.nan, None])
    def test_rejects_bad_horizons(self, horizon):
        world = place_treasure(3, "axis")
        with pytest.raises(ValueError):
            BiasedWalker().find_times(world, 1, 10, seed=0, horizon=horizon)

    def test_rejects_bad_chunk(self):
        world = place_treasure(3, "axis")
        with pytest.raises(ValueError):
            RandomWalker().find_times(world, 1, 10, seed=0, horizon=10, chunk=0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BiasedWalker(persistence=1.0)
        with pytest.raises(ValueError):
            LevyWalker(mu=1.0)
        with pytest.raises(ValueError):
            walker_find_times_batch(
                RandomWalker(), [], 1, 10, seed=0, horizon=10
            )


class TestSweepIntegration:
    def _spec(self, **overrides):
        base = dict(
            algorithm="biased_walk",
            distances=(3, 5),
            ks=(1, 2),
            trials=40,
            params={"persistence": 0.9},
            seed=71,
            horizon=200.0,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_walker_sweep_runs_and_caches(self, tmp_path):
        first = run_sweep(self._spec(), cache_dir=str(tmp_path))
        assert len(first) == 4
        assert all(cell.times.shape == (40,) for cell in first)
        second = run_sweep(self._spec(), cache_dir=str(tmp_path))
        assert second.from_cache
        for a, b in zip(first.cells, second.cells):
            assert np.array_equal(a.times, b.times)

    def test_workers_match_serial_bitwise(self):
        serial = run_sweep(self._spec(), cache=False)
        pooled = run_sweep(self._spec(), cache=False, workers=2)
        for a, b in zip(serial.cells, pooled.cells):
            assert (a.distance, a.k) == (b.distance, b.k)
            assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("algorithm", ["random_walk", "biased_walk", "levy"])
    def test_walker_sweep_without_horizon_is_rejected(self, algorithm):
        spec = self._spec(algorithm=algorithm, params={}, horizon=None)
        with pytest.raises(ValueError, match="horizon"):
            run_sweep(spec, cache=False)

    def test_levy_params_reach_the_builder(self):
        from repro.sweep import build_algorithm

        walker = build_algorithm("levy", 4, {"mu": 1.5, "max_segment": 100})
        assert isinstance(walker, LevyWalker)
        assert walker.mu == 1.5 and walker.max_segment == 100

    def test_success_rises_with_k(self):
        result = run_sweep(self._spec(), cache=False)
        assert (
            result.cell(3, 2).success_rate >= result.cell(3, 1).success_rate
        )
