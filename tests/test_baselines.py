"""Tests for the baseline strategies (repro.algorithms.baselines)."""

import itertools

import numpy as np
import pytest

from repro.algorithms.baselines import (
    BiasedWalkSearch,
    KnownDSearch,
    LevyFlightSearch,
    RandomWalkSearch,
    SingleSpiralSearch,
)
from repro.sim.engine import run_agent, run_search
from repro.sim.walkers import RandomWalker
from repro.sim.world import World, place_treasure


class TestSingleSpiral:
    def test_exact_find_time_matches_engine(self):
        alg = SingleSpiralSearch()
        for treasure in [(3, 2), (0, -5), (-4, 4)]:
            world = World(treasure)
            exact = alg.exact_find_time(world)
            run = run_search(alg, world, 1, seed=0, horizon=exact + 5)
            assert run.result.found and run.result.time == exact

    def test_quadratic_in_distance(self):
        alg = SingleSpiralSearch()
        t16 = alg.exact_find_time(place_treasure(16, "corner"))
        t32 = alg.exact_find_time(place_treasure(32, "corner"))
        assert 3.5 <= t32 / t16 <= 4.5

    def test_k_agents_give_no_speedup(self):
        """Identical deterministic agents: the 'no dispersion' control."""
        alg = SingleSpiralSearch()
        world = place_treasure(6, "axis")
        t1 = run_search(alg, world, 1, seed=1, horizon=10_000).result.time
        t8 = run_search(alg, world, 8, seed=1, horizon=10_000).result.time
        assert t1 == t8


class TestKnownD:
    @pytest.mark.parametrize("treasure", [(7, 0), (0, 7), (-7, 0), (0, -7), (3, -4)])
    def test_exact_find_time_matches_engine(self, treasure):
        world = World(treasure)
        alg = KnownDSearch(distance=7)
        exact = alg.exact_find_time(world)
        run = run_search(alg, world, 1, seed=0, horizon=exact + 5)
        assert run.result.found and run.result.time == exact

    def test_linear_time_bound(self):
        """Find time is at most 9D for any placement at distance D."""
        for d in (4, 9, 15):
            alg = KnownDSearch(distance=d)
            for x in range(-d, d + 1):
                for y in (d - abs(x), abs(x) - d):
                    if abs(x) + abs(y) == d:
                        assert alg.exact_find_time(World((x, y))) <= 9 * d

    def test_rejects_mismatched_distance(self):
        with pytest.raises(ValueError):
            KnownDSearch(distance=5).exact_find_time(World((3, 0)))

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            KnownDSearch(distance=0)


class TestRandomWalk:
    def test_program_makes_unit_steps(self):
        rng = np.random.default_rng(5)
        prev = (0, 0)
        for pos in itertools.islice(RandomWalkSearch().step_program(rng), 200):
            assert abs(pos[0] - prev[0]) + abs(pos[1] - prev[1]) == 1
            prev = pos

    def test_often_fails_within_small_horizon(self):
        """Null recurrence bites: many walks miss a distance-10 treasure."""
        world = place_treasure(10, "axis")
        times = RandomWalker().find_times(
            world, 1, 60, np.random.default_rng(6), horizon=200, chunk=4096
        )
        assert np.mean(~np.isfinite(times)) > 0.5

    def test_vectorised_matches_engine_distribution(self):
        """Chunked numpy simulation should agree with step engine on rates."""
        world = place_treasure(2, "axis")
        horizon = 60
        fast = RandomWalker().find_times(
            world, 1, 800, np.random.default_rng(7), horizon=horizon, chunk=4096
        )
        hits = 0
        runs = 200
        for i in range(runs):
            trace = run_agent(
                RandomWalkSearch(), world, np.random.default_rng(1000 + i), horizon
            )
            hits += trace.find_time is not None
        fast_rate = float(np.mean(np.isfinite(fast)))
        slow_rate = hits / runs
        assert abs(fast_rate - slow_rate) < 0.12

    def test_respects_horizon(self):
        world = place_treasure(50, "axis")
        times = RandomWalker().find_times(
            world, 2, 10, np.random.default_rng(8), horizon=30, chunk=4096
        )
        assert np.all(~np.isfinite(times))  # can't reach distance 50 in 30 steps

    def test_rejects_bad_args(self):
        world = place_treasure(3, "axis")
        with pytest.raises(ValueError):
            RandomWalker().find_times(
                world, 0, 1, np.random.default_rng(0), horizon=10
            )
        with pytest.raises(ValueError):
            RandomWalker().find_times(
                world, 1, 1, np.random.default_rng(0), horizon=0
            )


class TestBiasedWalk:
    def test_unit_steps_and_persistence(self):
        alg = BiasedWalkSearch(persistence=0.95)
        rng = np.random.default_rng(9)
        positions = list(itertools.islice(alg.step_program(rng), 400))
        prev = (0, 0)
        straight = 0
        changes = 0
        last_move = None
        for pos in positions:
            move = (pos[0] - prev[0], pos[1] - prev[1])
            assert abs(move[0]) + abs(move[1]) == 1
            if last_move is not None:
                if move == last_move:
                    straight += 1
                else:
                    changes += 1
            last_move = move
            prev = pos
        # With persistence 0.95 straight steps should dominate direction changes.
        assert straight > 5 * changes

    def test_travels_farther_than_simple_walk(self):
        """Persistence should increase displacement at matched step count."""
        rng_a = np.random.default_rng(10)
        rng_b = np.random.default_rng(10)
        n = 2000
        biased = list(itertools.islice(BiasedWalkSearch(0.95).step_program(rng_a), n))
        simple = list(itertools.islice(RandomWalkSearch().step_program(rng_b), n))
        d_biased = abs(biased[-1][0]) + abs(biased[-1][1])
        d_simple = abs(simple[-1][0]) + abs(simple[-1][1])
        assert d_biased > d_simple

    def test_rejects_bad_persistence(self):
        with pytest.raises(ValueError):
            BiasedWalkSearch(persistence=1.0)


class TestLevyFlight:
    def test_unit_steps(self):
        rng = np.random.default_rng(11)
        prev = (0, 0)
        for pos in itertools.islice(LevyFlightSearch(mu=2.0).step_program(rng), 300):
            assert abs(pos[0] - prev[0]) + abs(pos[1] - prev[1]) == 1
            prev = pos

    def test_segments_follow_power_law_tail(self):
        """Smaller mu gives longer flights (heavier tail)."""
        n = 5000
        rng_a = np.random.default_rng(12)
        rng_b = np.random.default_rng(12)
        heavy = list(itertools.islice(LevyFlightSearch(mu=1.3).step_program(rng_a), n))
        light = list(itertools.islice(LevyFlightSearch(mu=3.5).step_program(rng_b), n))
        d_heavy = abs(heavy[-1][0]) + abs(heavy[-1][1])
        d_light = abs(light[-1][0]) + abs(light[-1][1])
        assert d_heavy > d_light

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            LevyFlightSearch(mu=1.0)
        with pytest.raises(ValueError):
            LevyFlightSearch(mu=5.0)
