"""Tests for the batched multi-world engine (simulate_find_times_batch)."""

import numpy as np
import pytest

from repro.algorithms import (
    HarmonicSearch,
    NonUniformSearch,
    RestartingHarmonicSearch,
    UniformSearch,
)
from repro.sim.events import simulate_find_times, simulate_find_times_batch
from repro.sim.world import World, place_treasure


class TestShapes:
    def test_result_shape_and_dtype(self):
        worlds = [place_treasure(d, "offaxis") for d in (8, 16, 32)]
        times = simulate_find_times_batch(NonUniformSearch(k=4), worlds, 4, 25, seed=0)
        assert times.shape == (3, 25)
        assert times.dtype == np.float64

    def test_accepts_world_objects_pairs_and_arrays(self):
        as_worlds = [World((5, 0)), World((0, -9))]
        as_pairs = [(5, 0), (0, -9)]
        as_array = np.array([[5, 0], [0, -9]])
        reference = simulate_find_times_batch(
            NonUniformSearch(k=2), as_worlds, 2, 20, seed=1
        )
        for worlds in (as_pairs, as_array):
            times = simulate_find_times_batch(
                NonUniformSearch(k=2), worlds, 2, 20, seed=1
            )
            assert np.array_equal(times, reference)

    def test_rows_follow_input_order(self):
        near, far = place_treasure(8, "offaxis"), place_treasure(64, "offaxis")
        times = simulate_find_times_batch(
            NonUniformSearch(k=2), [far, near], 2, 80, seed=2
        )
        assert times[1].mean() < times[0].mean()

    def test_duplicate_worlds_get_identical_rows(self):
        """Shared draws mean duplicated worlds resolve identically."""
        world = place_treasure(16, "offaxis")
        times = simulate_find_times_batch(
            NonUniformSearch(k=2), [world, world], 2, 40, seed=3
        )
        assert np.array_equal(times[0], times[1])


class TestScalarEquivalence:
    @pytest.mark.parametrize(
        "algorithm,k",
        [
            (NonUniformSearch(k=4), 4),
            (UniformSearch(0.5), 4),
            (HarmonicSearch(0.5), 8),
            (RestartingHarmonicSearch(0.5), 4),
        ],
        ids=["nonuniform", "uniform", "harmonic", "restarting"],
    )
    def test_single_world_bitwise_equals_scalar_engine(self, algorithm, k):
        """With one world the batch engine replays the scalar engine exactly:
        same seed, same draws, same find times, bit for bit."""
        world = place_treasure(32, "offaxis")
        scalar = simulate_find_times(
            algorithm, world, k, 60, seed=7, max_phases=200_000
        )
        batch = simulate_find_times_batch(
            algorithm, [world], k, 60, seed=7, max_phases=200_000
        )
        assert np.array_equal(scalar, batch[0])

    def test_single_world_bitwise_equality_with_horizon(self):
        world = place_treasure(24, "offaxis")
        scalar = simulate_find_times(
            NonUniformSearch(k=3), world, 3, 50, seed=11, horizon=5_000
        )
        batch = simulate_find_times_batch(
            NonUniformSearch(k=3), [world], 3, 50, seed=11, horizon=5_000
        )
        assert np.array_equal(scalar, batch[0])

    def test_multi_world_rows_match_scalar_distribution(self):
        """Every row of a batch is distributed as a scalar run of its world."""
        distances = (12, 24, 48)
        worlds = [place_treasure(d, "offaxis") for d in distances]
        batch = simulate_find_times_batch(
            NonUniformSearch(k=4), worlds, 4, 600, seed=13
        )
        for row, world in zip(batch, worlds):
            scalar = simulate_find_times(
                NonUniformSearch(k=4), world, 4, 600, seed=17
            )
            assert abs(row.mean() - scalar.mean()) / scalar.mean() < 0.2
            assert abs(np.median(row) - np.median(scalar)) / np.median(scalar) < 0.25

    def test_rows_at_least_distance(self):
        worlds = [place_treasure(d, "corner") for d in (8, 16, 32)]
        times = simulate_find_times_batch(UniformSearch(0.5), worlds, 4, 50, seed=5)
        for row, d in zip(times, (8, 16, 32)):
            finite = row[np.isfinite(row)]
            assert np.all(finite >= d)


class TestHorizonAndDelays:
    def test_horizon_truncates_to_inf(self):
        worlds = [place_treasure(d, "corner") for d in (40, 50)]
        times = simulate_find_times_batch(
            NonUniformSearch(k=1), worlds, 1, 20, seed=6, horizon=45
        )
        assert not np.any(np.isfinite(times))

    def test_find_at_exact_horizon_is_kept(self):
        # A treasure on the +x axis is crossed at exactly t=2 by outbound
        # legs (see TestTravelDetection in test_events.py); a horizon of 2
        # must keep those finds.
        times = simulate_find_times_batch(
            NonUniformSearch(k=1), [World((2, 0))], 1, 200, seed=8, horizon=2.0
        )
        finite = times[np.isfinite(times)]
        assert finite.size > 0
        assert np.all(finite == 2.0)

    def test_start_delays_shift_single_agent_times_exactly(self):
        worlds = [place_treasure(10, "offaxis"), place_treasure(20, "offaxis")]
        plain = simulate_find_times_batch(
            NonUniformSearch(k=1), worlds, 1, 30, seed=9
        )
        delayed = simulate_find_times_batch(
            NonUniformSearch(k=1), worlds, 1, 30, seed=9,
            start_delays=np.array([7.0]),
        )
        finite = np.isfinite(plain)
        assert np.array_equal(delayed[finite], plain[finite] + 7.0)

    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError):
            simulate_find_times_batch(
                NonUniformSearch(k=1), [World((3, 0))], 1, 5, seed=0,
                start_delays=np.array([-1.0]),
            )


class TestValidation:
    def test_rejects_bad_counts(self):
        worlds = [World((2, 2))]
        with pytest.raises(ValueError):
            simulate_find_times_batch(NonUniformSearch(k=1), worlds, 0, 5, seed=0)
        with pytest.raises(ValueError):
            simulate_find_times_batch(NonUniformSearch(k=1), worlds, 1, 0, seed=0)

    def test_rejects_empty_worlds(self):
        with pytest.raises(ValueError):
            simulate_find_times_batch(NonUniformSearch(k=1), [], 1, 5, seed=0)

    def test_rejects_treasure_on_source(self):
        with pytest.raises(ValueError):
            simulate_find_times_batch(
                NonUniformSearch(k=1), [(0, 0), (3, 1)], 1, 5, seed=0
            )

    def test_rejects_non_integral_treasures(self):
        # Truncating would silently simulate a different node; for
        # [[0.4, 0.2]] it would land on the source.
        for worlds in (np.array([[2.5, 0.0]]), [(0.4, 0.2)], [(3, np.nan)]):
            with pytest.raises(ValueError, match="integers"):
                simulate_find_times_batch(
                    NonUniformSearch(k=1), worlds, 1, 5, seed=0
                )
        with pytest.raises(ValueError, match="integers"):
            simulate_find_times(NonUniformSearch(k=1), World((2.7, 0)), 1, 5)

    def test_accepts_integer_valued_floats(self):
        floats = simulate_find_times_batch(
            NonUniformSearch(k=2), np.array([[5.0, -3.0]]), 2, 20, seed=4
        )
        ints = simulate_find_times_batch(
            NonUniformSearch(k=2), [(5, -3)], 2, 20, seed=4
        )
        assert np.array_equal(floats, ints)

    def test_max_phases_guard(self):
        worlds = [place_treasure(10**6, "corner")]
        with pytest.raises(RuntimeError):
            simulate_find_times_batch(
                NonUniformSearch(k=1), worlds, 1, 2, seed=7, max_phases=5
            )
