"""Tests for the exact square spiral (repro.core.spiral).

The closed-form hit time and its inverse are the foundation of the fast
engine, so they are verified exhaustively against the step generator.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spiral import (
    SAFE_OFFSET,
    best_hit_time_at_distance,
    coverage_radius,
    ring_entry_time_array,
    spiral_cells,
    spiral_hit_time,
    spiral_hit_time_array,
    spiral_hit_time_float_array,
    spiral_position,
    spiral_position_array,
    spiral_steps,
    time_to_cover_radius,
    worst_hit_time_at_distance,
)

N_EXHAUSTIVE = 15000  # covers every cell within L1 radius ~60


@pytest.fixture(scope="module")
def generated_cells():
    return list(itertools.islice(spiral_cells(), N_EXHAUSTIVE))


class TestGenerator:
    def test_starts_at_origin(self, generated_cells):
        assert generated_cells[0] == (0, 0)

    def test_first_ten_cells(self, generated_cells):
        assert generated_cells[:10] == [
            (0, 0),
            (1, 0),
            (1, 1),
            (0, 1),
            (-1, 1),
            (-1, 0),
            (-1, -1),
            (0, -1),
            (1, -1),
            (2, -1),
        ]

    def test_unit_steps(self, generated_cells):
        for (x0, y0), (x1, y1) in zip(generated_cells, generated_cells[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_no_cell_revisited(self, generated_cells):
        assert len(set(generated_cells)) == len(generated_cells)

    def test_run_lengths_pattern(self):
        steps = list(itertools.islice(spiral_steps(), 12))
        assert steps == [
            (1, 0),
            (0, 1),
            (-1, 0),
            (-1, 0),
            (0, -1),
            (0, -1),
            (1, 0),
            (1, 0),
            (1, 0),
            (0, 1),
            (0, 1),
            (0, 1),
        ]


class TestHitTimeClosedForm:
    def test_matches_generator_exhaustively(self, generated_cells):
        for t, (x, y) in enumerate(generated_cells):
            assert spiral_hit_time(x, y) == t

    def test_origin(self):
        assert spiral_hit_time(0, 0) == 0

    def test_vectorised_matches_scalar(self, generated_cells):
        xs = np.array([c[0] for c in generated_cells])
        ys = np.array([c[1] for c in generated_cells])
        times = spiral_hit_time_array(xs, ys)
        assert np.array_equal(times, np.arange(len(generated_cells)))

    def test_vectorised_broadcasting(self):
        xs = np.array([[1, 0], [-1, 0]])
        ys = np.array([[0, 1], [0, -1]])
        times = spiral_hit_time_array(xs, ys)
        assert times.shape == (2, 2)
        assert times[0, 0] == 1 and times[1, 1] == 7

    def test_bijection_on_large_offsets(self):
        for x, y in [(1000, -999), (-512, 512), (123456, 7), (0, -10**6)]:
            t = spiral_hit_time(x, y)
            assert spiral_position(t) == (x, y)


class TestPositionInverse:
    def test_matches_generator_exhaustively(self, generated_cells):
        for t, cell in enumerate(generated_cells):
            assert spiral_position(t) == cell

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            spiral_position(-1)

    def test_vectorised_matches_scalar(self):
        ts = np.arange(0, 5000)
        xs, ys = spiral_position_array(ts)
        for t in (0, 1, 7, 100, 1234, 4999):
            assert (xs[t], ys[t]) == spiral_position(t)

    def test_vectorised_large_times(self):
        ts = np.array([10**12, 10**15, 4 * 10**17])
        xs, ys = spiral_position_array(ts)
        for t, x, y in zip(ts, xs, ys):
            assert spiral_position(int(t)) == (int(x), int(y))
            assert spiral_hit_time(int(x), int(y)) == int(t)


class TestCoverage:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 10, 25])
    def test_time_to_cover_radius_is_exact(self, d, generated_cells):
        t = time_to_cover_radius(d)
        covered = set(generated_cells[: t + 1])
        ball = {
            (x, y)
            for x in range(-d, d + 1)
            for y in range(-d, d + 1)
            if abs(x) + abs(y) <= d
        }
        assert ball <= covered
        if t > 0:
            # One step earlier the ball is NOT fully covered (tightness).
            assert not ball <= set(generated_cells[:t])

    @pytest.mark.parametrize("t", [0, 1, 7, 8, 27, 28, 100, 999, 10**6])
    def test_coverage_radius_inverts_cover_time(self, t):
        d = coverage_radius(t)
        assert time_to_cover_radius(d) <= t
        assert time_to_cover_radius(d + 1) > t

    def test_coverage_radius_asymptotics(self):
        # The paper's sqrt(t)/2 convention holds up to an additive constant.
        for t in [10**2, 10**4, 10**6, 10**8]:
            d = coverage_radius(t)
            assert abs(d - (t**0.5) / 2) <= 2 + t**0.5 / 50

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 10, 11])
    def test_worst_and_best_hit_times(self, d):
        ring = [(x, y) for x in range(-d, d + 1) for y in (d - abs(x), abs(x) - d)]
        ring = list({c for c in ring if abs(c[0]) + abs(c[1]) == d})
        times = [spiral_hit_time(x, y) for x, y in ring]
        assert max(times) == worst_hit_time_at_distance(d)
        assert min(times) == best_hit_time_at_distance(d)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            time_to_cover_radius(-1)
        with pytest.raises(ValueError):
            coverage_radius(-3)
        with pytest.raises(ValueError):
            best_hit_time_at_distance(-2)


class TestHitTimeProperties:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300)
    def test_round_trip(self, x, y):
        t = spiral_hit_time(x, y)
        assert t >= 0
        assert spiral_position(t) == (x, y)

    @given(st.integers(0, 10**12))
    @settings(max_examples=300)
    def test_inverse_round_trip(self, t):
        x, y = spiral_position(t)
        assert spiral_hit_time(x, y) == t

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_hit_time_within_ring_bounds(self, x, y):
        d = abs(x) + abs(y)
        t = spiral_hit_time(x, y)
        assert best_hit_time_at_distance(d) <= t <= worst_hit_time_at_distance(d)


class TestRingEntryBound:
    """The excursion kernel prunes spiral hits with ``ring_entry_time_array``
    before the exact closed form, so the bound must never exceed a hit time."""

    def test_exact_bound_and_equality_at_ring_entries(self):
        r = 512
        dx, dy = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
        hit = spiral_hit_time_array(dx, dy)
        bound = ring_entry_time_array(dx, dy)
        ring = np.maximum(np.abs(dx), np.abs(dy))
        assert np.array_equal(bound, np.maximum(2 * ring - 1, 0) ** 2)
        assert np.all(hit >= bound)
        # Equality exactly at the origin and at each ring's first cell
        # (m, 1 - m).
        m = np.arange(1, r + 1)
        tight = np.zeros(dx.shape, dtype=bool)
        tight[r, r] = True
        tight[r + 1 - m, r + m] = True  # row = dy + r, column = dx + r
        assert np.array_equal(hit == bound, tight)
        assert np.array_equal(
            spiral_hit_time_array(m, 1 - m), (2 * m - 1) ** 2
        )

    @given(
        ring=st.integers(SAFE_OFFSET - 2**16, 2**40),
        along=st.floats(-1.0, 1.0),
        side=st.integers(0, 3),
    )
    @settings(max_examples=300)
    def test_float_path_bound_with_slack(self, ring, along, side):
        # Far offsets resolve through the float closed form; the
        # kernel's 1 - 1e-12 slack must keep the pruning conservative,
        # including at the ring's first cell where the two are equal.
        other = int(along * ring)
        dx, dy = [(ring, other), (other, ring), (-ring, other),
                  (other, -ring)][side]
        for x, y in ((dx, dy), (ring, 1 - ring)):
            x, y = np.array([x]), np.array([y])
            hit = spiral_hit_time_float_array(x, y)
            assert np.all(ring_entry_time_array(x, y) * (1.0 - 1e-12) <= hit)
