"""Hand-computed cases for the find-time estimators in repro.stats.

The truncated mean and the success rate are read off
:func:`repro.stats.summarize_times`, the censoring rule every sweep cell
uses: with a horizon, a trial that never finds (or finds past the
horizon) is pinned at the horizon and counts as a failure.
"""

import math

import pytest

from repro.stats import summarize_times, wilson_interval


class TestTruncatedMean:
    def test_clips_inf_at_horizon(self):
        tm = summarize_times([10.0, math.inf], horizon=100)
        assert tm.mean == pytest.approx(55.0)
        assert tm.censored_fraction == pytest.approx(0.5)
        assert tm.is_lower_bound

    def test_no_censoring(self):
        tm = summarize_times([1.0, 2.0], horizon=10)
        assert tm.mean == pytest.approx(1.5)
        assert not tm.is_lower_bound

    def test_values_beyond_horizon_clipped(self):
        tm = summarize_times([5.0, 200.0], horizon=100)
        assert tm.mean == pytest.approx(52.5)
        assert tm.censored_fraction == pytest.approx(0.5)


class TestSuccessRate:
    def test_counts_finite_within_horizon(self):
        s = summarize_times([1.0, math.inf, 50.0], horizon=10)
        assert s.success_rate == pytest.approx(1 / 3)

    def test_no_horizon_counts_all_finite(self):
        assert summarize_times([1.0, math.inf]).success_rate == pytest.approx(0.5)


class TestWilson:
    def test_contains_mle(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_extremes_stay_in_unit_interval(self):
        # The closed form reaches 0 and 1 only by cancellation, which
        # leaves a few ULP over for most n and confidence levels.
        for confidence in (0.9, 0.95, 0.99):
            for n in range(1, 400):
                lo, hi = wilson_interval(0, n, confidence)
                assert lo == 0.0 and hi > 0, (n, confidence)
                lo, hi = wilson_interval(n, n, confidence)
                assert hi == 1.0 and lo < 1, (n, confidence)

    def test_narrows_with_n(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
