"""Property tests for the streaming statistics subsystem (repro.stats).

The accumulators' contract is distributional: streaming in blocks, in any
grouping and order, must agree with a one-shot NumPy computation over the
concatenated sample.  Merge must be associative and commutative (up to
floating-point rounding), Wilson intervals must actually cover, and the
budget policies must be total orders on "done-ness".
"""

import math

import numpy as np
import pytest

from repro.stats import (
    BudgetPolicy,
    FindTimeAccumulator,
    StreamingMoments,
    SuccessCounter,
    normal_quantile,
    summarize_times,
    wilson_interval,
)


def random_blocks(rng, n_blocks=6, max_len=40, scale=100.0):
    """A list of random-length float blocks (some possibly empty)."""
    return [
        rng.exponential(scale, size=rng.integers(0, max_len))
        for _ in range(n_blocks)
    ]


class TestStreamingMoments:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_streaming_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng)
        data = np.concatenate(blocks)
        if data.size < 2:
            pytest.skip("degenerate draw")
        acc = StreamingMoments()
        for block in blocks:
            acc.update_block(block)
        assert acc.count == data.size
        assert acc.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert acc.variance == pytest.approx(
            float(data.var(ddof=1)), rel=1e-9
        )
        assert acc.stderr == pytest.approx(
            float(data.std(ddof=1) / math.sqrt(data.size)), rel=1e-9
        )

    def test_scalar_updates_match_block_update(self):
        rng = np.random.default_rng(7)
        data = rng.normal(50.0, 10.0, size=101)
        one_by_one = StreamingMoments()
        for value in data:
            one_by_one.update(value)
        blockwise = StreamingMoments()
        blockwise.update_block(data)
        assert one_by_one.mean == pytest.approx(blockwise.mean, rel=1e-12)
        assert one_by_one.variance == pytest.approx(
            blockwise.variance, rel=1e-10
        )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_merge_commutative_and_associative(self, seed):
        rng = np.random.default_rng(seed)
        parts = [rng.exponential(10.0, size=rng.integers(1, 30))
                 for _ in range(3)]

        def acc_of(*blocks):
            acc = StreamingMoments()
            for block in blocks:
                acc.update_block(block)
            return acc

        a, b, c = (acc_of(p) for p in parts)
        ab_c = acc_of(parts[0]).merge(acc_of(parts[1])).merge(acc_of(parts[2]))
        a_bc = acc_of(parts[0]).merge(
            acc_of(parts[1]).merge(acc_of(parts[2]))
        )
        ba = acc_of(parts[1]).merge(acc_of(parts[0]))
        ab = acc_of(parts[0]).merge(acc_of(parts[1]))
        direct = acc_of(*parts)
        for merged in (ab_c, a_bc):
            assert merged.count == direct.count
            assert merged.mean == pytest.approx(direct.mean, rel=1e-12)
            assert merged.variance == pytest.approx(direct.variance, rel=1e-9)
        assert ab.mean == pytest.approx(ba.mean, rel=1e-12)
        assert ab.variance == pytest.approx(ba.variance, rel=1e-9)

    def test_merge_with_empty_is_identity(self):
        acc = StreamingMoments()
        acc.update_block([1.0, 2.0, 3.0])
        before = (acc.count, acc.mean, acc.variance)
        acc.merge(StreamingMoments())
        assert (acc.count, acc.mean, acc.variance) == before
        empty = StreamingMoments()
        empty.merge(acc)
        assert empty.count == 3
        assert empty.mean == pytest.approx(2.0)

    def test_empty_and_single_sentinels(self):
        acc = StreamingMoments()
        assert math.isnan(acc.mean)
        acc.update(5.0)
        assert acc.mean == 5.0
        assert math.isnan(acc.variance)
        assert math.isnan(acc.stderr)
        assert math.isnan(acc.ci_halfwidth())

    def test_rejects_non_finite(self):
        acc = StreamingMoments()
        with pytest.raises(ValueError):
            acc.update(math.inf)
        with pytest.raises(ValueError):
            acc.update_block([1.0, math.nan])

    def test_ci_halfwidth_uses_normal_quantile(self):
        acc = StreamingMoments()
        acc.update_block([10.0, 12.0, 8.0, 11.0, 9.0])
        z = normal_quantile(0.975)
        assert acc.ci_halfwidth(0.95) == pytest.approx(z * acc.stderr)
        assert acc.ci_halfwidth(0.5) < acc.ci_halfwidth(0.99)


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [0.001, 0.025, 0.5, 0.9, 0.975, 0.999])
    def test_memoised_value_is_scipy_ppf(self, p):
        from scipy import stats

        normal_quantile.cache_clear()
        first = normal_quantile(p)
        assert first == float(stats.norm.ppf(p))
        assert normal_quantile(p) == first  # served from the cache
        assert normal_quantile.cache_info().hits >= 1

    def test_invalid_p_still_raises(self):
        with pytest.raises(ValueError):
            normal_quantile(1.0)
        with pytest.raises(ValueError):
            normal_quantile(0.0)

    def test_acklam_fallback_without_scipy(self, monkeypatch):
        from scipy import stats

        monkeypatch.setitem(__import__("sys").modules, "scipy", None)
        normal_quantile.cache_clear()
        try:
            for p in (0.01, 0.3, 0.975):
                value = normal_quantile(p)
                assert value == pytest.approx(
                    float(stats.norm.ppf(p)), rel=1.2e-9
                )
                assert value != float(stats.norm.ppf(p))  # not scipy's
        finally:
            normal_quantile.cache_clear()


class TestSuccessCounter:
    def test_counts_and_merge(self):
        a = SuccessCounter()
        for value in (True, False, True):
            a.update(value)
        b = SuccessCounter(successes=5, total=7)
        a.merge(b)
        assert (a.successes, a.total) == (7, 10)
        assert a.rate == pytest.approx(0.7)

    def test_wilson_coverage_smoke(self):
        # ~95% Wilson intervals over Bernoulli(p) samples should cover p
        # close to nominally; allow generous slack for a smoke test.
        rng = np.random.default_rng(0)
        for p in (0.1, 0.5, 0.9):
            covered = 0
            n_rep, n = 400, 50
            draws = rng.binomial(n, p, size=n_rep)
            for successes in draws:
                lo, hi = wilson_interval(int(successes), n)
                covered += lo <= p <= hi
            assert covered / n_rep >= 0.88, (p, covered / n_rep)

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessCounter(successes=5, total=3)
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(3, 2)


class TestFindTimeAccumulator:
    def test_matches_truncated_mean_and_success_rate(self):
        times = np.array([10.0, 50.0, np.inf, 120.0, np.inf, 30.0])
        horizon = 100.0
        acc = FindTimeAccumulator(horizon=horizon)
        acc.update(times)
        s = acc.summary()
        # Censored: inf, inf and 120 (past the horizon), pinned at 100.
        assert s.mean == pytest.approx((10 + 50 + 30 + 3 * 100) / 6, rel=1e-12)
        assert s.censored_fraction == pytest.approx(0.5)
        assert s.success_rate == pytest.approx(0.5)
        assert s.is_lower_bound
        assert s.count == times.size

    def test_block_streaming_equals_one_shot(self):
        rng = np.random.default_rng(8)
        times = rng.exponential(100.0, size=257)
        times[rng.random(257) < 0.1] = np.inf
        streamed = FindTimeAccumulator(horizon=300.0)
        for block in np.array_split(times, 7):
            streamed.update(block)
        assert streamed.summary().mean == pytest.approx(
            summarize_times(times, horizon=300.0).mean, rel=1e-12
        )
        assert streamed.summary().censored_fraction == pytest.approx(
            summarize_times(times, horizon=300.0).censored_fraction
        )

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(9)
        times = rng.exponential(100.0, size=200)
        left = FindTimeAccumulator(horizon=250.0)
        right = FindTimeAccumulator(horizon=250.0)
        left.update(times[:90])
        right.update(times[90:])
        left.merge(right)
        s = left.summary()
        direct = summarize_times(times, horizon=250.0)
        assert s.count == direct.count
        assert s.mean == pytest.approx(direct.mean, rel=1e-12)
        assert s.stderr == pytest.approx(direct.stderr, rel=1e-9)

    def test_merge_rejects_mismatched_horizon(self):
        with pytest.raises(ValueError):
            FindTimeAccumulator(horizon=10.0).merge(FindTimeAccumulator())

    def test_no_horizon_failures_stay_visible(self):
        acc = FindTimeAccumulator()
        acc.update([10.0, np.inf, 30.0])
        s = acc.summary()
        assert s.mean == pytest.approx(20.0)  # over finding trials only
        assert s.censored_fraction == pytest.approx(1.0 / 3.0)
        assert s.success_rate == pytest.approx(2.0 / 3.0)

    def test_rel_ci_drives_to_inf_when_undefined(self):
        acc = FindTimeAccumulator()
        assert math.isinf(acc.summary().rel_ci)
        acc.update([5.0])
        assert math.isinf(acc.summary().rel_ci)
        acc.update([6.0, 7.0, 8.0])
        assert math.isfinite(acc.summary().rel_ci)

    def test_wilson_bounds_in_summary(self):
        acc = FindTimeAccumulator(horizon=100.0)
        acc.update([10.0] * 90 + [np.inf] * 10)
        s = acc.summary()
        assert s.wilson_low <= s.success_rate <= s.wilson_high
        assert 0.0 <= s.wilson_low < s.wilson_high <= 1.0


class TestBudgetPolicy:
    def test_fixed_satisfaction(self):
        policy = BudgetPolicy.fixed(60)
        assert not policy.satisfied(59)
        assert policy.satisfied(60)
        assert policy.is_fixed

    def test_target_rel_ci_satisfaction(self):
        policy = BudgetPolicy.target_rel_ci(
            0.1, min_trials=32, max_trials=128
        )
        tight = summarize_times(np.full(64, 100.0) + np.arange(64) * 0.01)
        loose = summarize_times(np.concatenate([[1.0, 1e6], np.full(62, 100.0)]))
        assert not policy.satisfied(16, tight)  # below min_trials
        assert policy.satisfied(64, tight)
        assert not policy.satisfied(64, loose)
        assert policy.satisfied(128, loose)  # max_trials cap

    def test_wall_satisfaction(self):
        policy = BudgetPolicy.wall(2.0, min_trials=32, max_trials=128)
        assert not policy.satisfied(16, None, elapsed=10.0)
        assert not policy.satisfied(64, None, elapsed=1.0)
        assert policy.satisfied(64, None, elapsed=2.5)
        assert policy.satisfied(128, None, elapsed=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetPolicy.fixed(0)
        with pytest.raises(ValueError):
            BudgetPolicy.target_rel_ci(0.0)
        with pytest.raises(ValueError):
            BudgetPolicy.target_rel_ci(0.1, min_trials=100, max_trials=10)
        with pytest.raises(ValueError):
            BudgetPolicy.wall(0.0)
        with pytest.raises(ValueError):
            BudgetPolicy(kind="nonsense")

    @pytest.mark.parametrize(
        "policy",
        [
            BudgetPolicy.fixed(60),
            BudgetPolicy.target_rel_ci(0.05, min_trials=16, max_trials=512),
            BudgetPolicy.wall(3.5, min_trials=8, max_trials=64),
        ],
    )
    def test_dict_roundtrip(self, policy):
        assert BudgetPolicy.from_dict(policy.to_dict()) == policy

    def test_describe_mentions_kind(self):
        assert "fixed" in BudgetPolicy.fixed(3).describe()
        assert "target_rel_ci" in BudgetPolicy.target_rel_ci(0.1).describe()
        assert "wall" in BudgetPolicy.wall(1.0).describe()
