"""Mergeable streaming accumulators for find-time statistics.

The adaptive sweep runner (:mod:`repro.sweep.runner`) consumes find times
in *blocks* — it never holds a cell's full sample in one place at one
time, and cached blocks from earlier runs must combine with freshly
simulated ones.  Every accumulator here therefore supports

* ``update`` / ``update_block`` — fold one value or a NumPy block into
  the running state in O(1) memory, and
* ``merge`` — combine two accumulators built from disjoint sample parts
  into the accumulator of the union (associative and commutative up to
  floating-point rounding),

so per-block, per-worker and per-run partial states all compose.  The
pieces:

* :class:`StreamingMoments` — Welford/Chan mean and variance;
* :class:`SuccessCounter` — binomial counts with Wilson score intervals
  (:func:`wilson_interval` is the module-level closed form);
* :class:`FindTimeAccumulator` — the composite the sweep stack uses: it
  understands censoring (non-finite times, or times past a horizon) and
  produces a :class:`FindTimeSummary` with the truncated mean, its CI
  half-width, the success rate with a Wilson interval, and the censored
  fraction.  A censored mean is a *lower bound* on the true expectation;
  the summary says so (`is_lower_bound`) instead of hiding it.

The layer needs NumPy and the standard library only: its normal quantile
is ``statistics.NormalDist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "normal_quantile",
    "wilson_interval",
    "StreamingMoments",
    "SuccessCounter",
    "FindTimeSummary",
    "FindTimeAccumulator",
    "summarize_times",
]

_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile ``Phi^-1(p)``.

    The standard library's ``NormalDist().inv_cdf`` (Wichura's AS241):
    within a few ULP of the exact value over ``p in [1e-15, 1 - 1e-15]``
    and under a microsecond a call, so the stats subsystem needs NumPy
    alone.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def wilson_interval(
    successes: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at the extremes — which
    is where success-probability curves (Theorem 5.1) and crash-hazard
    cliffs (E11) live.  At ``successes`` of 0 or ``total`` the interval's
    own endpoint is exactly 0 or 1: the closed form reaches it only by
    floating-point cancellation, which leaves a few ULP over.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= successes <= total:
        raise ValueError(f"need 0 <= successes <= total, got {successes}/{total}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = normal_quantile((1 + confidence) / 2)
    p = successes / total
    denom = 1 + z * z / total
    centre = (p + z * z / (2 * total)) / denom
    margin = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - margin)
    hi = 1.0 if successes == total else min(1.0, centre + margin)
    return lo, hi


class StreamingMoments:
    """Streaming mean/variance (Welford updates, Chan pairwise merge).

    ``update`` folds one value, ``update_block`` a whole NumPy block (as
    one Chan combine, so a block costs one pass), ``merge`` combines two
    accumulators over disjoint samples.  All values must be finite — the
    censoring policy belongs to :class:`FindTimeAccumulator`, not here.
    """

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"moments require finite values, got {value}")
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def update_block(self, values) -> None:
        block = np.asarray(values, dtype=np.float64).ravel()
        if block.size == 0:
            return
        if not np.all(np.isfinite(block)):
            raise ValueError("moments require finite values")
        mean = float(block.mean())
        m2 = float(np.sum((block - mean) ** 2))
        self._combine(int(block.size), mean, m2)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold ``other`` into this accumulator (in place); returns self."""
        self._combine(other.count, other._mean, other._m2)
        return self

    def copy(self) -> "StreamingMoments":
        clone = StreamingMoments()
        clone.count, clone._mean, clone._m2 = self.count, self._mean, self._m2
        return clone

    def _combine(self, count: int, mean: float, m2: float) -> None:
        if count == 0:
            return
        total = self.count + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self.count * count / total
        self._mean += delta * count / total
        self.count = total

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance; ``nan`` below two observations."""
        if self.count < 2:
            return math.nan
        return max(0.0, self._m2) / (self.count - 1)

    @property
    def stderr(self) -> float:
        variance = self.variance
        if math.isnan(variance):
            return math.nan
        return math.sqrt(variance / self.count)

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Normal-theory CI half-width of the mean; ``nan`` below n=2."""
        stderr = self.stderr
        if math.isnan(stderr):
            return math.nan
        return normal_quantile((1 + confidence) / 2) * stderr


class SuccessCounter:
    """Binomial success/total counts with Wilson score intervals."""

    __slots__ = ("successes", "total")

    def __init__(self, successes: int = 0, total: int = 0) -> None:
        if total < 0 or not 0 <= successes <= max(total, 0):
            raise ValueError(f"need 0 <= successes <= total, got {successes}/{total}")
        self.successes = int(successes)
        self.total = int(total)

    def update(self, success: bool) -> None:
        self.successes += bool(success)
        self.total += 1

    def update_block(self, successes: int, total: int) -> None:
        if total < 0 or not 0 <= successes <= total:
            raise ValueError(f"need 0 <= successes <= total, got {successes}/{total}")
        self.successes += int(successes)
        self.total += int(total)

    def merge(self, other: "SuccessCounter") -> "SuccessCounter":
        self.successes += other.successes
        self.total += other.total
        return self

    def copy(self) -> "SuccessCounter":
        return SuccessCounter(self.successes, self.total)

    @property
    def rate(self) -> float:
        return self.successes / self.total if self.total else math.nan

    def wilson(self, confidence: float = 0.95) -> Tuple[float, float]:
        if self.total == 0:
            return (0.0, 1.0)
        return wilson_interval(self.successes, self.total, confidence)


@dataclass(frozen=True)
class FindTimeSummary:
    """Point-in-time view of a :class:`FindTimeAccumulator`.

    ``mean`` is the truncated mean when a horizon is set (censored trials
    pinned at the horizon — a *lower bound* on the true expectation
    whenever ``censored_fraction > 0``) and the mean over finding trials
    otherwise.  ``rel_ci`` is ``ci_halfwidth / mean`` — the quantity the
    ``target_rel_ci`` budget policy drives to its target — and is ``inf``
    whenever the CI is undefined (fewer than two observations).
    """

    count: int
    mean: float
    stderr: float
    ci_halfwidth: float
    rel_ci: float
    confidence: float
    success_rate: float
    wilson_low: float
    wilson_high: float
    censored_fraction: float
    horizon: Optional[float]

    @property
    def is_lower_bound(self) -> bool:
        """True when censoring occurred: the true mean is at least ``mean``."""
        return self.censored_fraction > 0


class FindTimeAccumulator:
    """Composite streaming accumulator for blocks of find times.

    Consumes ``(block,)`` float arrays as produced by the simulation
    engines, where a non-finite entry means "never found".  With a finite
    ``horizon``, censored entries (non-finite or past the horizon) are
    pinned *at* the horizon before entering the moments — the truncated
    mean, a valid lower bound on the true expectation.  Without a horizon
    only finding trials enter the moments and the censored fraction keeps
    the defect visible.

    Mergeable: two accumulators with the same horizon/confidence built
    from disjoint blocks merge into the accumulator of the union.
    """

    def __init__(
        self, horizon: Optional[float] = None, confidence: float = 0.95
    ) -> None:
        if horizon is not None and (not math.isfinite(horizon) or horizon <= 0):
            horizon = None if horizon == math.inf else horizon
            if horizon is not None:
                raise ValueError(f"horizon must be positive, got {horizon}")
        if not 0 < confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self.horizon = float(horizon) if horizon is not None else None
        self.confidence = float(confidence)
        self.count = 0
        self.censored = 0
        self.moments = StreamingMoments()
        self.successes = SuccessCounter()

    def update(self, times) -> None:
        block = np.asarray(times, dtype=np.float64).ravel()
        if block.size == 0:
            return
        if self.horizon is not None:
            found = np.isfinite(block) & (block <= self.horizon)
            observed = np.where(found, block, self.horizon)
        else:
            found = np.isfinite(block)
            observed = block[found]
        self.count += int(block.size)
        self.censored += int(block.size - found.sum())
        self.moments.update_block(observed)
        self.successes.update_block(int(found.sum()), int(block.size))

    def merge(self, other: "FindTimeAccumulator") -> "FindTimeAccumulator":
        if (self.horizon, self.confidence) != (other.horizon, other.confidence):
            raise ValueError(
                "can only merge accumulators with identical horizon and "
                f"confidence; got {(self.horizon, self.confidence)} vs "
                f"{(other.horizon, other.confidence)}"
            )
        self.count += other.count
        self.censored += other.censored
        self.moments.merge(other.moments)
        self.successes.merge(other.successes)
        return self

    def summary(self) -> FindTimeSummary:
        mean = self.moments.mean
        stderr = self.moments.stderr
        ci = self.moments.ci_halfwidth(self.confidence)
        if math.isnan(ci) or not math.isfinite(mean) or mean <= 0:
            rel_ci = math.inf
        else:
            rel_ci = ci / mean
        wilson_low, wilson_high = self.successes.wilson(self.confidence)
        return FindTimeSummary(
            count=self.count,
            mean=mean,
            stderr=stderr,
            ci_halfwidth=ci,
            rel_ci=rel_ci,
            confidence=self.confidence,
            success_rate=self.successes.rate if self.count else math.nan,
            wilson_low=wilson_low,
            wilson_high=wilson_high,
            censored_fraction=self.censored / self.count if self.count else 0.0,
            horizon=self.horizon,
        )


def summarize_times(
    times,
    horizon: Optional[float] = None,
    confidence: float = 0.95,
) -> FindTimeSummary:
    """One-shot summary of a find-time sample (the non-streaming door)."""
    acc = FindTimeAccumulator(horizon=horizon, confidence=confidence)
    acc.update(times)
    return acc.summary()
