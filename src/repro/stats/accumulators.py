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
* :class:`P2Quantile` — the P² marker algorithm: one streaming quantile
  in O(1) state (stream-only: P² state is not mergeable, by construction);
* :class:`ReservoirSample` — bounded uniform subsample of the stream,
  mergeable, the basis for bootstrap confidence intervals and arbitrary
  quantiles;
* :class:`FindTimeAccumulator` — the composite the sweep stack uses: it
  understands censoring (non-finite times, or times past a horizon) and
  produces a :class:`FindTimeSummary` with the truncated mean, its CI
  half-width, the success rate with a Wilson interval, and the censored
  fraction.  A censored mean is a *lower bound* on the true expectation;
  the summary says so (`is_lower_bound`) instead of hiding it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "normal_quantile",
    "wilson_interval",
    "StreamingMoments",
    "SuccessCounter",
    "P2Quantile",
    "ReservoirSample",
    "FindTimeSummary",
    "FindTimeAccumulator",
    "summarize_times",
]


@functools.lru_cache(maxsize=None)
def normal_quantile(p: float) -> float:
    """Standard normal quantile ``Phi^-1(p)``.

    Uses ``scipy`` when available (the repository's CI installs it) and
    falls back to the Acklam rational approximation (|error| < 1.2e-9)
    so the stats subsystem never hard-depends on scipy.  Memoised: it is
    a pure function of ``p``, and every summary asks for the same one or
    two confidence levels (a ``norm.ppf`` call costs ~0.1 ms).
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    try:
        from scipy import stats as _stats

        return float(_stats.norm.ppf(p))
    except ImportError:
        return _acklam_ppf(p)


def _acklam_ppf(p: float) -> float:
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        return -_acklam_ppf(1 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def wilson_interval(
    successes: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at the extremes — which
    is where success-probability curves (Theorem 5.1) and crash-hazard
    cliffs (E11) live.  This is the canonical implementation;
    :func:`repro.analysis.estimators.wilson_interval` delegates here.
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
    return max(0.0, centre - margin), min(1.0, centre + margin)


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


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac 1985).

    Tracks one quantile ``q`` with five markers in O(1) state; below five
    observations the exact empirical quantile of the buffer is returned.
    P² state is *order-dependent* and not mergeable — use
    :class:`ReservoirSample` where merge is required (the composite
    accumulator does).
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rate", "_buffer")

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._buffer: list = []
        self._heights: Optional[np.ndarray] = None
        self._positions = np.arange(1, 6, dtype=np.float64)
        self._desired = np.array(
            [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0], dtype=np.float64
        )
        self._rate = np.array([0.0, q / 2, q, (1 + q) / 2, 1.0], dtype=np.float64)

    @property
    def count(self) -> int:
        if self._heights is None:
            return len(self._buffer)
        return int(self._positions[4])

    def update(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"P2 requires finite values, got {value}")
        if self._heights is None:
            self._buffer.append(value)
            if len(self._buffer) == 5:
                self._heights = np.sort(np.asarray(self._buffer, dtype=np.float64))
                self._buffer = []
            return
        h = self._heights
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = int(np.searchsorted(h, value, side="right")) - 1
            cell = min(max(cell, 0), 3)
        self._positions[cell + 1:] += 1
        self._desired += self._rate
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            below = self._positions[i] - self._positions[i - 1]
            above = self._positions[i + 1] - self._positions[i]
            if (d >= 1 and above > 1) or (d <= -1 and below > 1):
                step = 1.0 if d >= 1 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # fall back to linear interpolation
                    j = i + int(step)
                    h[i] += step * (h[j] - h[i]) / (
                        self._positions[j] - self._positions[i]
                    )
                self._positions[i] += step

    def update_block(self, values) -> None:
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.update(value)

    def _parabolic(self, i: int, step: float) -> float:
        n = self._positions
        h = self._heights
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    @property
    def value(self) -> float:
        """Current quantile estimate (``nan`` before any observation)."""
        if self._heights is not None:
            return float(self._heights[2])
        if not self._buffer:
            return math.nan
        ordered = sorted(self._buffer)
        idx = min(int(self.q * (len(ordered) - 1) + 0.5), len(ordered) - 1)
        return float(ordered[idx])


class ReservoirSample:
    """Bounded uniform subsample of a stream (Vitter's algorithm R).

    Holds at most ``capacity`` values; after ``seen`` observations each
    one is retained with probability ``capacity / seen``.  ``merge``
    draws a weighted subsample from the union, so merged reservoirs stay
    (approximately) exchangeable with a single-pass reservoir over the
    concatenated stream.  Randomness is owned by the accumulator (seeded
    at construction) so results are reproducible.
    """

    __slots__ = ("capacity", "seen", "_values", "_rng")

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self._values: list = []
        self._rng = np.random.default_rng(seed)

    def update(self, value: float) -> None:
        self.seen += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        j = int(self._rng.integers(0, self.seen))
        if j < self.capacity:
            self._values[j] = float(value)

    def update_block(self, values) -> None:
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.update(value)

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Weighted subsample of the union of both reservoirs (in place)."""
        if other.seen == 0:
            return self
        if self.seen == 0:
            self.seen = other.seen
            self._values = list(other._values)
            if len(self._values) > self.capacity:
                # The donor may be wider than this reservoir; subsample
                # down so the capacity invariant (and uniformity) holds.
                chosen = self._rng.choice(
                    len(self._values), size=self.capacity, replace=False
                )
                self._values = [self._values[i] for i in chosen]
            return self
        mine = np.asarray(self._values, dtype=np.float64)
        theirs = np.asarray(other._values, dtype=np.float64)
        pool = np.concatenate([mine, theirs])
        # Each retained value represents seen/len(values) stream items.
        weights = np.concatenate(
            [
                np.full(mine.size, self.seen / mine.size),
                np.full(theirs.size, other.seen / theirs.size),
            ]
        )
        weights = weights / weights.sum()
        keep = min(self.capacity, pool.size)
        chosen = self._rng.choice(pool.size, size=keep, replace=False, p=weights)
        self._values = [float(v) for v in pool[chosen]]
        self.seen += other.seen
        return self

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def quantile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return math.nan
        return float(np.quantile(self.values, q))

    def bootstrap_mean_ci(
        self, confidence: float = 0.95, n_boot: int = 1000
    ) -> Tuple[float, float]:
        """Percentile-bootstrap CI for the mean, from the reservoir."""
        if not 0 < confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        data = self.values
        if data.size == 0:
            return (math.nan, math.nan)
        if data.size == 1:
            return (float(data[0]), float(data[0]))
        idx = self._rng.integers(0, data.size, size=(n_boot, data.size))
        boot = data[idx].mean(axis=1)
        lo, hi = np.quantile(boot, [(1 - confidence) / 2, (1 + confidence) / 2])
        return float(lo), float(hi)


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
    quantiles: Dict[float, float]

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
    from disjoint blocks merge into the accumulator of the union (the
    reservoir merge is a weighted resample; everything else is exact).
    """

    def __init__(
        self,
        horizon: Optional[float] = None,
        confidence: float = 0.95,
        reservoir_capacity: int = 0,
        reservoir_seed: int = 0,
        quantiles: Sequence[float] = (),
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
        self.reservoir = (
            ReservoirSample(reservoir_capacity, seed=reservoir_seed)
            if reservoir_capacity
            else None
        )
        self._quantile_qs = tuple(float(q) for q in quantiles)

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
        if self.reservoir is not None:
            self.reservoir.update_block(observed)

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
        if self.reservoir is not None and other.reservoir is not None:
            self.reservoir.merge(other.reservoir)
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
        quantiles: Dict[float, float] = {}
        if self.reservoir is not None:
            for q in self._quantile_qs:
                quantiles[q] = self.reservoir.quantile(q)
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
            quantiles=quantiles,
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
