"""Backoff for waits that try again: jittered and capped.

The cache lock polls on this schedule, so backoff behaviour is tuned
in exactly one place.  The jitter source is the monotonic clock's
sub-millisecond residue: cheap, free of any RNG stream, and
structurally incapable of reaching seed derivation (backoff timing is
execution layout; rule R004 keeps the vocabulary out of specs).
"""

from __future__ import annotations

import time
from typing import Iterator

__all__ = ["backoff_delays"]

#: Fraction of each delay randomised away by jitter (de-synchronises
#: herds of writers polling one lockfile).
_JITTER_FRACTION = 0.25


def _jitter(delay: float) -> float:
    """Shave up to ``_JITTER_FRACTION`` of ``delay``, clock-derived."""
    residue = (time.monotonic_ns() % 1_000_000) / 1_000_000.0
    return delay * (1.0 - _JITTER_FRACTION * residue)


def backoff_delays(
    *, attempts: int, base_delay: float, max_delay: float
) -> Iterator[float]:
    """The sleep before each retry: exponential, capped, jittered.

    Yields ``attempts - 1`` delays (nothing precedes the first attempt).
    Callers that loop on a deadline rather than an attempt budget pass
    ``attempts=None``-like large counts and break out themselves.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts!r}")
    if base_delay < 0 or max_delay < 0:
        raise ValueError("delays must be >= 0")
    delay = base_delay
    for _ in range(attempts - 1):
        yield _jitter(min(delay, max_delay))
        delay *= 2.0
