"""Exact square spiral search on the integer grid ``Z^2``.

The paper (footnote 1, Section 2) relies on a *spiral search* primitive: a
deterministic local search starting at a node ``v`` that, after traversing
``x`` edges, has visited every node within distance ``~ sqrt(x)/2`` of ``v``.
The paper explicitly allows any concrete procedure with this asymptotic
guarantee.

This module implements the canonical counter-clockwise square spiral (an
"Ulam" spiral) with run lengths ``1, 1, 2, 2, 3, 3, ...`` and direction cycle
``E, N, W, S``.  Every cell of ``Z^2`` is visited exactly once, and the cell
first entered on step ``t`` is said to have *hit time* ``t`` (the origin has
hit time ``0``).

Three exact primitives are provided, each in scalar and vectorised form:

``spiral_hit_time(dx, dy)``
    Closed-form O(1) first-visit time of the cell at offset ``(dx, dy)``
    relative to the spiral's start.

``spiral_position(t)``
    Inverse map: the offset of the cell first entered at step ``t``.

``coverage_radius(t)`` / ``time_to_cover_radius(d)``
    The guarantee actually achieved by this spiral: after ``t`` steps all
    cells within L1 distance ``d`` are visited iff ``4*d^2 + 3*d <= t``,
    i.e. the coverage radius is ``sqrt(t)/2 - O(1)``, matching the paper's
    assumption up to an additive constant (documented in DESIGN.md).

Derivation of the closed form
-----------------------------

Runs are indexed ``r = 1, 2, 3, ...`` with direction ``(r-1) mod 4`` from
``[E, N, W, S]`` and length ``ceil(r/2)``.  Writing ``j >= 0``:

* E-run ``r = 4j+1`` sweeps ``y = -j``, ``x`` from ``-j+1`` to ``j+1``;
  the cell ``(x, -j)`` is entered at step ``4j^2 + 3j + x`` ... with
  ``j = -y`` this is ``4*y^2 - 3*y + x``.
* N-run ``r = 4j+2`` sweeps ``x = j+1``, ``y`` from ``-j+1`` to ``j+1``;
  hit time ``4*x^2 - 3*x + y``.
* W-run ``r = 4j+3`` sweeps ``y = j+1``, ``x`` from ``j`` down to ``-j-1``;
  hit time ``4*y^2 - y - x``.
* S-run ``r = 4j+4`` sweeps ``x = -j-1``, ``y`` from ``j`` down to ``-j-1``;
  hit time ``4*x^2 - x - y``.

The four sweep families partition ``Z^2 \\ {origin}``; the branch conditions
below select the correct family.  Tests verify the formulas exhaustively
against the step generator for every offset within radius 60.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "SPIRAL_DIRECTIONS",
    "spiral_steps",
    "spiral_cells",
    "spiral_hit_time",
    "spiral_hit_time_array",
    "spiral_position",
    "spiral_position_array",
    "coverage_radius",
    "time_to_cover_radius",
    "worst_hit_time_at_distance",
    "best_hit_time_at_distance",
]

#: Direction cycle of the canonical spiral: East, North, West, South.
SPIRAL_DIRECTIONS: Tuple[Tuple[int, int], ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def spiral_steps() -> Iterator[Tuple[int, int]]:
    """Yield the infinite sequence of unit moves of the canonical spiral.

    The n-th yielded pair is the move taken on step ``n+1``.  Run lengths
    follow the pattern 1, 1, 2, 2, 3, 3, ... with directions cycling
    E, N, W, S.
    """
    run = 0
    while True:
        run += 1
        direction = SPIRAL_DIRECTIONS[(run - 1) % 4]
        for _ in range((run + 1) // 2):
            yield direction


def spiral_cells() -> Iterator[Tuple[int, int]]:
    """Yield the spiral's cells in visit order, starting with ``(0, 0)``.

    The cell yielded at index ``t`` (0-based) is the cell whose hit time is
    ``t``; equivalently ``spiral_position(t)``.
    """
    x, y = 0, 0
    yield x, y
    for dx, dy in spiral_steps():
        x += dx
        y += dy
        yield x, y


def spiral_hit_time(dx: int, dy: int) -> int:
    """Return the exact step at which the spiral first visits offset ``(dx, dy)``.

    The spiral starts at offset ``(0, 0)`` at time 0 and traverses one grid
    edge per time unit.  ``spiral_hit_time(0, 0) == 0``.

    This is an O(1) closed form; see the module docstring for the derivation.
    """
    x, y = dx, dy
    if x == 0 and y == 0:
        return 0
    if y <= 0 and y + 1 <= x <= 1 - y:
        # East sweep along y = -j.
        return 4 * y * y - 3 * y + x
    if x >= 1 and 2 - x <= y <= x:
        # North sweep along x = j + 1.
        return 4 * x * x - 3 * x + y
    if y >= 1 and -y <= x <= y - 1:
        # West sweep along y = j + 1.
        return 4 * y * y - y - x
    # South sweep along x = -j - 1 (x <= -1 and x <= y <= -1 - x).
    return 4 * x * x - x - y


#: Largest |offset| for which the int64 closed form cannot overflow
#: (4 * x^2 fits comfortably below 2^63 for |x| <= 2^30).
SAFE_OFFSET = 2**30


def spiral_hit_time_array(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Vectorised :func:`spiral_hit_time` for integer numpy arrays.

    Exact (``int64``) for offsets with ``|dx|, |dy| <= SAFE_OFFSET``;
    larger offsets would overflow, so route those through
    :func:`spiral_hit_time_float_array` instead.
    """
    x = np.asarray(dx, dtype=np.int64)
    y = np.asarray(dy, dtype=np.int64)
    if np.any(np.abs(x) > SAFE_OFFSET) or np.any(np.abs(y) > SAFE_OFFSET):
        raise OverflowError(
            f"offsets beyond {SAFE_OFFSET} overflow int64; "
            f"use spiral_hit_time_float_array"
        )
    east = (y <= 0) & (y + 1 <= x) & (x <= 1 - y)
    north = (x >= 1) & (2 - x <= y) & (y <= x)
    west = (y >= 1) & (-y <= x) & (x <= y - 1)
    # The remaining cells (other than the origin) are on south sweeps.
    origin = (x == 0) & (y == 0)
    t_east = 4 * y * y - 3 * y + x
    t_north = 4 * x * x - 3 * x + y
    t_west = 4 * y * y - y - x
    t_south = 4 * x * x - x - y
    out = np.select([origin, east, north, west], [0, t_east, t_north, t_west], t_south)
    return out


def spiral_hit_time_float_array(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The hit-time closed form in float64, safe for arbitrarily far offsets.

    Relative error is at most a few ULPs (~1e-16); used by the excursion
    engine for the astronomically distant draws a heavy-tailed sampler can
    produce, where absolute exactness is irrelevant but overflow would
    corrupt minima.
    """
    x = np.asarray(dx, dtype=np.float64)
    y = np.asarray(dy, dtype=np.float64)
    east = (y <= 0) & (y + 1 <= x) & (x <= 1 - y)
    north = (x >= 1) & (2 - x <= y) & (y <= x)
    west = (y >= 1) & (-y <= x) & (x <= y - 1)
    origin = (x == 0) & (y == 0)
    t_east = 4.0 * y * y - 3.0 * y + x
    t_north = 4.0 * x * x - 3.0 * x + y
    t_west = 4.0 * y * y - y - x
    t_south = 4.0 * x * x - x - y
    return np.select(
        [origin, east, north, west], [0.0, t_east, t_north, t_west], t_south
    )


def ring_entry_time_array(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Lower bound on the hit time, in float64: ``(2m - 1)^2`` for ring ``m``.

    The spiral first enters L-inf ring ``m = max(|dx|, |dy|) >= 1`` at
    exactly step ``(2m - 1)^2`` (at offset ``(m, 1 - m)``), so no offset
    of that ring is hit earlier; the origin gives 0.  Cheaper than the
    exact closed form, and float64 so far offsets cannot overflow.
    """
    ring = np.maximum(np.abs(dx), np.abs(dy))
    reach = np.maximum(2.0 * ring - 1.0, 0.0)
    return reach * reach


def _position_after_odd_run(q: int) -> Tuple[int, int]:
    """Position after run ``2q + 1`` (an E- or W-run), ``q >= 0``."""
    if q % 2 == 0:
        return q // 2 + 1, -(q // 2)
    return -((q + 1) // 2), (q + 1) // 2


def _position_after_even_run(q: int) -> Tuple[int, int]:
    """Position after run ``2q`` (an N- or S-run), ``q >= 1``."""
    if q % 2 == 1:
        return (q + 1) // 2, (q + 1) // 2
    return -(q // 2), -(q // 2)


def spiral_position(t: int) -> Tuple[int, int]:
    """Return the offset of the cell whose hit time is ``t`` (O(1)).

    Inverse of :func:`spiral_hit_time`: ``spiral_position(spiral_hit_time(x, y))
    == (x, y)`` for every cell, and ``spiral_hit_time(*spiral_position(t)) == t``
    for every ``t >= 0``.
    """
    if t < 0:
        raise ValueError(f"spiral time must be non-negative, got {t}")
    if t == 0:
        return 0, 0
    v = math.isqrt(t)
    # Step-count boundaries: after odd run 2v-1 the total is v*v; after even
    # run 2v it is v*v + v; after odd run 2v+1 it is (v+1)^2.
    if t == v * v:
        return _position_after_odd_run(v - 1)
    if t <= v * v + v:
        # Inside even run 2v (N-run for odd v, S-run for even v).
        x0, y0 = _position_after_odd_run(v - 1)
        steps = t - v * v
        if v % 2 == 1:
            return x0, y0 + steps
        return x0, y0 - steps
    # Inside odd run 2v+1 (E-run for even v, W-run for odd v).
    x0, y0 = _position_after_even_run(v)
    steps = t - v * v - v
    if v % 2 == 0:
        return x0 + steps, y0
    return x0 - steps, y0


def spiral_position_array(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`spiral_position`.

    Returns a pair of ``int64`` arrays ``(x, y)`` with the same shape as
    ``t``.
    """
    t = np.asarray(t, dtype=np.int64)
    if np.any(t < 0):
        raise ValueError("spiral times must be non-negative")
    v = np.asarray(np.floor(np.sqrt(t.astype(np.float64))), dtype=np.int64)
    # Guard against floating-point error around perfect squares.
    v = np.where((v + 1) * (v + 1) <= t, v + 1, v)
    v = np.where(v * v > t, v - 1, v)

    # Position after odd run 2q+1 with q = v - 1 (valid for v >= 1).
    q = v - 1
    q_even = q % 2 == 0
    ox = np.where(q_even, q // 2 + 1, -((q + 1) // 2))
    oy = np.where(q_even, -(q // 2), (q + 1) // 2)

    # Position after even run 2v.
    v_odd = v % 2 == 1
    ex = np.where(v_odd, (v + 1) // 2, -(v // 2))
    ey = np.where(v_odd, (v + 1) // 2, -(v // 2))

    in_even_run = (t > v * v) & (t <= v * v + v)
    in_odd_run = t > v * v + v

    steps_even = t - v * v
    steps_odd = t - v * v - v

    x = ox.copy()
    y = oy.copy()
    # Even run 2v: N for odd v, S for even v.
    x = np.where(in_even_run, ox, x)
    y = np.where(in_even_run, np.where(v_odd, oy + steps_even, oy - steps_even), y)
    # Odd run 2v+1: E for even v, W for odd v.
    x = np.where(in_odd_run, np.where(v_odd, ex - steps_odd, ex + steps_odd), x)
    y = np.where(in_odd_run, ey, y)
    # Origin.
    x = np.where(t == 0, 0, x)
    y = np.where(t == 0, 0, y)
    return x, y


def time_to_cover_radius(d: int) -> int:
    """Steps after which *every* cell within L1 distance ``d`` is visited.

    For this spiral the last cell of the L1 ball of radius ``d`` to be
    visited is ``(0, -d)`` with hit time ``4*d^2 + 3*d``.  This is the exact
    analogue of the paper's ``x = 4*d^2`` (its ``sqrt(x)/2`` convention);
    the ``+3d`` slack changes constants only.
    """
    if d < 0:
        raise ValueError(f"radius must be non-negative, got {d}")
    return 4 * d * d + 3 * d


def coverage_radius(t: int) -> int:
    """Largest ``d`` such that all cells with L1 distance ``<= d`` are visited by step ``t``.

    Exact inverse of :func:`time_to_cover_radius`:
    ``coverage_radius(t) = max{d : 4d^2 + 3d <= t}``, which is
    ``sqrt(t)/2 - O(1)``.
    """
    if t < 0:
        raise ValueError(f"spiral time must be non-negative, got {t}")
    d = (math.isqrt(9 + 16 * t) - 3) // 8
    # Integer sqrt flooring can undershoot by one; fix up exactly.
    while time_to_cover_radius(d + 1) <= t:
        d += 1
    while d > 0 and time_to_cover_radius(d) > t:
        d -= 1
    return d


def worst_hit_time_at_distance(d: int) -> int:
    """Maximum hit time over cells at L1 distance exactly ``d``.

    Attained at ``(0, -d)``; equals :func:`time_to_cover_radius`.
    """
    return time_to_cover_radius(d)


def best_hit_time_at_distance(d: int) -> int:
    """Minimum hit time over cells at L1 distance exactly ``d``.

    The earliest-visited cells of an L1 ring lie on the spiral's diagonal
    "seam": for odd ``d`` the cell ``((d+1)/2, -(d-1)/2)`` on an E-run with
    hit time ``d^2``; for even ``d >= 2`` the corner ``(d/2, d/2)`` on an
    N-run with hit time ``d^2 - d``.  So the spiral first *touches* L1
    distance ``d`` around time ``d^2`` but only *completes* the ring at
    ``4*d^2 + 3*d`` — the factor-4 spread the paper's ``sqrt(x)/2``
    convention glosses over.
    """
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    if d == 0:
        return 0
    if d % 2 == 1:
        return d * d
    return d * d - d
