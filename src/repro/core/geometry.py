"""L1 (hop-distance) geometry on the integer grid ``Z^2``.

The paper works on the infinite grid with the hop metric
``d(u, v) = |u.x - v.x| + |u.y - v.y|`` (Section 2).  The ball
``B(r) = {v : d(s, v) <= r}`` around the source is the discrete L1 ball
("diamond").  This module provides exact cardinalities, iterators, and
**exact** uniform sampling from balls and rings — the only geometric
primitives the paper's algorithms need besides the spiral.

Cardinalities
-------------

* ring ``{v : d(v) = r}`` has ``4r`` cells for ``r >= 1`` (1 for ``r = 0``);
* ball ``B(r)`` has ``2r^2 + 2r + 1`` cells.

Ring parameterisation
---------------------

Ring ``r >= 1`` is indexed ``m in [0, 4r)`` counter-clockwise from
``(r, 0)``; with quadrant ``q = m // r`` and offset ``i = m % r``:

====  =================
q     cell
====  =================
0     ``(r - i,  i)``
1     ``(-i,  r - i)``
2     ``(-(r - i), -i)``
3     ``(i, -(r - i))``
====  =================

Uniform sampling from ``B(r)`` draws a ring radius by exact inverse-CDF on
the cumulative ball sizes (pure integer arithmetic, no rejection), then an
index on the ring.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "l1_distance",
    "l1_norm",
    "ring_size",
    "ball_size",
    "ball_radius_from_index",
    "ring_cells",
    "ball_cells",
    "ring_cell_from_index",
    "ring_cells_from_index_array",
    "ball_cells_from_index",
    "sample_uniform_ball",
    "sample_uniform_ring",
    "annulus_size",
    "annulus_cells",
]


def l1_distance(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    """Hop distance between grid nodes ``u`` and ``v``."""
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def l1_norm(x: int, y: int) -> int:
    """Hop distance of ``(x, y)`` from the origin."""
    return abs(x) + abs(y)


def ring_size(r: int) -> int:
    """Number of cells at L1 distance exactly ``r`` from a node."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 1 if r == 0 else 4 * r


def ball_size(r: int) -> int:
    """Number of cells in the L1 ball of radius ``r``: ``2r^2 + 2r + 1``."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 2 * r * r + 2 * r + 1


def annulus_size(inner: int, outer: int) -> int:
    """Number of cells ``u`` with ``inner < d(u) <= outer``."""
    if inner > outer:
        raise ValueError(f"need inner <= outer, got {inner} > {outer}")
    return ball_size(outer) - ball_size(inner)


def ball_radius_from_index(n: int) -> int:
    """Ring radius of the ``n``-th cell in the radius-sorted enumeration of a ball.

    Cells of ``B(r)`` are enumerated ring by ring; index ``0`` is the centre,
    indices ``[2ρ² - 2ρ + 1, 2ρ² + 2ρ + 1)`` are ring ``ρ``.  Exact integer
    arithmetic (no float error); used by the exact uniform ball sampler.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n == 0:
        return 0
    rho = (1 + math.isqrt(2 * n - 1)) // 2
    # isqrt flooring can leave rho off by one in either direction; fix up.
    while ball_size(rho) <= n:
        rho += 1
    while rho > 0 and ball_size(rho - 1) > n:
        rho -= 1
    return rho


def ring_cell_from_index(r: int, m: int) -> Tuple[int, int]:
    """The ``m``-th cell (counter-clockwise from ``(r, 0)``) of ring ``r >= 1``."""
    if r < 1:
        raise ValueError(f"ring radius must be >= 1, got {r}")
    if not 0 <= m < 4 * r:
        raise ValueError(f"ring index out of range: {m} not in [0, {4 * r})")
    q, i = divmod(m, r)
    if q == 0:
        return r - i, i
    if q == 1:
        return -i, r - i
    if q == 2:
        return -(r - i), -i
    return i, -(r - i)


def ring_cells_from_index_array(
    r: np.ndarray, m: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`ring_cell_from_index` (all radii must be ``>= 1``)."""
    r = np.asarray(r, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    q = m // r
    i = m % r
    x = np.select([q == 0, q == 1, q == 2], [r - i, -i, -(r - i)], i)
    y = np.select([q == 0, q == 1, q == 2], [i, r - i, -i], -(r - i))
    return x, y


def ring_cells(r: int) -> Iterator[Tuple[int, int]]:
    """Iterate over the cells of ring ``r`` (counter-clockwise; centre if r=0)."""
    if r == 0:
        yield 0, 0
        return
    for m in range(4 * r):
        yield ring_cell_from_index(r, m)


def ball_cells(r: int) -> Iterator[Tuple[int, int]]:
    """Iterate over all cells of ``B(r)``, ring by ring from the centre."""
    for rho in range(r + 1):
        yield from ring_cells(rho)


def annulus_cells(inner: int, outer: int) -> Iterator[Tuple[int, int]]:
    """Iterate over cells ``u`` with ``inner < d(u) <= outer``."""
    for rho in range(inner + 1, outer + 1):
        yield from ring_cells(rho)


def ball_cells_from_index(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The cells at indices ``n`` of the ring-by-ring enumeration of ``Z^2``.

    Index ``0`` is the centre and indices ``[2ρ² - 2ρ + 1, 2ρ² + 2ρ + 1)``
    are ring ``ρ`` in counter-clockwise order, so the first
    ``ball_size(r)`` indices are exactly ``B(r)``.  The map does not
    depend on any radius, which is what lets the excursion engine run it
    once over draws concatenated from many balls.  Pure and RNG-free;
    returns ``(x, y)`` int64 arrays shaped like ``n``.
    """
    n = np.asarray(n, dtype=np.int64)
    # rho = floor((1 + sqrt(2n - 1)) / 2) with integer fix-up, vectorised.
    with np.errstate(invalid="ignore"):
        rho = ((1 + np.sqrt(np.maximum(2 * n - 1, 0))) // 2).astype(np.int64)
    rho = np.where(n == 0, 0, rho)
    # Fix-up passes (at most one step is ever needed, two for safety).
    for _ in range(2):
        ball_lo = 2 * rho * rho - 2 * rho + 1  # ball_size(rho - 1)
        ball_hi = 2 * rho * rho + 2 * rho + 1  # ball_size(rho)
        rho = np.where((rho > 0) & (ball_lo > n), rho - 1, rho)
        rho = np.where(ball_hi <= n, rho + 1, rho)

    offset = n - (2 * rho * rho - 2 * rho + 1)
    x = np.zeros(n.shape, dtype=np.int64)
    y = np.zeros(n.shape, dtype=np.int64)
    on_ring = rho >= 1
    if np.any(on_ring):
        rx, ry = ring_cells_from_index_array(rho[on_ring], offset[on_ring])
        x[on_ring] = rx
        y[on_ring] = ry
    return x, y


def sample_uniform_ball(
    rng: np.random.Generator, radius: int, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` cells uniformly (with replacement) from ``B(radius)``.

    Exact: a uniform integer index in ``[0, |B(radius)|)`` is mapped to its
    ring by integer inverse-CDF and to a position on the ring
    (:func:`ball_cells_from_index`).  Returns ``(x, y)`` int64 arrays of
    length ``size``.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    n = rng.integers(0, ball_size(radius), size=size, dtype=np.int64)
    return ball_cells_from_index(n)


def sample_uniform_ring(
    rng: np.random.Generator, radius: int, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` cells uniformly (with replacement) from ring ``radius``."""
    if radius == 0:
        return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    m = rng.integers(0, 4 * radius, size=size, dtype=np.int64)
    r = np.full(size, radius, dtype=np.int64)
    return ring_cells_from_index_array(r, m)
