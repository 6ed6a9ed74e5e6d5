"""Primitive planar geometry used across the library.

Coordinates live in the plane (the paper associates an ``R^2`` coordinate
with every road-network vertex).  Points are plain ``(x, y)`` tuples so that
they can be stored compactly in lists and numpy arrays; this module provides
the small set of operations the rest of the library needs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

Point = Tuple[float, float]


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two planar points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def squared_euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance (avoids the sqrt in hot comparison loops)."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def padded_radius(radius: float) -> float:
    """``radius`` widened by a few ulps, for conservative range pruning.

    Membership in a range search is decided by the *rounded* Euclidean
    distance (``euclidean`` / ``math.hypot``), which can report exactly
    ``radius`` for a point whose true distance lies a hair outside any
    exact-arithmetic bound.  Every spatial-index prune (and any caller
    re-filtering a padded search with its own predicate — e.g.
    ``EDRCost.neighbors``) must therefore use this shared pad; tuning it
    in one place keeps their soundness arguments in sync."""
    return radius + 1e-9 * (radius + 1.0)


def centroid(points: Iterable[Sequence[float]]) -> Point:
    """Barycenter of a non-empty collection of points.

    Used as the default ERP reference point ``g`` (§2.2.2 suggests the
    barycenter of the vertices).
    """
    xs = 0.0
    ys = 0.0
    n = 0
    for p in points:
        xs += p[0]
        ys += p[1]
        n += 1
    if n == 0:
        raise ValueError("centroid of empty point set")
    return (xs / n, ys / n)
