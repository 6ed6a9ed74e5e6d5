"""Unit tests for planar geometry primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import (
    centroid,
    euclidean,
    squared_euclidean,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.tuples(coords, coords)


class TestDistances:
    def test_euclidean_basic(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_euclidean_zero(self):
        assert euclidean((2, 2), (2, 2)) == 0.0

    @given(points, points)
    def test_symmetry(self, a, b):
        assert euclidean(a, b) == euclidean(b, a)

    @given(points, points)
    def test_squared_consistent(self, a, b):
        assert math.isclose(
            squared_euclidean(a, b), euclidean(a, b) ** 2, rel_tol=1e-9, abs_tol=1e-6
        )

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6


class TestCentroid:
    def test_single_point(self):
        assert centroid([(1.0, 2.0)]) == (1.0, 2.0)

    def test_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert centroid(pts) == (1.0, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])
