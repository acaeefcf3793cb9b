"""Convex polygon primitives used by the partition layer."""
import numpy as np
import pytest

from rigid_coverage.errors import InvalidInputError
from rigid_coverage.geometry import (
    ConvexRegion,
    clip_polygon_halfplane,
    point_in_convex_polygon,
    polygon_area,
    polygon_centroid,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])


def test_area_and_centroid():
    assert polygon_area(SQUARE) == pytest.approx(1.0)
    assert polygon_area(TRIANGLE) == pytest.approx(2.0)
    assert np.allclose(polygon_centroid(SQUARE), [0.5, 0.5])
    assert np.allclose(polygon_centroid(TRIANGLE), [2.0 / 3.0, 2.0 / 3.0])


def test_clip_halfplane():
    # keep x <= 0.5
    clipped = clip_polygon_halfplane(SQUARE, np.array([1.0, 0.0]), 0.5)
    assert polygon_area(clipped) == pytest.approx(0.5)
    assert np.max(clipped[:, 0]) <= 0.5 + 1e-12

    # plane missing the polygon entirely
    empty = clip_polygon_halfplane(SQUARE, np.array([1.0, 0.0]), -1.0)
    assert empty.shape[0] == 0

    untouched = clip_polygon_halfplane(SQUARE, np.array([1.0, 0.0]), 2.0)
    assert polygon_area(untouched) == pytest.approx(1.0)


def test_clip_through_vertices_lists_each_once():
    # x + y <= 1 passes through (1, 0) and (0, 1): they are kept, and the
    # edges that leave and re-enter there add no crossing point beside them
    clipped = clip_polygon_halfplane(SQUARE, np.array([1.0, 1.0]), 1.0)
    assert clipped.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    # a line along an edge keeps that edge's ends once each
    assert clip_polygon_halfplane(SQUARE, np.array([0.0, 1.0]), 0.0).shape == (0, 2)
    assert clip_polygon_halfplane(SQUARE, np.array([1.0, 0.0]), 1.0).tolist() == SQUARE.tolist()


def test_point_membership():
    assert point_in_convex_polygon(SQUARE, [0.5, 0.5])
    assert point_in_convex_polygon(SQUARE, [0.0, 0.0])
    assert not point_in_convex_polygon(SQUARE, [1.2, 0.5])


class TestConvexRegion:
    def test_rejects_clockwise_input(self):
        with pytest.raises(InvalidInputError):
            ConvexRegion(SQUARE[::-1])

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        # reflex corner: not convex
        with pytest.raises(InvalidInputError):
            ConvexRegion(np.array([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]], dtype=float))

    def test_half_planes_unit_outward(self, unit_square):
        A, b = unit_square.half_planes()
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0)
        # interior strictly satisfies, exterior violates
        assert np.all(A @ np.array([0.5, 0.5]) < b)
        assert np.any(A @ np.array([1.5, 0.5]) > b)

    @pytest.mark.parametrize("point", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, -np.inf]])
    def test_non_finite_point_is_outside(self, unit_square, point):
        assert not unit_square.contains(point)
        assert not unit_square.contains(point, tol=np.inf)
        with pytest.raises(InvalidInputError):
            unit_square.project_inside(point)

    def test_shrink(self, unit_square):
        inner = unit_square.shrink(0.1)
        assert inner.area == pytest.approx(0.64)
        assert inner.contains([0.5, 0.5])
        assert not inner.contains([0.05, 0.5])
        with pytest.raises(InvalidInputError):
            unit_square.shrink(0.6)

    def test_project_inside(self, unit_square):
        p = unit_square.project_inside([1.4, 0.8])
        assert np.allclose(p, [1.0, 0.8])
        q = unit_square.project_inside([0.3, 0.3])
        assert np.allclose(q, [0.3, 0.3])
        corner = unit_square.project_inside([2.0, 2.0])
        assert np.allclose(corner, [1.0, 1.0])

    def test_bounding_box(self, unit_square):
        lo, hi = unit_square.bounding_box()
        assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 1.0])
