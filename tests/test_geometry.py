"""Convex polygon primitives used by the partition layer."""
import numpy as np
import pytest

from rigid_coverage.errors import InvalidInputError
from rigid_coverage.geometry import (
    GEOM_EPS,
    ConvexRegion,
    clip_floats,
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



def test_vertex_on_the_tolerance_is_kept_as_it_is():
    # x <= 0 with a vertex whose side is exactly GEOM_EPS: it counts as on the
    # line, so it is kept unmoved and the edges beside it add no crossing
    poly = [(-1.0, -1.0), (1.0, -1.0), (GEOM_EPS, 1.0)]
    assert 1.0 * GEOM_EPS + 0.0 * 1.0 - 0.0 == GEOM_EPS
    out, _ = clip_floats(poly, 1.0, 0.0, 0.0)
    assert out == [(-1.0, -1.0), (0.0, -1.0), (GEOM_EPS, 1.0)]
    assert clip_polygon_halfplane(np.array(poly), np.array([1.0, 0.0]), 0.0).tolist() == [list(p) for p in out]

def _numpy_clip(vertices, a, b, tol=GEOM_EPS):
    """The clipper as it was on numpy arrays, kept as the reference: its
    sides come from one numpy dot per vertex, which rounds once."""
    v = np.asarray(vertices, dtype=float)
    if len(v) == 0:
        return v
    a = np.asarray(a, dtype=float)
    side = v @ a - b
    out = []
    k = len(v)
    for idx in range(k):
        cur, nxt = v[idx], v[(idx + 1) % k]
        s_cur, s_nxt = side[idx], side[(idx + 1) % k]
        if s_cur <= tol:
            out.append(cur)
        if (s_cur < -tol and s_nxt > tol) or (s_cur > tol and s_nxt < -tol):
            out.append(cur + s_cur / (s_cur - s_nxt) * (nxt - cur))
    if len(out) < 3:
        return np.zeros((0, 2))
    return np.asarray(out)


def test_float_clipper_matches_the_numpy_reference():
    # Random convex polygons against lines through their box, lines through
    # a vertex and lines within GEOM_EPS of a vertex.  The float sides round
    # twice where numpy's dot rounds once, so a crossing point may move: by
    # the sides' rounding over the rate |a . e| / |e| at which the side
    # changes along its edge e.  The bound is 4 ulps of the largest
    # coordinate, over the cosine |a . e| / (|a| |e|) of the least steep
    # crossing edge; every vertex the reference keeps is kept to the bit.
    rng = np.random.default_rng(31)
    for case in range(360):
        k = int(rng.integers(3, 9))
        turn = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        poly = rng.uniform(-3, 3, 2) + 10.0 ** rng.uniform(-1, 1) * np.column_stack([np.cos(turn), np.sin(turn)])
        a = rng.normal(size=2) * 10.0 ** rng.uniform(-1, 1)
        through = rng.uniform(poly.min(axis=0), poly.max(axis=0)) if case % 3 == 0 else poly[rng.integers(k)]
        b = a @ through + (rng.uniform(-0.9, 0.9) * GEOM_EPS if case % 3 == 2 else 0.0)
        want, got = _numpy_clip(poly, a, b), clip_polygon_halfplane(poly, a, b)
        assert got.shape == want.shape, case
        if not len(want):
            continue
        side = poly @ a - b
        steep = [1.0] + [
            abs(s - sn) / np.linalg.norm(a) / np.linalg.norm(q - p)
            for p, q, s, sn in zip(poly, np.roll(poly, -1, axis=0), side, np.roll(side, -1))
            if (s < -GEOM_EPS and sn > GEOM_EPS) or (s > GEOM_EPS and sn < -GEOM_EPS)
        ]
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want))) / min(steep), case
        kept = (want[:, None] == poly[None]).all(axis=2).any(axis=1)
        assert got[kept].tolist() == want[kept].tolist(), case


def test_point_membership():
    assert point_in_convex_polygon(SQUARE, [0.5, 0.5])
    assert point_in_convex_polygon(SQUARE, [0.0, 0.0])
    assert not point_in_convex_polygon(SQUARE, [1.2, 0.5])
    # (n, 2) points give the mask of the same tests
    points = [[0.5, 0.5], [0.0, 0.0], [1.2, 0.5], [0.5, -1e-10], [0.5, -1e-8]]
    mask = point_in_convex_polygon(SQUARE, points)
    assert mask.tolist() == [point_in_convex_polygon(SQUARE, p) for p in points] == [True, True, False, True, False]


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
