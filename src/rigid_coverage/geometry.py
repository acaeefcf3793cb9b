"""Convex polygon primitives used by the coverage layer.

Polygons are (k, 2) float arrays of vertices in counter-clockwise order.
All clipping is against half-planes {q : a . q <= b} via Sutherland-Hodgman,
which is exact for convex input up to floating point, by one clipper on
plain floats (a cell has too few vertices for numpy to pay) and its wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

GEOM_EPS = 1e-12


def parse_points(data, dims=(2,)) -> np.ndarray:
    """An (n, d) float array, d in `dims`, from a list of points read from
    outside the program; InvalidInputError for anything else."""
    try:
        points = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"expected a list of numeric points: {exc}") from exc
    if points.ndim != 2 or points.shape[1] not in dims:
        sizes = " or ".join(str(d) for d in dims)
        raise InvalidInputError(f"expected a list of {sizes}-dimensional points, got shape {points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise InvalidInputError(f"point {bad[0]} is not finite: {points[bad[0]].tolist()}")
    return points


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area; positive for counter-clockwise order."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    nxt = np.concatenate((v[1:], v[:1]))  # np.roll(v, -1, axis=0), without its overhead
    return 0.5 * float(np.sum(x * nxt[:, 1] - nxt[:, 0] * y))


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon (uniform density)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    if abs(area) < GEOM_EPS:
        raise InvalidInputError("polygon area is numerically zero")
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return np.array([cx, cy])


def clip_floats(poly: list, ax: float, ay: float, b: float, r2: float = 0.0, sx: float = 0.0, sy: float = 0.0,
                tol: float = GEOM_EPS) -> tuple[list, float]:
    """Intersect a convex polygon, a list of (x, y) float pairs, with
    {q : ax x + ay y <= b}, by one Sutherland-Hodgman pass.

    Returns the part, as a list of pairs, and its largest squared vertex
    distance from (sx, sy).  A half-plane that cuts nothing returns poly
    itself and r2, which the caller gives as poly's own radius; a part with
    fewer than 3 vertices is [].  A vertex within `tol` of the line is kept
    as it is, and an edge yields a crossing point only when its ends lie
    strictly on opposite sides (beyond `tol`), so no vertex is emitted twice.
    """
    sides = [ax * x + ay * y - b for x, y in poly]
    if max(sides, default=0.0) <= tol:
        return poly, r2
    out = []
    for p, s, q, sn in zip(poly, sides, poly[1:] + poly[:1], sides[1:] + sides[:1]):
        if s <= tol:
            out.append(p)
        if (s < -tol and sn > tol) or (s > tol and sn < -tol):
            (x, y), (xn, yn) = p, q
            t = s / (s - sn)
            out.append((x + t * (xn - x), y + t * (yn - y)))
    if len(out) < 3:
        return [], 0.0
    return out, max([(x - sx) * (x - sx) + (y - sy) * (y - sy) for x, y in out])


def clip_polygon_halfplane(vertices: np.ndarray, a: np.ndarray, b: float, tol: float = GEOM_EPS) -> np.ndarray:
    """Intersect a convex (k, 2) polygon with {q : a . q <= b} by clip_floats;
    a new (m, 2) array, (0, 2) when fewer than 3 vertices remain."""
    ax, ay = np.asarray(a, dtype=float).tolist()
    part, _ = clip_floats(np.asarray(vertices, dtype=float).tolist(), ax, ay, float(b), tol=tol)
    return np.array(part, dtype=float).reshape(-1, 2)


def point_in_convex_polygon(vertices: np.ndarray, point, tol: float = 1e-9):
    """Whether the point lies in the counter-clockwise convex polygon, within
    tol; for (n, 2) points, an (n,) boolean array, from the same
    elementwise cross products."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    edge = np.concatenate((v[1:], v[:1])) - v  # np.roll(v, -1, axis=0) - v, without its overhead
    rel = p[..., None, :] - v
    outside = (edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0] < -tol).any(axis=-1)
    return ~outside if p.ndim == 2 else not outside


def _project_to_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    denom = float(d @ d)
    if denom < GEOM_EPS:
        return a
    t = min(max(float((p - a) @ d) / denom, 0.0), 1.0)
    return a + t * d


@dataclass(frozen=True)
class ConvexRegion:
    """Convex polygon workspace with counter-clockwise vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise InvalidInputError(f"region needs at least 3 planar vertices, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("region vertices must be finite")
        area = polygon_area(v)
        if area <= GEOM_EPS:
            raise InvalidInputError("region vertices must be in counter-clockwise order with positive area")
        k = len(v)
        for idx in range(k):
            e1 = v[(idx + 1) % k] - v[idx]
            e2 = v[(idx + 2) % k] - v[(idx + 1) % k]
            if e1[0] * e2[1] - e1[1] * e2[0] < -1e-9 * max(1.0, area):
                raise InvalidInputError("region must be convex")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Whether the point is finite and lies in the region, within tol."""
        return bool(np.isfinite(point).all()) and point_in_convex_polygon(self.vertices, point, tol)

    def half_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows (a_k, b_k) with unit outward normals: interior = {a q <= b}."""
        v = self.vertices
        k = len(v)
        A = np.empty((k, 2))
        b = np.empty(k)
        for idx in range(k):
            edge = v[(idx + 1) % k] - v[idx]
            normal = np.array([edge[1], -edge[0]])
            normal /= np.linalg.norm(normal)
            A[idx] = normal
            b[idx] = normal @ v[idx]
        return A, b

    def shrink(self, margin: float) -> "ConvexRegion":
        """Region with every boundary half-plane moved inward by margin."""
        if margin < 0:
            raise InvalidInputError("shrink margin must be non-negative")
        if margin == 0:
            return self
        A, b = self.half_planes()
        poly = self.vertices
        for a_row, b_val in zip(A, b):
            poly = clip_polygon_halfplane(poly, a_row, b_val - margin)
            if len(poly) < 3:
                raise InvalidInputError(f"shrinking by {margin} empties the region")
        return ConvexRegion(poly)

    def project_inside(self, point) -> np.ndarray:
        """Nearest point of the region (the point itself when interior); a
        non-finite point raises InvalidInputError."""
        p = parse_points([point])[0]
        if self.contains(p, tol=0.0):
            return p
        v = self.vertices
        k = len(v)
        best = None
        best_d = np.inf
        for idx in range(k):
            cand = _project_to_segment(p, v[idx], v[(idx + 1) % k])
            d = float(np.linalg.norm(cand - p))
            if d < best_d:
                best, best_d = cand, d
        return best
