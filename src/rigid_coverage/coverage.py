"""Voronoi coverage: partitions, weighted centroids, locational cost.

Cells come from clipping the workspace polygon with perpendicular-bisector
half-planes, one pass per robot pair.  A cell's centroid and its share of
the locational cost H are read from one set of density moments taken about
the cell's site (`cell_moments`): the mass, the first moment and the second
moment.  The moments come from one quadrature pass over all cells of a
partition and are kept on it, so the centroids and H of one partition cost
one pass.  Every density, uniform included, goes through that pass.

The quadrature fans each cell into triangles and applies a symmetric
triangle rule, refined by uniform subdivision until two successive
estimates agree.  Each level evaluates the integrand once on the rule
points of every cell still open, and each cell's triangles are kept in the
order a cell integrated alone would have, so its result is the same to the
bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMassError,
    DegenerateSitesError,
    InvalidInputError,
    NumericalBreakdownError,
)
from .geometry import ConvexRegion, clip_polygon_halfplane, polygon_area

MIN_SITE_SEPARATION = 1e-7
AREA_TILE_RTOL = 1e-8
QUAD_REFINE_TOL = 1e-7
CONVERGENCE_TOL = 1e-6
MASS_TOL = 1e-12


class UniformDensity:
    """Constant importance density, value 1 everywhere."""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.ones(len(pts))


@dataclass(frozen=True)
class GaussianComponent:
    mean: np.ndarray
    cov_diag: np.ndarray
    weight: float = 1.0


class GaussianMixtureDensity:
    """Positive mixture of axis-aligned Gaussian bumps."""

    def __init__(self, components):
        comps = []
        for c in components:
            mean = np.asarray(c.mean if isinstance(c, GaussianComponent) else c[0], dtype=float)
            cov = np.asarray(c.cov_diag if isinstance(c, GaussianComponent) else c[1], dtype=float)
            weight = float(c.weight if isinstance(c, GaussianComponent) else c[2])
            if mean.shape != (2,) or cov.shape != (2,):
                raise InvalidInputError("each component needs a 2-vector mean and diagonal covariance")
            if np.any(cov <= 0) or weight <= 0:
                raise InvalidInputError("component weights and variances must be positive")
            comps.append(GaussianComponent(mean, cov, weight))
        if not comps:
            raise InvalidInputError("mixture needs at least one component")
        self.components = tuple(comps)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(len(pts))
        for c in self.components:
            z = (pts - c.mean) ** 2 / c.cov_diag
            total += c.weight * np.exp(-0.5 * z.sum(axis=1))
        return total


class GridDensity:
    """Bilinear interpolation of positive samples on a regular grid."""

    def __init__(self, values: np.ndarray, lo, hi):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise InvalidInputError("grid values must be 2-D with at least 2 samples per axis")
        if np.any(vals <= 0):
            raise InvalidInputError("grid density values must be positive")
        self.values = vals
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.hi <= self.lo):
            raise InvalidInputError("grid bounds must satisfy lo < hi")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ny, nx = self.values.shape
        span = self.hi - self.lo
        u = np.clip((pts[:, 0] - self.lo[0]) / span[0], 0.0, 1.0) * (nx - 1)
        v = np.clip((pts[:, 1] - self.lo[1]) / span[1], 0.0, 1.0) * (ny - 1)
        i0 = np.clip(u.astype(int), 0, nx - 2)
        j0 = np.clip(v.astype(int), 0, ny - 2)
        fu = u - i0
        fv = v - j0
        z = self.values
        return (
            z[j0, i0] * (1 - fu) * (1 - fv)
            + z[j0, i0 + 1] * fu * (1 - fv)
            + z[j0 + 1, i0] * (1 - fu) * fv
            + z[j0 + 1, i0 + 1] * fu * fv
        )


# The degree-5 symmetric 7-point triangle rule in barycentric coordinates:
# (points, weights), weights summing to one.
def _triangle_rule():
    s = np.sqrt(15.0)
    b1 = (6.0 + s) / 21.0
    a1 = 1.0 - 2.0 * b1
    b2 = (6.0 - s) / 21.0
    a2 = 1.0 - 2.0 * b2
    w1 = (155.0 + s) / 1200.0
    w2 = (155.0 - s) / 1200.0
    pts = [[1 / 3, 1 / 3, 1 / 3]]
    wts = [9.0 / 40.0]
    for (a, b, w) in ((a1, b1, w1), (a2, b2, w2)):
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    return np.array(pts), np.array(wts)


_TRI_RULE = _triangle_rule()


def _fan_triangles(polygons) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (N, 3, 2) triangle fans from vertex 0 of each convex polygon,
    polygon by polygon, and the number of triangles of each."""
    fans = [
        np.stack([np.broadcast_to(v[0], (len(v) - 2, 2)), v[1:-1], v[2:]], axis=1)
        for v in polygons
    ]
    return np.concatenate(fans), np.array([len(f) for f in fans])


def _subdivide(tris: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Split every triangle into four at its edge midpoints.  Each polygon's
    children stay together: all its a-corner children, then the b-corner,
    c-corner and middle ones."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    children = np.stack(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )
    # child q of the j-th triangle of a polygon with t triangles from s on
    # goes to 4 s + q t + j
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    sizes = np.repeat(counts, counts)
    dest = 3 * starts + np.arange(len(tris)) + np.arange(4)[:, None] * sizes
    out = np.empty((4 * len(tris), 3, 2))
    out[dest.ravel()] = children.reshape(-1, 3, 2)
    return out


def _integrate_triangles(tris, counts, owners, func) -> np.ndarray:
    """(p, k) rule estimates for p polygons whose triangles are stacked
    polygon by polygon, counts[i] of them for polygon owners[i]."""
    bary, wts = _TRI_RULE
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    pts = bary[:, 0, None, None] * a + bary[:, 1, None, None] * b + bary[:, 2, None, None] * c
    vals = np.asarray(func(pts.reshape(-1, 2), np.tile(np.repeat(owners, counts), len(wts))))
    vals = vals.reshape(len(wts), len(tris), -1)
    total = (wts[0] * areas)[:, None] * vals[0]
    for w, v in zip(wts[1:], vals[1:]):
        total = total + (w * areas)[:, None] * v
    # each polygon's (t, k) block is summed on its own, as if it were alone
    ends = np.cumsum(counts)
    return np.array([total[s:e].sum(axis=0) for s, e in zip(ends - counts, ends)])


def integrate_over_polygons(
    polygons,
    func,
    tol: float = QUAD_REFINE_TOL,
    max_levels: int = 6,
) -> np.ndarray:
    """Integrate a vector-valued function over each of n convex polygons.

    func(points, owner) receives (P, 2) points and the (P,) index of the
    polygon each lies in, and returns (P,) or (P, k) values; the result is
    (n, k).  All polygons are refined together: each level evaluates func
    once on the rule points of every polygon still open, and a polygon
    closes when two successive levels agree to tol in every component.  A
    polygon's value depends only on its own triangles, so it is the same
    whichever polygons share its batch.
    """
    polys = [np.asarray(v, dtype=float) for v in polygons]
    results: list = [None] * len(polys)
    for i, v in enumerate(polys):
        if len(v) < 3:
            results[i] = np.zeros_like(np.asarray(func(np.zeros((1, 2)), np.array([i]))).reshape(-1))
    live = np.flatnonzero([len(v) >= 3 for v in polys])
    if len(live) == 0:
        return np.array(results)
    tris, counts = _fan_triangles([polys[i] for i in live])
    est = _integrate_triangles(tris, counts, live, func)
    for _ in range(max_levels):
        tris, counts = _subdivide(tris, counts), 4 * counts
        nxt = _integrate_triangles(tris, counts, live, func)
        done = np.max(np.abs(nxt - est), axis=1) < tol
        for i, value in zip(live[done], nxt[done]):
            results[i] = value
        keep = ~done
        tris, counts, live, est = tris[np.repeat(keep, counts)], counts[keep], live[keep], nxt[keep]
        if len(live) == 0:
            return np.array(results)
    warnings.warn("polygon quadrature did not meet tolerance; returning finest estimate")
    for i, value in zip(live, est):
        results[i] = value
    return np.array(results)


def integrate_over_polygon(
    vertices: np.ndarray,
    func,
    tol: float = QUAD_REFINE_TOL,
    max_levels: int = 6,
) -> np.ndarray:
    """Integrate a vector-valued function over a convex polygon.

    Subdivides the fan triangulation until two successive levels agree to
    tol in every component.
    """
    return integrate_over_polygons([vertices], lambda pts, _owner: func(pts), tol, max_levels)[0]


@dataclass(frozen=True)
class VoronoiPartition:
    cells: tuple[np.ndarray, ...]
    region: ConvexRegion
    sites: np.ndarray
    # density -> cell_moments of this partition
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def voronoi_partition(positions: np.ndarray, region: ConvexRegion) -> VoronoiPartition:
    """Voronoi cells of the sites, clipped to the region.

    Each site must be distinct (pairwise separation above 1e-7); sites
    outside the region are clamped to it with a warning.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n = len(pos)
    if n == 0:
        raise InvalidInputError("need at least one site")
    sites = pos.copy()
    for idx in range(n):
        if not region.contains(sites[idx]):
            warnings.warn(f"site {idx} lies outside the region; clamping")
            sites[idx] = region.project_inside(sites[idx])
    gaps = np.linalg.norm(sites[:, None] - sites[None], axis=2)
    close_i, close_j = np.nonzero(np.triu(gaps < MIN_SITE_SEPARATION, k=1))
    if len(close_i):  # nonzero lists pairs in lexicographic order
        raise DegenerateSitesError(
            f"sites {close_i[0]} and {close_j[0]} closer than {MIN_SITE_SEPARATION}"
        )
    cells = []
    for i in range(n):
        poly = region.vertices
        for j in range(n):
            if j == i:
                continue
            normal = sites[j] - sites[i]
            offset = float(normal @ (sites[i] + sites[j])) / 2.0
            poly = clip_polygon_halfplane(poly, normal, offset)
            if len(poly) < 3:
                break
        if len(poly) < 3:
            raise NumericalBreakdownError(f"cell of site {i} degenerated to zero area")
        cells.append(poly)
    total = sum(polygon_area(c) for c in cells)
    if abs(total - region.area) > AREA_TILE_RTOL * region.area:
        raise NumericalBreakdownError(
            f"cells tile {total:.12f} of region area {region.area:.12f}"
        )
    return VoronoiPartition(tuple(cells), region, sites)


def cell_moments(partition: VoronoiPartition, density) -> np.ndarray:
    """(n, 4) density moments of each cell about its own site p_i: the
    integrals of phi, (q - p_i) phi and |q - p_i|^2 phi, all from one batched
    quadrature pass.  The read-only result is kept on the partition, one
    entry per density, so later calls read it back.
    """
    if density not in partition._moments:
        sites = partition.sites

        def moments(pts, owner):
            phi = density(pts)
            diff = pts - sites[owner]
            return np.column_stack([phi, diff * phi[:, None], (diff[:, 0] ** 2 + diff[:, 1] ** 2) * phi])

        values = integrate_over_polygons(partition.cells, moments)
        values.setflags(write=False)
        partition._moments[density] = values
    return partition._moments[density]


def centroid(cell, density) -> np.ndarray:
    """Density-weighted centroid of one cell, or, given a VoronoiPartition,
    the (n, 2) centroids of all its cells: each site plus its cell's first
    moment over its mass.  A lone polygon is taken as the one-cell partition
    of itself, with its vertex mean as the site.
    """
    batch = isinstance(cell, VoronoiPartition)
    if not batch:
        poly = np.asarray(cell, dtype=float)
        cell = VoronoiPartition((poly,), None, poly.mean(axis=0, keepdims=True))
    m = cell_moments(cell, density)
    light = np.flatnonzero(m[:, 0] < MASS_TOL)
    if len(light):
        raise DegenerateMassError(f"cell mass {m[light[0], 0]:.3e} below tolerance")
    refs = cell.sites + m[:, 1:3] / m[:, :1]
    return refs if batch else refs[0]


def coverage_cost(positions: np.ndarray, partition: VoronoiPartition, density) -> float:
    """Locational cost: sum over cells of the density-weighted squared
    distance to the assigned robot.  Each cell's second moment about its
    site is moved to the robot's position by the parallel-axis identity,
    which changes nothing where the two agree (all but clamped sites)."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if len(pos) != len(partition.cells):
        raise InvalidInputError("positions and partition size differ")
    m = cell_moments(partition, density)
    shift = pos - partition.sites
    costs = m[:, 3] - 2.0 * np.sum(shift * m[:, 1:3], axis=1) + np.sum(shift**2, axis=1) * m[:, 0]
    total = 0.0
    for cell_cost in costs:
        total += float(cell_cost)
    return total


def partition_update_due(
    positions: np.ndarray,
    references: np.ndarray,
    stored_errors: np.ndarray,
    convergence_tol: float = CONVERGENCE_TOL,
) -> bool:
    """Decide whether references should be recomputed.

    True when no robot has drifted farther from its reference than its
    stored error, and either some robot got strictly closer or every stored
    error is already below the convergence tolerance.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    ref = np.atleast_2d(np.asarray(references, dtype=float))
    err = np.asarray(stored_errors, dtype=float)
    if len(pos) != len(ref) or len(pos) != len(err):
        raise InvalidInputError("positions, references and errors must have equal length")
    current = np.linalg.norm(pos - ref, axis=1)
    if not np.all(current <= err):
        return False
    return bool(np.any(current < err) or np.all(err <= convergence_tol))
