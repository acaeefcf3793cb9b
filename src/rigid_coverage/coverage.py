"""Voronoi coverage: partitions, weighted centroids, locational cost.

Cells come from clipping the workspace polygon with perpendicular-bisector
half-planes, the nearest other site first, until the next site is more than
twice the cell's largest vertex radius away and so cannot cut it (Cortés,
Martínez, Karataş & Bullo 2004).  The cells are clipped as lists of plain
floats by geometry.clip_floats, which also returns the radius, and each
finished cell becomes an array once.  A cell's centroid and its share of
the locational cost H are read from one set of density moments taken about
the cell's site (`cell_moments`): the mass, the first moment and the second
moment.  Every density owns its moments: `density.moments(cells, sites)`
returns them for all cells of a partition in one pass, and the result is
kept on the partition, so the centroids and H of one partition cost one
call.  A density without a `moments` method is refused.

A Gaussian mixture takes its moments from its own exact kernel: edge
integrals of analytic functions by the divergence theorem, at round-off.
The uniform and grid densities share one fixed quadrature (`_fan_moments`):
each polygon is fanned into triangles and the symmetric 7-point rule, exact
for polynomials of degree 5, is applied once, with one evaluation of the
density on the rule points of every polygon.  The uniform density's
moments have degree 2, so they are exact.  A grid density first cuts each
cell at the grid lines into pieces on which the bilinear interpolant is a
polynomial, so its degree-4 moments are exact too, and adds up each cell's
pieces in order.  Either way a cell's moments depend only on the cell, so
they are the same to the bit whichever cells share its pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMassError,
    DegenerateSitesError,
    InvalidInputError,
    NumericalBreakdownError,
)
from .geometry import GEOM_EPS, ConvexRegion, clip_floats, clip_polygon_halfplane, parse_points
from .geometry import point_in_convex_polygon, polygon_area

MIN_SITE_SEPARATION = 1e-7
AREA_TILE_RTOL = 1e-8
CONVERGENCE_TOL = 1e-6
MASS_TOL = 1e-12


class UniformDensity:
    """Constant importance density, value 1 everywhere."""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.ones(len(pts))

    def moments(self, cells, sites) -> np.ndarray:
        """(n, 4) moments of each convex cell about its site by _fan_moments;
        exact, since they are polynomials of degree at most 2."""
        return _fan_moments(self, cells, sites)


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
            try:
                mean, cov, weight = (c.mean, c.cov_diag, c.weight) if isinstance(c, GaussianComponent) else c
                mean, cov, weight = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float), float(weight)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"each component needs a mean, a diagonal covariance and a weight: {exc}") from exc
            if mean.shape != (2,) or cov.shape != (2,):
                raise InvalidInputError("each component needs a 2-vector mean and diagonal covariance")
            if not np.all(np.isfinite(mean)):
                raise InvalidInputError(f"component mean must be finite, got {mean.tolist()}")
            if not (np.all((cov > 0) & (cov < np.inf)) and 0 < weight < np.inf):
                raise InvalidInputError("component weights and variances must be positive and finite")
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

    def moments(self, cells, sites) -> np.ndarray:
        """(n, 4) moments of each counter-clockwise convex polygon about its
        site p_i: the integrals of phi, (q - p_i) phi and |q - p_i|^2 phi,
        exact to round-off.  A polygon with fewer than 3 vertices gives
        zeros.  Every edge of every polygon is integrated for every
        component in one vectorised pass, and a polygon's moments depend
        only on its own edges, so they are the same to the bit whichever
        polygons share the call.

        In unit-variance coordinates u = (q - m) / sigma of a component, with
        g = exp(-|u|^2 / 2) and outward normal n, the divergence theorem
        turns each moment into an edge integral of an analytic function:

            int g       = closed int (1 - g) (u . n) / |u|^2 ds
            int u_k g   = -closed int g n_k ds
            int u_k^2 g = int g - closed int u_k g n_k ds

        (the first is the edge form of the bivariate normal over a polygon,
        Owen 1956), then scaled by w sigma_x sigma_y and shifted to each
        site.  The mass field cancels to an absolute 1e-16 far from the
        mean, so a polygon that excludes the mean and whose edges all stay
        _FAR sigma from it integrates -g (u . n) / |u|^2 instead: the
        dropped u / |u|^2 term winds zero times round it.  Edges are cut
        into pieces no longer than one sigma, and shorter where g falls
        fast along them, each integrated by 8-point Gauss-Legendre.  Where
        g is negligible on an edge its terms are dropped, and the mass field
        there is u / |u|^2, whose integral is the angle the part subtends;
        so no edge takes more than about 25 pieces, however narrow the bump.
        """
        sites = np.asarray(sites, dtype=float)
        out = np.zeros((len(cells), 4))
        live = [i for i, v in enumerate(cells) if len(v) >= 3]
        if not live:
            return out
        polys = [np.asarray(cells[i], dtype=float) for i in live]
        counts = np.array([len(v) for v in polys])
        tails = np.concatenate(polys)
        ends = np.cumsum(counts)
        head_idx = np.arange(1, len(tails) + 1)
        head_idx[ends - 1] = ends - counts
        parts = _gaussian_moments(self.components, tails, tails[head_idx], counts, sites[live])
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        out[live] = total
        return out


# 8-point Gauss-Legendre on [0, 1], from the 25-digit tables of the nodes
# and weights on [-1, 1]; exact for polynomials of degree 15.
_GL_X = np.array([0.1834346424956498049, 0.5255324099163289858, 0.7966664774136267396, 0.9602898564975362317])
_GL_W = np.array([0.3626837833783619830, 0.3137066458778872873, 0.2223810344533744705, 0.1012285362903762592])
_GL_NODES = 0.5 * np.concatenate((1.0 - _GL_X[::-1], 1.0 + _GL_X))[:, None]
_GL_WEIGHTS = 0.5 * np.concatenate((_GL_W[::-1], _GL_W))
# Along an edge, s sigma from the foot of the mean on its line, g falls by a
# factor of about exp(-|s| l) over a piece of length l.  Pieces are at most
# one sigma long, and at most _PIECE_DECAY / |s|, which keeps 8-point
# Gauss-Legendre at round-off relative to each piece.
_PIECE_DECAY = 4.0
# Where g is below exp(-_NEGLIGIBLE) (4e-18) of its largest value on an edge,
# the edge's g terms are dropped.
_NEGLIGIBLE = 40.0
# A polygon whose edges all stay this many sigma from the mean is far: the
# poles of 1 / |u|^2 lie far enough from every piece for Gauss-Legendre.
_FAR = 2.0


def _stretch(s):
    """Odd, increasing map of the arc position s whose unit steps are the
    longest pieces allowed at s; _unstretch is its inverse."""
    x = np.abs(s)
    k = _PIECE_DECAY
    return np.copysign(np.where(x <= k, x, 0.5 * k + x * x / (2.0 * k)), s)


def _unstretch(y):
    x = np.abs(y)
    k = _PIECE_DECAY
    return np.copysign(np.where(x <= k, x, np.sqrt(np.maximum(2.0 * k * x - k * k, 0.0))), y)


def _gaussian_moments(components, tails, heads, counts, sites) -> np.ndarray:
    """(C, n, 4) moments about the sites of each of C weighted Gaussian
    components over n polygons, given as the edges tails -> heads stacked
    polygon by polygon, counts[i] of them for polygon i; see
    GaussianMixtureDensity.moments.  Every edge is taken once per component,
    in one pass: bin b = c n + i collects component c over polygon i."""
    n_comp, n = len(components), len(counts)
    mean = np.array([c.mean for c in components])
    sd = np.sqrt([c.cov_diag for c in components])
    ax = ((tails[:, 0] - mean[:, :1]) / sd[:, :1]).ravel()
    ay = ((tails[:, 1] - mean[:, 1:]) / sd[:, 1:]).ravel()
    ex = ((heads[:, 0] - mean[:, :1]) / sd[:, :1]).ravel() - ax
    ey = ((heads[:, 1] - mean[:, 1:]) / sd[:, 1:]).ravel() - ay
    bins = n_comp * n
    edge_bin = (n * np.arange(n_comp)[:, None] + np.repeat(np.arange(n), counts)).ravel()
    bin_start = (len(tails) * np.arange(n_comp)[:, None] + (np.cumsum(counts) - counts)).ravel()
    cross = ax * ey - ay * ex  # u x e, the same at every point u of the edge
    len2 = ex * ex + ey * ey
    moving = len2 > 0
    span = np.sqrt(np.where(moving, len2, 1.0))
    # arc positions of the edge's ends from the foot of the mean on its line,
    # and the nearest one to it
    sa = (ax * ex + ay * ey) / span
    sb = sa + span
    nearest = np.maximum(0.0, np.maximum(sa, -sb))
    gap2 = np.where(moving, cross * cross / len2 + nearest * nearest, ax * ax + ay * ay)
    # far: the mean lies outside and every edge stays _FAR sigma from it
    far = (np.minimum.reduceat(gap2, bin_start) >= _FAR * _FAR) & (np.minimum.reduceat(cross, bin_start) < 0)
    far_edge = far[edge_bin]
    # [lo, hi]: the part of each edge's parameter where g is not negligible,
    # cut into pieces evenly in the stretched arc position
    reach = np.sqrt(nearest * nearest + 2.0 * _NEGLIGIBLE)
    lo = np.where(sa < -reach, (-reach - sa) / span, 0.0)
    hi = np.where(sb > reach, (reach - sa) / span, 1.0)
    y_lo = _stretch(np.maximum(sa, -reach))
    y_span = _stretch(np.minimum(sb, reach)) - y_lo
    pieces = np.where(moving, np.ceil(y_span), 0.0).astype(int)
    y_step = y_span / np.maximum(pieces, 1)
    # the pieces + 1 bounds of each moving edge, as edge parameters
    marks = np.where(moving, pieces + 1, 0)
    owner = np.repeat(np.arange(len(ax)), marks)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(marks) - marks, marks)
    inner = (_unstretch(y_lo[owner] + j * y_step[owner]) - sa[owner]) / span[owner]
    last = pieces[owner]
    bounds = np.where(j == 0, lo[owner], np.where(j == last, hi[owner], inner))
    at = np.flatnonzero(j < last)
    edge = owner[at]
    start = bounds[at]
    step = bounds[at + 1] - start
    # (8, pieces) nodes
    t = start + step * _GL_NODES
    ux = ax[edge] + t * ex[edge]
    uy = ay[edge] + t * ey[edge]
    r2 = ux * ux + uy * uy
    # per node: the mass field, g, u_x g and u_y g
    values = np.empty((len(_GL_WEIGHTS), 4, len(edge)))
    g = np.exp(-0.5 * r2, out=values[:, 1])
    field = values[:, 0]
    field.fill(0.5)  # the near field's limit at u = 0
    np.divide(np.where(far_edge[edge], -g, -np.expm1(-0.5 * r2)), r2, out=field, where=r2 > 0)
    np.multiply(ux, g, out=values[:, 2])
    np.multiply(uy, g, out=values[:, 3])
    sums = _GL_WEIGHTS[0] * values[0]
    for w, node_values in zip(_GL_WEIGHTS[1:], values[1:]):
        sums = sums + w * node_values
    s_field, s_g, s_xg, s_yg = sums * step
    ex_p, ey_p, piece_bin = ex[edge], ey[edge], edge_bin[edge]

    def per_bin(weights):
        return np.bincount(piece_bin, weights=weights, minlength=bins)

    mass = per_bin(cross[edge] * s_field)
    # beyond [lo, hi] g is negligible and the mass field of a near polygon
    # is u / |u|^2, which integrates to the angle its part subtends
    cut = np.flatnonzero(((lo > 0) | (hi < 1)) & moving & ~far_edge)
    if len(cut):
        x0, y0, x1, y1 = ax[cut], ay[cut], ax[cut] + ex[cut], ay[cut] + ey[cut]
        xl, yl = x0 + lo[cut] * ex[cut], y0 + lo[cut] * ey[cut]
        xh, yh = x0 + hi[cut] * ex[cut], y0 + hi[cut] * ey[cut]
        tail = np.arctan2(x0 * yl - y0 * xl, x0 * xl + y0 * yl) + np.arctan2(xh * y1 - yh * x1, xh * x1 + yh * y1)
        mass = mass + np.bincount(edge_bin[cut], weights=tail, minlength=bins)
    m1x = per_bin(-ey_p * s_g)
    m1y = per_bin(ex_p * s_g)
    m2x = mass + per_bin(-ey_p * s_xg)
    m2y = mass + per_bin(ex_p * s_yg)
    # back to q about each site: q - p = sigma u + d with d = m - p
    mass, m1x, m1y, m2x, m2y = (v.reshape(n_comp, n) for v in (mass, m1x, m1y, m2x, m2y))
    sx, sy = sd[:, :1], sd[:, 1:]
    dx, dy = mean[:, :1] - sites[:, 0], mean[:, 1:] - sites[:, 1]
    scale = np.array([c.weight for c in components])[:, None] * sx * sy
    return scale[..., None] * np.stack(
        [
            mass,
            sx * m1x + dx * mass,
            sy * m1y + dy * mass,
            sx * sx * m2x + sy * sy * m2y + 2.0 * (sx * dx * m1x + sy * dy * m1y) + (dx * dx + dy * dy) * mass,
        ],
        axis=-1,
    )


class GridDensity:
    """Bilinear interpolation of positive samples on a regular grid, held
    at its edge value beyond lo and hi.  values[j, i] is the sample at
    x_i, y_j of the grid lines; values, lo and hi are read-only copies."""

    def __init__(self, values: np.ndarray, lo, hi):
        try:
            vals, self.lo, self.hi = (np.array(a, dtype=float) for a in (values, lo, hi))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"grid values and bounds must be numeric arrays: {exc}") from exc
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise InvalidInputError("grid values must be 2-D with at least 2 samples per axis")
        if not np.all((vals > 0) & (vals < np.inf)):
            raise InvalidInputError("grid density values must be positive and finite")
        self.values = vals
        if self.lo.shape != (2,) or self.hi.shape != (2,):
            raise InvalidInputError("grid bounds lo and hi must be 2-vectors")
        if not np.all((-np.inf < self.lo) & (self.lo < self.hi) & (self.hi < np.inf)):
            raise InvalidInputError("grid bounds must be finite with lo < hi")
        ny, nx = vals.shape
        self._xs = np.linspace(self.lo[0], self.hi[0], nx)
        self._ys = np.linspace(self.lo[1], self.hi[1], ny)
        for a in (self.values, self.lo, self.hi):
            a.setflags(write=False)

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

    def pieces(self, polygon) -> list[np.ndarray]:
        """A convex polygon cut at every grid line, lo and hi included, into
        pieces that each lie in one grid square or one strip beyond lo or
        hi, where the density is a polynomial of degree at most 2.  The
        strips between x-lines come left to right, each cut bottom to top
        by the y-lines.  The rows of a strip that lie wholly inside it are
        rectangles, taken without clipping."""
        out = []
        for strip in _slices(np.asarray(polygon, dtype=float), 0, self._xs):
            # The strip's lower boundary is convex and its upper one concave,
            # so a y-line crosses it from side to side when it crosses both
            # its left face (x = a) and its right face (x = b).
            a, b = strip[:, 0].min(), strip[:, 0].max()
            left, right = strip[strip[:, 0] <= a + GEOM_EPS, 1], strip[strip[:, 0] >= b - GEOM_EPS, 1]
            ys = self._ys[(self._ys >= max(left.min(), right.min())) & (self._ys <= min(left.max(), right.max()))]
            if len(ys) < 2:
                out += _slices(strip, 1, self._ys)
                continue
            out += _slices(clip_polygon_halfplane(strip, np.array([0.0, 1.0]), ys[0]), 1, self._ys)
            rows = np.column_stack([ys[:-1], ys[:-1], ys[1:], ys[1:]])
            out += list(np.stack([np.broadcast_to([a, b, b, a], rows.shape), rows], axis=-1))
            out += _slices(clip_polygon_halfplane(strip, np.array([0.0, -1.0]), -ys[-1]), 1, self._ys)
        return out

    def moments(self, cells, sites) -> np.ndarray:
        """(n, 4) moments of each convex cell about its site: every cell's
        pieces go through one _fan_moments pass, exact on each piece, and a
        cell adds up its pieces in order."""
        pieces = [self.pieces(c) for c in cells]
        counts = [len(p) for p in pieces]
        per_piece = _fan_moments(self, [q for p in pieces for q in p], np.repeat(sites, counts, axis=0))
        return _sum_rows(per_piece, np.repeat(np.arange(len(cells)), counts), len(cells))


def _slices(polygon: np.ndarray, axis: int, lines: np.ndarray) -> list[np.ndarray]:
    """The parts of a convex polygon between successive lines q[axis] = c
    of the ascending lines, in order, two clips per part; empty parts are
    left out."""
    normal = np.eye(2)[axis]
    if len(polygon) == 0:
        return []
    inside = lines[(lines > polygon[:, axis].min()) & (lines < polygon[:, axis].max())]
    parts = []
    for c in inside.tolist():
        part = clip_polygon_halfplane(polygon, normal, c)
        polygon = clip_polygon_halfplane(polygon, -normal, -c)
        if len(part):
            parts.append(part)
    if len(polygon):
        parts.append(polygon)
    return parts


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


def _sum_rows(rows: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """(n, 4) sums of the (m, 4) rows by owner, each added up in row order
    from zero (np.bincount adds in index order); an owner of no row gets
    zeros."""
    bins = (owner[:, None] * 4 + np.arange(4)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=4 * n).reshape(n, 4)


def _fan_moments(density, polygons, sites) -> np.ndarray:
    """(k, 4) moments of each of k convex polygons about its own site,
    row i of sites for polygon i: the integrals of phi, (q - p_i) phi and
    |q - p_i|^2 phi.  Each polygon is fanned into triangles from its vertex
    0, and the 7-point rule is applied once to every triangle, with one call
    of the density for all polygons.  The rule is exact where the moments
    are polynomials of degree at most 5 on the polygon.  A polygon's
    moments are its triangles' terms added up in order, so they are the
    same whichever polygons share the call; one with fewer than 3 vertices
    gives zeros.
    """
    polys = [np.asarray(v, dtype=float).reshape(-1, 2) for v in polygons]
    sizes = np.array([len(v) for v in polys], dtype=int)
    counts = np.maximum(sizes - 2, 0)
    verts = np.concatenate(polys + [np.zeros((0, 2))])
    # triangle j of a polygon whose vertices start at s is (s, s + j + 1, s + j + 2)
    first = np.repeat(np.cumsum(sizes) - sizes, counts)
    j = np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b, c = verts[first], verts[first + j + 1], verts[first + j + 2]
    areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    bary, wts = _TRI_RULE
    pts = (bary[:, 0, None, None] * a + bary[:, 1, None, None] * b + bary[:, 2, None, None] * c).reshape(-1, 2)
    owner = np.repeat(np.arange(len(polys)), counts)
    phi = density(pts)
    diff = pts - np.asarray(sites, dtype=float)[np.tile(owner, len(wts))]
    vals = np.column_stack([phi, diff * phi[:, None], (diff[:, 0] ** 2 + diff[:, 1] ** 2) * phi])
    vals = vals.reshape(len(wts), len(first), 4)
    total = (wts[0] * areas)[:, None] * vals[0]
    for w, v in zip(wts[1:], vals[1:]):
        total = total + (w * areas)[:, None] * v
    return _sum_rows(total, owner, len(polys))


@dataclass(frozen=True)
class VoronoiPartition:
    cells: tuple[np.ndarray, ...]
    region: ConvexRegion
    sites: np.ndarray
    # density -> cell_moments of this partition
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _points(data) -> np.ndarray:
    """(n, 2) finite points by parse_points; one [x, y] point is a list of one.
    An object array takes a ragged list too, whose fault parse_points names."""
    return parse_points([data] if np.array(data, dtype=object).shape == (2,) else data)


def voronoi_partition(positions: np.ndarray, region: ConvexRegion) -> VoronoiPartition:
    """Voronoi cells of the sites, clipped to the region.

    Each site must be finite and distinct (pairwise separation above 1e-7);
    sites outside the region are clamped to it with a warning.  A cell
    starts as the region and is clipped by the bisectors of the other sites
    in order of distance, ties in index order.  Its clipping stops at the
    first site more than twice as far away as the cell's farthest vertex so
    far, since neither it nor any later site can cut the cell.
    """
    sites = _points(positions).copy()
    if len(sites) == 0:
        raise InvalidInputError("need at least one site")
    for idx in np.flatnonzero(~point_in_convex_polygon(region.vertices, sites)).tolist():
        warnings.warn(f"site {idx} lies outside the region; clamping")
        sites[idx] = region.project_inside(sites[idx])
    gaps = np.linalg.norm(sites[:, None] - sites[None], axis=2)
    close_i, close_j = np.nonzero(np.triu(gaps < MIN_SITE_SEPARATION, k=1))
    if len(close_i):  # nonzero lists pairs in lexicographic order
        raise DegenerateSitesError(
            f"sites {close_i[0]} and {close_j[0]} closer than {MIN_SITE_SEPARATION}"
        )
    # Each row lists the sites nearest first, beside a quarter of each
    # squared gap.  With R the largest distance from site i to a vertex of
    # its cell so far (r2 = R^2), a site j more than 2R away (quarter > r2)
    # cannot cut the cell: every point of the cell lies within R of site i
    # and more than R from site j, so each vertex's side of the bisector is
    # < 0 <= GEOM_EPS and the clip would return the cell unchanged.  Every
    # later site in the row is at least as far.  r2 starts unbounded: the
    # nearest other site lies in the region, within the region's radius of
    # site i, so the stop rule never skips its clip, and that clip sets r2.
    order = np.argsort(gaps, axis=1, kind="stable")
    reach = np.take_along_axis(gaps, order, axis=1) ** 2 / 4.0
    points, corners = sites.tolist(), region.vertices.tolist()
    cells = []
    for i, (sx, sy) in enumerate(points):
        poly, r2 = corners, math.inf
        for j, quarter in zip(order[i].tolist(), reach[i].tolist()):
            if quarter > r2:
                break
            if j == i:
                continue
            xj, yj = points[j]
            ax, ay = xj - sx, yj - sy
            poly, r2 = clip_floats(poly, ax, ay, (ax * (sx + xj) + ay * (sy + yj)) / 2.0, r2, sx, sy)
            if not poly:
                raise NumericalBreakdownError(f"cell of site {i} degenerated to zero area")
        cells.append(poly)
    total = sum(x * yn - xn * y for c in cells for (x, y), (xn, yn) in zip(c, c[1:] + c[:1])) / 2.0  # shoelace
    area = region.area
    if abs(total - area) > AREA_TILE_RTOL * area:
        raise NumericalBreakdownError(f"cells tile {total:.12f} of region area {area:.12f}")
    return VoronoiPartition(tuple(np.array(poly) for poly in cells), region, sites)


def cell_moments(partition: VoronoiPartition, density) -> np.ndarray:
    """(n, 4) density moments of each cell about its own site p_i: the
    integrals of phi, (q - p_i) phi and |q - p_i|^2 phi, from one call of
    the density's own moments(cells, sites), exact for every built-in
    density.  A density without that method, or whose result is not
    (n, 4), raises InvalidInputError.  The read-only result is kept on the
    partition, one entry per density, so later calls read it back.
    """
    if density not in partition._moments:
        name = type(density).__name__
        if not callable(getattr(density, "moments", None)):
            raise InvalidInputError(f"density {name} has no moments(cells, sites) method")
        values = np.array(density.moments(partition.cells, partition.sites), dtype=float)
        if values.shape != (len(partition.cells), 4):
            raise InvalidInputError(f"{name}.moments returned shape {values.shape}, not ({len(partition.cells)}, 4)")
        values.setflags(write=False)
        partition._moments[density] = values
    return partition._moments[density]


def centroid(cell, density) -> np.ndarray:
    """Density-weighted centroid of one cell, or, given a VoronoiPartition,
    the (n, 2) centroids of all its cells: each site plus its cell's first
    moment over its mass, both read from cell_moments.  A lone polygon, in
    either orientation, is taken as the one-cell partition of itself in
    counter-clockwise order, with its vertex mean as the site.
    """
    batch = isinstance(cell, VoronoiPartition)
    if not batch:
        poly = np.asarray(cell, dtype=float)
        if polygon_area(poly) < 0:  # clockwise: the same polygon, counter-clockwise
            poly = poly[::-1]
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
    pos = _points(positions)
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
    pos = _points(positions)
    ref = _points(references)
    err = np.asarray(stored_errors, dtype=float)
    if len(pos) != len(ref) or len(pos) != len(err):
        raise InvalidInputError("positions, references and errors must have equal length")
    current = np.linalg.norm(pos - ref, axis=1)
    if not np.all(current <= err):
        return False
    return bool(np.any(current < err) or np.all(err <= convergence_tol))
