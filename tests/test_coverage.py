"""Voronoi partitions, density integrals, locational cost."""
import dataclasses
import math

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage import coverage, sim
from rigid_coverage.config import config_from_dict
from rigid_coverage.coverage import (
    MASS_TOL,
    _TRI_RULE,
    GaussianComponent,
    GaussianMixtureDensity,
    GridDensity,
    UniformDensity,
    _fan_moments,
    centroid,
    coverage_cost,
    partition_update_due,
    voronoi_partition,
)
from rigid_coverage.errors import DegenerateMassError, DegenerateSitesError, InvalidInputError
from rigid_coverage.geometry import ConvexRegion, clip_floats, clip_polygon_halfplane, polygon_area, polygon_centroid
from rigid_coverage.sim import StepRecord, run

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _fine_integral(polygon, func, splits=3, nodes=14):
    """Integral of func(points) over a convex polygon by a fixed fine rule:
    the fan triangles, each split `splits` times, and a collapsed nodes x
    nodes Gauss-Legendre product rule on every piece.  (k,) values give (k,)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1) / 2, w / 2
    u, v = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    poly = np.asarray(polygon, dtype=float)
    tris = np.stack([np.broadcast_to(poly[0], poly[1:-1].shape), poly[1:-1], poly[2:]], axis=1)
    for _ in range(splits):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tris = np.concatenate([np.stack(t, axis=1) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    a, b, c = tris[:, 0, None], tris[:, 1, None], tris[:, 2, None]
    # x = a + u (b - a) + u v (c - b), Jacobian 2 |T| u
    pts = (a + u[:, None] * (b - a) + (u * v)[:, None] * (c - b)).reshape(-1, 2)
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    twice_area = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    weights = (twice_area[:, None] * (np.outer(w, w).ravel() * u)[None, :]).ravel()
    return weights @ np.asarray(func(pts))


def _fine_moments(cell, site, density, **rule):
    """Mass, first and second moment of a cell about its site by the fine
    rule, or by _fine_integral with the given splits and nodes."""

    def moments(pts):
        phi = density(pts)
        diff = pts - site
        return np.column_stack([phi, diff * phi[:, None], np.sum(diff**2, axis=1) * phi])

    return _fine_integral(cell, moments, **rule)


def grid_reference(region_lo, region_hi, func, n=400):
    """Midpoint-rule value of func over an axis-aligned box."""
    xs = np.linspace(region_lo[0], region_hi[0], n, endpoint=False) + (region_hi[0] - region_lo[0]) / (2 * n)
    ys = np.linspace(region_lo[1], region_hi[1], n, endpoint=False) + (region_hi[1] - region_lo[1]) / (2 * n)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    cell = (region_hi[0] - region_lo[0]) * (region_hi[1] - region_lo[1]) / (n * n)
    return np.sum(func(pts)) * cell


class TestIntegration:
    def test_polynomial_exactness(self):
        # degree-5 rule integrates low-order monomials exactly: the mass
        # column of the fan-rule kernel, with the monomial as the density
        val = _fan_moments(lambda p: p[:, 0] ** 2 * p[:, 1], [SQUARE], np.zeros((1, 2)))[0, 0]
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_monomials_exact_to_degree_5(self):
        # over the unit triangle, int x^i y^j = i! j! / (i + j + 2)!; a
        # quadrilateral takes two fan triangles
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        quad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * [1.5, 0.5] + [-0.4, 0.3]
        for degree in range(7):
            for i in range(degree + 1):
                j = degree - i
                got_tri, got_quad = _fan_moments(
                    lambda p: p[:, 0] ** i * p[:, 1] ** j, [tri, quad], np.zeros((2, 2))
                )[:, 0]
                want_tri = math.factorial(i) * math.factorial(j) / math.factorial(degree + 2)
                want_quad = (1.1 ** (i + 1) - (-0.4) ** (i + 1)) * (0.8 ** (j + 1) - 0.3 ** (j + 1)) / ((i + 1) * (j + 1))
                if degree <= 5:
                    assert got_tri == pytest.approx(want_tri, rel=1e-14)
                    assert got_quad == pytest.approx(want_quad, rel=1e-14, abs=1e-16)
                elif i == 0 or j == 0:
                    # degree 6 is beyond the rule
                    assert abs(got_tri - want_tri) > 1e-6 * want_tri

    def test_gaussian_mass_matches_closed_form(self):
        comp = GaussianComponent(mean=np.array([0.7, 0.7]), cov_diag=np.array([0.04, 0.04]))
        density = GaussianMixtureDensity((comp,))
        val = density.moments([SQUARE], np.array([[0.5, 0.5]]))[0, 0]
        sigma = 0.2

        def gauss_interval(lo, hi, mu):
            # integral of exp(-(t-mu)^2 / (2 sigma^2)) over [lo, hi]
            a = (lo - mu) / (sigma * math.sqrt(2))
            b = (hi - mu) / (sigma * math.sqrt(2))
            return sigma * math.sqrt(math.pi / 2) * (math.erf(b) - math.erf(a))

        expected = gauss_interval(0, 1, 0.7) ** 2
        assert val == pytest.approx(expected, rel=1e-14)


class TestDensities:
    def test_uniform_is_one(self):
        pts = np.random.default_rng(0).random((5, 2))
        assert np.allclose(UniformDensity()(pts), 1.0)

    def test_grid_density_bilinear(self):
        values = np.array([[0.5, 1.0], [2.0, 3.0]])
        density = GridDensity(values, lo=[0, 0], hi=[1, 1])
        assert density(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5)
        assert density(np.array([[1.0, 1.0]]))[0] == pytest.approx(3.0)
        mid = density(np.array([[0.5, 0.5]]))[0]
        assert mid == pytest.approx(1.625)

    def test_grid_density_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            GridDensity(np.array([[0.0, 1.0], [2.0, 3.0]]), lo=[0, 0], hi=[1, 1])

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            ([["a", 1.0], [2.0, 3.0]], [0, 0], [1, 1]),
            ([[1.0, 1.0], [2.0]], [0, 0], [1, 1]),
            ([[1.0, 1.0], [2.0, 3.0]], ["x", 0], [1, 1]),
            ([[1.0, 1.0], [2.0, 3.0]], [0, 0], None),
            ([[1.0, 1.0], [2.0, 3.0]], [0, 0], [0, 1]),
        ],
    )
    def test_grid_density_rejects_malformed_input(self, values, lo, hi):
        with pytest.raises(InvalidInputError):
            GridDensity(values, lo=lo, hi=hi)

    def test_grid_density_keeps_read_only_copies(self, unit_square):
        values, lo, hi = np.array([[0.5, 1.0, 1.5], [2.0, 3.0, 0.7]]), np.array([0.0, 0.0]), np.array([1.0, 1.0])
        density = GridDensity(values, lo, hi)
        part = voronoi_partition(np.array([[0.3, 0.4], [0.7, 0.6]]), unit_square)
        before = coverage.cell_moments(part, density).copy()
        values[0, 0], lo[0], hi[1] = -5.0, 0.5, 9.0
        assert density(np.array([[0.0, 0.0]]))[0] == 0.5
        assert np.array_equal(coverage.cell_moments(voronoi_partition(part.sites, unit_square), density), before)
        for array in (density.values, density.lo, density.hi):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_mixture_requires_components(self):
        with pytest.raises(InvalidInputError):
            GaussianMixtureDensity(())

    @pytest.mark.parametrize(
        "component",
        [
            ([0.5, 0.5], [0.01, 0.01]),
            ([0.5, 0.5], [0.01, 0.01], "heavy"),
            ([0.5, 0.5], [0.01, 0.01], None),
            ([0.5, 0.5], [0.01, 0.01], 1.0, 2.0),
            ([0.5, "a"], [0.01, 0.01], 1.0),
            ([[0.5], [0.5, 0.2]], [0.01, 0.01], 1.0),
            ([0.5, 0.5, 0.5], [0.01, 0.01], 1.0),
            ([0.5, 0.5], [0.01, 0.0], 1.0),
            ([0.5, 0.5], [0.01, 0.01], -1.0),
            3.0,
            None,
        ],
    )
    def test_mixture_rejects_malformed_components(self, component):
        with pytest.raises(InvalidInputError):
            GaussianMixtureDensity([component])


class TestVoronoi:
    def test_single_robot_gets_whole_region(self, unit_square):
        part = voronoi_partition(np.array([[0.4, 0.6]]), unit_square)
        assert len(part.cells) == 1
        assert polygon_area(part.cells[0]) == pytest.approx(1.0)

    def test_cells_tile_region(self, unit_square):
        sites = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.8]])
        part = voronoi_partition(sites, unit_square)
        assert sum(polygon_area(c) for c in part.cells) == pytest.approx(1.0, abs=1e-8)
        # each site lies in its own cell
        from rigid_coverage.geometry import point_in_convex_polygon

        for site, cell in zip(sites, part.cells):
            assert point_in_convex_polygon(cell, site)

    @pytest.mark.parametrize(
        "sites",
        [
            [[np.nan, 0.5], [0.2, 0.2]],
            [[np.inf, 0.5], [0.2, 0.2]],
            [[0.5, 0.5], [0.2]],  # ragged
            [[0.5, 0.5, 0.1]],
            [[0.5, "x"]],
        ],
    )
    def test_malformed_sites_rejected(self, unit_square, sites):
        with pytest.raises(InvalidInputError):
            voronoi_partition(sites, unit_square)

    def test_single_point_is_one_site(self, unit_square):
        part = voronoi_partition([0.4, 0.6], unit_square)
        assert part.sites.tolist() == [[0.4, 0.6]]
        assert coverage_cost([0.4, 0.6], part, UniformDensity()) == coverage_cost([[0.4, 0.6]], part, UniformDensity())

    def test_coincident_sites_rejected(self, unit_square):
        sites = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DegenerateSitesError):
            voronoi_partition(sites, unit_square)

    def test_separation_error_names_the_first_close_pair(self, unit_square):
        sites = np.array(
            [[0.1, 0.1], [0.5, 0.5], [0.3, 0.8], [0.9, 0.2], [0.5, 0.5 + 5e-8], [0.3, 0.8 + 2e-8], [0.1 + 9e-8, 0.1]]
        )
        # close pairs: (0, 6), (1, 4), (2, 5); a loop over i < j meets (0, 6) first
        with pytest.raises(DegenerateSitesError, match=r"^sites 0 and 6 closer than 1e-07$"):
            voronoi_partition(sites, unit_square)
        with pytest.raises(DegenerateSitesError, match=r"^sites 1 and 4 closer"):
            voronoi_partition(sites[:6], unit_square)
        with pytest.raises(DegenerateSitesError, match=r"^sites 0 and 3 closer"):
            voronoi_partition(sites[[2, 1, 3, 5, 4]], unit_square)

    def test_outside_site_is_clamped_with_warning(self, unit_square):
        sites = np.array([[1.3, 0.5], [0.2, 0.5]])
        with pytest.warns(UserWarning):
            part = voronoi_partition(sites, unit_square)
        assert sum(polygon_area(c) for c in part.cells) == pytest.approx(1.0, abs=1e-8)


def _all_pairs_cells(positions, region):
    """Voronoi cells clipped with every other site's bisector in index
    order: the plain construction the nearest-first one must reproduce."""
    sites = np.array(positions, dtype=float)
    for idx in range(len(sites)):
        if not region.contains(sites[idx]):
            sites[idx] = region.project_inside(sites[idx])
    cells = []
    for i in range(len(sites)):
        poly = region.vertices
        for j in range(len(sites)):
            if j == i:
                continue
            normal = sites[j] - sites[i]
            offset = float(normal @ (sites[i] + sites[j])) / 2.0
            poly = clip_polygon_halfplane(poly, normal, offset)
            if len(poly) < 3:
                break
        cells.append(poly)
    return cells


def _assert_same_cells(positions, region, vertex_tol=1e-12):
    part = voronoi_partition(positions, region)
    expected = _all_pairs_cells(positions, region)
    assert len(part.cells) == len(expected)
    for got, want in zip(part.cells, expected):
        assert abs(polygon_area(got) - polygon_area(want)) <= 1e-12
        assert got.shape == want.shape
        gaps = [np.max(np.abs(np.roll(got, -k, axis=0) - want)) for k in range(len(got))]
        assert min(gaps) <= vertex_tol


TRIANGLE = ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]))
HEXAGON = ConvexRegion(np.array([[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3]))


def _points_inside(rng, region, n):
    lo, hi = region.vertices.min(axis=0), region.vertices.max(axis=0)
    points = []
    while len(points) < n:
        p = rng.uniform(lo, hi)
        if region.contains(p):
            points.append(p)
    return np.array(points)


class TestNearestFirstClipping:
    """voronoi_partition clips nearest site first and stops at twice the
    cell's radius; its cells are the all-pairs construction's."""

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 150])
    @pytest.mark.parametrize("region", [ConvexRegion(SQUARE), TRIANGLE, HEXAGON], ids=["square", "triangle", "hexagon"])
    def test_random_sites_match_all_pairs(self, region, n):
        _assert_same_cells(_points_inside(np.random.default_rng(n), region, n), region)

    def test_clamped_sites_match_all_pairs(self, unit_square):
        rng = np.random.default_rng(4)
        inside = rng.uniform(0.1, 0.9, (30, 2))
        # one site beyond each edge and corner, each clamped to a distinct point
        outside = np.array([[1.4, 0.3], [-0.2, 0.6], [0.45, 1.3], [0.7, -0.5], [1.2, 1.2], [-0.1, -0.3]])
        with pytest.warns(UserWarning, match="outside the region"):
            _assert_same_cells(np.vstack([inside, outside]), unit_square)

    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_grid_sites_with_tied_distances_match_all_pairs(self, unit_square, k):
        ticks = (np.arange(k) + 0.5) / k
        _assert_same_cells(np.array([[x, y] for y in ticks for x in ticks]), unit_square)

    def test_grid_cells_list_each_vertex_once(self, unit_square):
        # on a 3 x 3 grid the all-pairs clips pass through existing cell
        # corners; each corner must stay a single vertex
        ticks = (np.arange(3) + 0.5) / 3
        cells = _all_pairs_cells(np.array([[x, y] for y in ticks for x in ticks]), unit_square)
        for cell in cells:
            gaps = np.max(np.abs(cell - np.roll(cell, 1, axis=0)), axis=1)
            assert len(cell) == 4 and gaps.min() > 1e-12

    def test_sites_2e_7_apart_match_all_pairs(self, unit_square):
        base = np.random.default_rng(3).uniform(0.1, 0.9, (20, 2))
        pairs = np.vstack([base, base + [2e-7, 0.0]])
        # a bisector of sites s apart is placed to about eps / s, so the two
        # clip orders put these cells' vertices up to ~1e-10 apart
        _assert_same_cells(pairs, unit_square, vertex_tol=1e-9)

    def test_spread_team_clips_fewer_than_15_per_cell(self, unit_square, monkeypatch):
        # 96 sites drawn as the benchmark's swarm96 episode 0 draws them:
        # uniform in [0.03, 0.97]^2, redrawn until 0.02 apart
        rng = np.random.default_rng([0, 0])
        sites: list = []
        while len(sites) < 96:
            p = rng.uniform(0.03, 0.97, size=2)
            if all(np.hypot(*(p - q)) >= 0.02 for q in sites):
                sites.append(p)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return clip_floats(*args, **kwargs)

        monkeypatch.setattr(coverage, "clip_floats", counted)
        voronoi_partition(np.round(sites, 6), unit_square)
        # at least one clip per cell, so the spy sits on the partition's
        # clipper; all pairs would take n (n - 1) = 9120
        assert 96 < len(calls) < 15 * 96


class TestCentroid:
    def test_uniform_square(self):
        c = centroid(SQUARE, UniformDensity())
        assert np.allclose(c, [0.5, 0.5], atol=1e-12)

    def test_gaussian_against_grid_oracle(self):
        comp = GaussianComponent(mean=np.array([0.7, 0.7]), cov_diag=np.array([0.04, 0.04]))
        density = GaussianMixtureDensity((comp,))
        c = centroid(SQUARE, density)
        mass = grid_reference([0, 0], [1, 1], density)
        mx = grid_reference([0, 0], [1, 1], lambda p: p[:, 0] * density(p))
        my = grid_reference([0, 0], [1, 1], lambda p: p[:, 1] * density(p))
        oracle = np.array([mx / mass, my / mass])
        assert np.max(np.abs(c - oracle)) < 1e-4

    def test_uniform_cells_match_closed_form(self, unit_square):
        # degree-2 integrands: the degree-5 rule is exact
        pos = np.random.default_rng(4).uniform(0.05, 0.95, (9, 2))
        part = voronoi_partition(pos, unit_square)
        refs = centroid(part, UniformDensity())
        closed = np.array([polygon_centroid(cell) for cell in part.cells])
        assert np.allclose(refs, closed, rtol=0, atol=1e-12)


class TestCoverageCost:
    @pytest.mark.parametrize("bad", [[[np.nan, 0.5]], [[0.5, np.inf]], [[0.5]]])
    def test_malformed_positions_rejected(self, unit_square, bad):
        part = voronoi_partition([[0.5, 0.5]], unit_square)
        with pytest.raises(InvalidInputError):
            coverage_cost(bad, part, UniformDensity())
        with pytest.raises(InvalidInputError):
            partition_update_due(bad, [[0.5, 0.5]], [1.0])

    def test_single_robot_at_center(self, unit_square):
        pos = np.array([[0.5, 0.5]])
        part = voronoi_partition(pos, unit_square)
        H = coverage_cost(pos, part, UniformDensity())
        assert H == pytest.approx(1.0 / 6.0, rel=1e-9)

    def test_clamped_site_cost_is_taken_about_the_robot(self, unit_square):
        # the partition's moments are about the clamped site; the cost is
        # shifted to the robot outside the region
        pos = np.array([[1.2, 0.4], [0.3, 0.6], [0.5, 0.2]])
        with pytest.warns(UserWarning, match="clamping"):
            part = voronoi_partition(pos, unit_square)
        assert not np.array_equal(part.sites, pos)
        density = DENSITIES["gaussian"]
        direct = sum(
            _fine_integral(cell, lambda pts, p=p: np.sum((pts - p) ** 2, axis=1) * density(pts))
            for cell, p in zip(part.cells, pos)
        )
        assert coverage_cost(pos, part, density) == pytest.approx(direct, rel=1e-13)

    def test_lloyd_iterations_never_increase_cost(self, unit_square):
        rng = np.random.default_rng(5)
        density = GaussianMixtureDensity(
            (GaussianComponent(mean=np.array([0.7, 0.7]), cov_diag=np.array([0.04, 0.04])),)
        )
        for trial in range(3):
            pos = 0.1 + 0.8 * rng.random((4, 2))
            part = voronoi_partition(pos, unit_square)
            prev = coverage_cost(pos, part, density)
            for _ in range(8):
                pos = np.array([centroid(cell, density) for cell in part.cells])
                part = voronoi_partition(pos, unit_square)
                cur = coverage_cost(pos, part, density)
                assert cur <= prev + 1e-10
                prev = cur


class TestPartitionUpdateDue:
    def test_converged_all_zero(self):
        pos = np.array([[0.5, 0.5, 0.0, 0.0]])[:, :2]
        refs = pos.copy()
        assert partition_update_due(pos, refs, np.array([0.0]))

    def test_error_grew(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        refs = np.array([[0.5, 0.0], [1.0, 0.0]])
        stored = np.array([0.4, 0.1])
        assert not partition_update_due(pos, refs, stored)

    def test_all_errors_shrank(self):
        pos = np.array([[0.45, 0.0], [0.95, 0.0]])
        refs = np.array([[0.5, 0.0], [1.0, 0.0]])
        stored = np.array([0.4, 0.4])
        assert partition_update_due(pos, refs, stored)

    def test_plateau_not_due(self):
        pos = np.array([[0.1, 0.0]])
        refs = np.array([[0.5, 0.0]])
        stored = np.array([0.4])
        # error exactly equal to stored: no strict improvement, not converged
        assert not partition_update_due(pos, refs, stored)


# --- batched moments against a per-cell loop ---------------------------------
# The oracle below applies the rule to one cell at a time: its fan
# triangles, the 7-point rule once on each, summed in order.  A grid
# density's cell is taken piece by piece (GridDensity.pieces) and its
# pieces summed in order.  The batched pass must reproduce it bit for bit,
# cell by cell.  A Gaussian mixture's moments come from its own kernel, so
# for it the per-cell oracle is that kernel on one cell at a time.

def _oracle_fan_triangles(vertices):
    v = np.asarray(vertices, dtype=float)
    t = len(v) - 2
    tris = np.empty((t, 3, 2))
    for k in range(t):
        tris[k] = (v[0], v[k + 1], v[k + 2])
    return tris


def _oracle_integrate(vertices, func):
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return np.zeros_like(np.asarray(func(np.zeros((1, 2)))).reshape(-1))
    tris = _oracle_fan_triangles(v)
    bary, wts = _TRI_RULE
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    per_triangle = None
    for lam, w in zip(bary, wts):
        pts = lam[0] * a + lam[1] * b + lam[2] * c
        vals = np.asarray(func(pts))
        if vals.ndim == 1:
            vals = vals[:, None]
        contrib = (w * areas)[:, None] * vals
        per_triangle = contrib if per_triangle is None else per_triangle + contrib
    total = np.zeros(per_triangle.shape[1])
    for row in per_triangle:
        total = total + row
    return total


def _oracle_integrand(site, density):
    def moments(pts):
        phi = density(pts)
        diff = pts - site
        return np.column_stack([phi, diff * phi[:, None], (diff[:, 0] ** 2 + diff[:, 1] ** 2) * phi])

    return moments


def _oracle_moments(cell, site, density):
    if isinstance(density, GaussianMixtureDensity):
        return density.moments([cell], np.asarray(site)[None])[0]
    moments = _oracle_integrand(site, density)
    total = np.zeros(4)
    for piece in density.pieces(cell) if isinstance(density, GridDensity) else [cell]:
        total = total + _oracle_integrate(piece, moments)
    return total


def _oracle_centroid(cell, site, density):
    m = _oracle_moments(cell, site, density)
    if m[0] < MASS_TOL:
        raise DegenerateMassError(f"cell mass {m[0]:.3e} below tolerance")
    return site + m[1:3] / m[0]


def _oracle_cost(positions, partition, density):
    total = 0.0
    for p, site, cell in zip(np.atleast_2d(positions), partition.sites, partition.cells):
        m = _oracle_moments(cell, site, density)
        shift = p - site
        total += float(m[3] - 2.0 * np.sum(shift * m[1:3]) + np.sum(shift**2) * m[0])
    return total


def _random_convex_polygon(rng, k):
    """k vertices on a circle, counter-clockwise, inside the unit square."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, k))
    radius = rng.uniform(0.05, 0.3)
    center = rng.uniform(0.3, 0.7, 2)
    return center + radius * np.column_stack([np.cos(angles), np.sin(angles)])


DENSITIES = {
    "gaussian": GaussianMixtureDensity(
        (
            GaussianComponent(mean=np.array([0.7, 0.7]), cov_diag=np.array([0.04, 0.04])),
            GaussianComponent(mean=np.array([0.2, 0.4]), cov_diag=np.array([0.01, 0.09]), weight=0.5),
        )
    ),
    "grid": GridDensity(np.random.default_rng(3).uniform(0.2, 2.0, (7, 9)), lo=[0, 0], hi=[1, 1]),
    "uniform": UniformDensity(),
}


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMomentsContract:
    def test_density_without_moments_is_refused(self, unit_square):
        part = voronoi_partition([[0.3, 0.3], [0.7, 0.6]], unit_square)
        with pytest.raises(InvalidInputError, match="density function has no moments"):
            centroid(part, lambda p: np.ones(len(p)))
        with pytest.raises(InvalidInputError, match="density object has no moments"):
            coverage_cost(part.sites, part, object())

    def test_own_moments_are_called_once_per_partition(self, unit_square):
        class Counted:
            calls = 0

            def moments(self, cells, sites):
                Counted.calls += 1
                return UniformDensity().moments(cells, sites)

        density = Counted()
        pos = np.array([[0.3, 0.3], [0.7, 0.6], [0.2, 0.8]])
        part = voronoi_partition(pos, unit_square)
        refs, H = centroid(part, density), coverage_cost(pos, part, density)
        centroid(part, density)
        assert Counted.calls == 1
        assert _bitwise_equal(refs, centroid(part, UniformDensity()))
        assert H == coverage_cost(pos, part, UniformDensity())
        centroid(voronoi_partition(pos, unit_square), density)
        assert Counted.calls == 2

    def test_moments_of_the_wrong_shape_are_refused(self, unit_square):
        class Short:
            def moments(self, cells, sites):
                return np.ones((len(cells), 3))

        part = voronoi_partition([[0.3, 0.3], [0.7, 0.6]], unit_square)
        with pytest.raises(InvalidInputError, match=r"Short.moments returned shape \(2, 3\)"):
            centroid(part, Short())


class TestBatchedQuadrature:
    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_mixed_vertex_counts_match_per_cell_loop(self, name, seed):
        density = DENSITIES[name]
        rng = np.random.default_rng(seed)
        polygons = [_random_convex_polygon(rng, k) for k in (3, 8, 4, 7, 5, 6, 3, 8, 5)]
        sites = rng.random((len(polygons), 2))
        batched = _fan_moments(density, polygons, sites)
        assert batched.shape == (len(polygons), 4)
        for poly, site, row in zip(polygons, sites, batched):
            assert _bitwise_equal(row, _oracle_integrate(poly, _oracle_integrand(site, density)))

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_partition_centroids_and_cost_match_per_cell_loop(self, unit_square, name, seed):
        density = DENSITIES[name]
        rng = np.random.default_rng(11 + seed)
        vertex_counts = set()
        for n in (1, 5, 14, 30):
            pos = 0.05 + 0.9 * rng.random((n, 2))
            part = voronoi_partition(pos, unit_square)
            vertex_counts |= {len(c) for c in part.cells}
            refs = centroid(part, density)
            expected = np.array(
                [_oracle_centroid(cell, site, density) for cell, site in zip(part.cells, part.sites)]
            )
            assert _bitwise_equal(refs, expected)
            for cell, ref in zip(part.cells, refs):
                # a lone polygon's moments are taken about its vertex mean
                alone = centroid(cell, density)
                assert _bitwise_equal(alone, _oracle_centroid(cell, cell.mean(axis=0), density))
                assert np.allclose(alone, ref, rtol=0, atol=1e-6)
            H = coverage_cost(pos, part, density)
            assert type(H) is float and H == _oracle_cost(pos, part, density)
        assert vertex_counts >= {3, 4, 5, 6, 7}

    def test_far_off_mass_names_the_first_light_cell(self, unit_square):
        # a narrow bump at one corner leaves four cells with masses below
        # MASS_TOL, each a different one
        density = GaussianMixtureDensity(
            (GaussianComponent(mean=np.array([0.9, 0.9]), cov_diag=np.array([1e-3, 1e-3])),)
        )
        pos = np.array([[0.85, 0.85], [0.6, 0.6], [0.1, 0.1], [0.5, 0.2], [0.2, 0.6]])
        part = voronoi_partition(pos, unit_square)
        messages = []
        for cell, site in zip(part.cells, part.sites):
            try:
                _oracle_centroid(cell, site, density)
            except DegenerateMassError as exc:
                messages.append(str(exc))
        assert len(set(messages)) == 4
        with pytest.raises(DegenerateMassError) as batched:
            centroid(part, density)
        assert str(batched.value) == messages[0]
        cell = part.cells[0]
        assert _bitwise_equal(centroid(cell, density), _oracle_centroid(cell, cell.mean(axis=0), density))
        far = GaussianMixtureDensity(
            (GaussianComponent(mean=np.array([40.0, 40.0]), cov_diag=np.array([0.01, 0.01])),)
        )
        with pytest.raises(DegenerateMassError, match="cell mass 0.000e"):
            centroid(part, far)

    def test_degenerate_polygon_integrates_to_zero(self):
        def density(p):
            return p[:, 0] + p[:, 1]

        batched = _fan_moments(density, [SQUARE, SQUARE[:2]], np.zeros((2, 2)))
        assert np.array_equal(batched[1], np.zeros(4))
        assert _bitwise_equal(batched[0], _oracle_integrate(SQUARE, _oracle_integrand(np.zeros(2), density)))

    def test_run_matches_per_cell_references(self, monkeypatch):
        cfg = make_scenario(mu=0.7, steps=10, faults=[{"at_step": 4, "robot": 2}])
        batched = run(config_from_dict(cfg))

        def per_cell_centroid(partition, density):
            cells = zip(partition.cells, partition.sites)
            return np.array([_oracle_centroid(cell, site, density) for cell, site in cells])

        monkeypatch.setattr(sim, "centroid", per_cell_centroid)
        monkeypatch.setattr(sim, "coverage_cost", _oracle_cost)
        per_cell = run(config_from_dict(cfg))
        assert len(batched.records) == len(per_cell.records) == 10
        for a, b in zip(batched.records, per_cell.records):
            for field in dataclasses.fields(StepRecord):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, dict):
                    assert x.keys() == y.keys()
                    assert all(_bitwise_equal(x[key], y[key]) for key in x)
                elif isinstance(x, np.ndarray):
                    assert _bitwise_equal(x, y), field.name
                else:
                    assert x == y, field.name
        assert batched.events == per_cell.events
        assert batched.summary == per_cell.summary


# --- exact Gaussian moments ---------------------------------------------------

def _gaussian(*components):
    return GaussianMixtureDensity(
        tuple(GaussianComponent(np.array(m, float), np.array(c, float), w) for m, c, w in components)
    )


GAUSSIANS = {
    "fault6": _gaussian(([0.7, 0.7], [0.04, 0.04], 1.0)),
    "swarm96": _gaussian(([0.3, 0.35], [0.03, 0.03], 1.0), ([0.7, 0.6], [0.03, 0.03], 0.6)),
    "anisotropic": DENSITIES["gaussian"],
    "narrow": _gaussian(([0.62, 0.41], [0.002, 0.02], 1.0), ([0.25, 0.8], [0.01, 0.002], 0.8)),
}


def _interval_moments(lo, hi, mean, sd):
    """Integrals of exp(-(q - mean)^2 / (2 sd^2)) times 1, (q - mean) and
    (q - mean)^2 over [lo, hi], in closed form, accurate far into the tail."""
    A, B = (lo - mean) / sd, (hi - mean) / sd
    if A >= 0:
        ratio = math.erfc(A / math.sqrt(2)) - math.erfc(B / math.sqrt(2))
    elif B <= 0:
        ratio = math.erfc(-B / math.sqrt(2)) - math.erfc(-A / math.sqrt(2))
    else:
        ratio = math.erf(B / math.sqrt(2)) - math.erf(A / math.sqrt(2))
    g0 = sd * math.sqrt(math.pi / 2) * ratio
    ga, gb = math.exp(-A * A / 2), math.exp(-B * B / 2)
    return g0, sd * sd * (ga - gb), sd**3 * (A * ga - B * gb) + sd * sd * g0


class TestGaussianMoments:
    @pytest.mark.parametrize("name", sorted(GAUSSIANS))
    def test_partition_moments_match_a_fine_rule(self, unit_square, name):
        density = GAUSSIANS[name]
        rng = np.random.default_rng(8)
        for n in (1, 6, 24):
            part = voronoi_partition(rng.uniform(0.02, 0.98, (n, 2)), unit_square)
            got = coverage.cell_moments(part, density)
            want = np.array([_fine_moments(c, s, density) for c, s in zip(part.cells, part.sites)])
            totals = np.abs(want).sum(axis=0)
            assert np.all(np.abs(got - want) <= 1e-13 * totals)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.5, 5.0, 6.5, 8.0])
    @pytest.mark.parametrize("box", ["diagonal", "radial"])
    def test_far_cells_keep_relative_accuracy(self, k, box):
        # a rectangle k sigma from the mean along x, off the axis or across
        # it (its long edges' lines then pass half a sigma from the mean)
        mean, var = np.array([0.3, -0.2]), np.array([0.0025, 0.04])
        sd = np.sqrt(var)
        density = _gaussian((mean, var, 0.8))
        (x0, x1), (y0, y1) = (k, k + 1.5), ((1.0, 2.0) if box == "diagonal" else (-0.5, 0.5))
        lo, hi = mean + sd * [x0, y0], mean + sd * [x1, y1]
        cell = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
        (mx, fx, _), (my, fy, _) = (_interval_moments(lo[i], hi[i], mean[i], sd[i]) for i in (0, 1))
        site = cell.mean(axis=0)
        m = density.moments([cell], site[None])[0]
        assert m[0] == pytest.approx(0.8 * mx * my, rel=1e-13, abs=0)
        # beyond 6 sigma the mass is below MASS_TOL, so read the centroid off the moments
        ref = mean + [fx / mx, fy / my]
        assert np.all(np.abs(site + m[1:3] / m[0] - ref) <= 1e-13 * sd)

    def test_bumps_far_narrower_or_wider_than_the_cell(self):
        # every edge far beyond the bump's reach, or one piece for the whole cell
        narrow = _gaussian(([0.4, 0.55], [1e-12, 4e-12], 1.0))
        m = narrow.moments([SQUARE], np.array([[0.4, 0.55]]))[0]
        assert m[0] == pytest.approx(2 * np.pi * 2e-12, rel=1e-14)
        assert np.all(np.abs(m[1:3]) <= 1e-14 * m[0] * 1e-6)
        assert m[3] == pytest.approx(m[0] * 5e-12, rel=1e-14)
        wide = _gaussian(([0.3, 0.6], [400.0, 900.0], 2.0))
        (mx, _, _), (my, _, _) = (_interval_moments(0.0, 1.0, m, s) for m, s in ((0.3, 20.0), (0.6, 30.0)))
        assert wide.moments([SQUARE], np.array([[0.5, 0.5]]))[0, 0] == pytest.approx(2 * mx * my, rel=1e-14)

    @pytest.mark.parametrize("name", ["fault6", "narrow"])
    def test_a_cells_bits_do_not_depend_on_its_batch(self, unit_square, name):
        density = GAUSSIANS[name]
        part = voronoi_partition(np.random.default_rng(9).uniform(0.02, 0.98, (30, 2)), unit_square)
        batch = density.moments(part.cells, part.sites)
        for i, (cell, site) in enumerate(zip(part.cells, part.sites)):
            assert _bitwise_equal(batch[i], density.moments([cell], site[None])[0])
        order = np.random.default_rng(10).permutation(30)
        mixed = [part.cells[i] for i in order] + [SQUARE[:2]]
        reordered = density.moments(mixed, np.vstack([part.sites[order], [0.5, 0.5]]))
        assert _bitwise_equal(reordered[:30], batch[order])

    def test_degenerate_polygons_give_zeros(self):
        density = GAUSSIANS["narrow"]
        cells = [SQUARE, SQUARE[:2], SQUARE[:1], np.zeros((0, 2)), SQUARE]
        values = density.moments(cells, np.full((5, 2), 0.5))
        assert np.array_equal(values[1:4], np.zeros((3, 4)))
        assert _bitwise_equal(values[0], values[4]) and values[0, 0] > 0
        assert np.array_equal(density.moments([SQUARE[:2]], np.zeros((1, 2))), np.zeros((1, 4)))

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_clockwise_polygon_gives_the_same_centroid(self, name):
        density = DENSITIES[name]
        for k in (3, 5, 8):
            poly = _random_convex_polygon(np.random.default_rng(k), k)
            assert polygon_area(poly[::-1]) < 0
            assert _bitwise_equal(centroid(poly[::-1], density), centroid(poly, density))


# --- exact grid moments -------------------------------------------------------

def _grid_squares(density):
    """(x0, x1, y0, y1) bounds of every grid square and of every strip
    beyond lo and hi, infinite outside."""
    ny, nx = density.values.shape
    xs = np.concatenate([[-np.inf], np.linspace(density.lo[0], density.hi[0], nx), [np.inf]])
    ys = np.concatenate([[-np.inf], np.linspace(density.lo[1], density.hi[1], ny), [np.inf]])
    return [(x0, x1, y0, y1) for x0, x1 in zip(xs[:-1], xs[1:]) for y0, y1 in zip(ys[:-1], ys[1:])]


def grid_moments_reference(cell, site, density):
    """A cell's moments about its site under a grid density: the cell
    clipped to every grid square and strip beyond lo and hi, each piece
    taken by a collapsed 4 x 4 Gauss product rule, exact on the piece's
    degree-4 integrand."""
    total = np.zeros(4)
    for x0, x1, y0, y1 in _grid_squares(density):
        piece = np.asarray(cell, dtype=float)
        for normal, offset in (((-1.0, 0.0), -x0), ((1.0, 0.0), x1), ((0.0, -1.0), -y0), ((0.0, 1.0), y1)):
            if np.isfinite(offset):
                piece = clip_polygon_halfplane(piece, np.array(normal), offset)
        if len(piece) >= 3:
            total = total + _fine_moments(piece, site, density, splits=0, nodes=4)
    return total


GRIDS = {
    "unit": DENSITIES["grid"],
    "inner": GridDensity(np.random.default_rng(4).uniform(0.2, 2.0, (5, 6)), lo=[0.2, 0.3], hi=[0.7, 0.85]),
}


class TestGridMoments:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_partition_moments_match_a_square_by_square_reference(self, unit_square, name):
        density = GRIDS[name]
        rng = np.random.default_rng(12)
        for n in (1, 2, 6, 13, 30):
            part = voronoi_partition(rng.uniform(0.02, 0.98, (n, 2)), unit_square)
            got = coverage.cell_moments(part, density)
            want = np.array([grid_moments_reference(c, s, density) for c, s in zip(part.cells, part.sites)])
            totals = np.abs(want).sum(axis=0)
            assert np.all(np.abs(got - want) <= 1e-13 * totals)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_pieces_tile_the_cell_within_one_square_each(self, name):
        density = GRIDS[name]
        squares = np.array(_grid_squares(density))
        cells = [SQUARE] + [_random_convex_polygon(np.random.default_rng(20 + k), k) for k in (3, 5, 8)]
        for cell in cells:
            pieces = density.pieces(cell)
            assert sum(polygon_area(p) for p in pieces) == pytest.approx(polygon_area(cell), rel=1e-14)
            for p in pieces:
                lo, hi = p.min(axis=0) + 1e-12, p.max(axis=0) - 1e-12
                within = (squares[:, 0] <= lo[0]) & (hi[0] <= squares[:, 1])
                assert np.any(within & (squares[:, 2] <= lo[1]) & (hi[1] <= squares[:, 3]))

    def test_rows_wholly_inside_a_strip_are_rectangles(self):
        # the unit square on the 7 x 9 grid: 8 strips whose faces span every
        # row, so all 48 pieces are the grid squares, taken without clipping
        density = GRIDS["unit"]
        pieces = density.pieces(SQUARE)
        assert len(pieces) == 48 and all(p.shape == (4, 2) for p in pieces)
        xs, ys = np.linspace(0, 1, 9), np.linspace(0, 1, 7)
        for k, p in enumerate(pieces):
            i, j = divmod(k, 6)
            box = [[xs[i], ys[j]], [xs[i + 1], ys[j]], [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]]]
            assert np.max(np.abs(np.roll(p, -np.argmin(p.sum(axis=1)), axis=0) - box)) <= 1e-15
