"""Voronoi partitions, density integrals, locational cost."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage import sim
from rigid_coverage.config import config_from_dict
from rigid_coverage.coverage import (
    MASS_TOL,
    QUAD_REFINE_TOL,
    _TRI_RULE,
    GaussianComponent,
    GaussianMixtureDensity,
    GridDensity,
    UniformDensity,
    centroid,
    coverage_cost,
    integrate_over_polygon,
    integrate_over_polygons,
    partition_update_due,
    voronoi_partition,
)
from rigid_coverage.errors import DegenerateMassError, DegenerateSitesError, InvalidInputError
from rigid_coverage.geometry import ConvexRegion, polygon_area, polygon_centroid
from rigid_coverage.sim import StepRecord, run

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


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
        # degree-5 rule integrates low-order monomials exactly
        val = integrate_over_polygon(SQUARE, lambda p: p[:, 0] ** 2 * p[:, 1])
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_gaussian_mass_matches_closed_form(self):
        comp = GaussianComponent(mean=np.array([0.7, 0.7]), cov_diag=np.array([0.04, 0.04]))
        density = GaussianMixtureDensity((comp,))
        val = integrate_over_polygon(SQUARE, density)
        sigma = 0.2

        def gauss_interval(lo, hi, mu):
            # integral of exp(-(t-mu)^2 / (2 sigma^2)) over [lo, hi]
            a = (lo - mu) / (sigma * math.sqrt(2))
            b = (hi - mu) / (sigma * math.sqrt(2))
            return sigma * math.sqrt(math.pi / 2) * (math.erf(b) - math.erf(a))

        expected = gauss_interval(0, 1, 0.7) ** 2
        assert val == pytest.approx(expected, rel=1e-6)


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

    def test_mixture_requires_components(self):
        with pytest.raises(InvalidInputError):
            GaussianMixtureDensity(())


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

        def weighted_sq(pts, owner):
            diff = pts - pos[owner]
            return (diff[:, 0] ** 2 + diff[:, 1] ** 2) * density(pts)

        direct = integrate_over_polygons(part.cells, weighted_sq).sum()
        assert coverage_cost(pos, part, density) == pytest.approx(direct, rel=1e-9)

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


# --- batched quadrature against the per-cell loop it replaced ----------------
# The oracle below is the per-cell refinement loop verbatim, applied to each
# cell's moments about its site; the batched kernel must reproduce it bit for
# bit, cell by cell.

def _oracle_fan_triangles(vertices):
    v = np.asarray(vertices, dtype=float)
    t = len(v) - 2
    tris = np.empty((t, 3, 2))
    for k in range(t):
        tris[k] = (v[0], v[k + 1], v[k + 2])
    return tris


def _oracle_subdivide(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    return np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )


def _oracle_integrate_triangles(tris, func):
    bary, wts = _TRI_RULE
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    total = None
    for lam, w in zip(bary, wts):
        pts = lam[0] * a + lam[1] * b + lam[2] * c
        vals = np.asarray(func(pts))
        if vals.ndim == 1:
            vals = vals[:, None]
        contrib = (w * areas)[:, None] * vals
        total = contrib if total is None else total + contrib
    return total.sum(axis=0)


def _oracle_integrate(vertices, func, tol=QUAD_REFINE_TOL, max_levels=6):
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return np.zeros_like(np.asarray(func(np.zeros((1, 2)))).reshape(-1))
    tris = _oracle_fan_triangles(v)
    est = _oracle_integrate_triangles(tris, func)
    for _ in range(max_levels):
        tris = _oracle_subdivide(tris)
        nxt = _oracle_integrate_triangles(tris, func)
        if np.max(np.abs(nxt - est)) < tol:
            return nxt
        est = nxt
    warnings.warn("polygon quadrature did not meet tolerance; returning finest estimate")
    return est


def _oracle_moments(cell, site, density):
    def moments(pts):
        phi = density(pts)
        diff = pts - site
        return np.column_stack([phi, diff * phi[:, None], (diff[:, 0] ** 2 + diff[:, 1] ** 2) * phi])

    return _oracle_integrate(cell, moments)


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


class TestBatchedQuadrature:
    # the bilinear grid's kinks keep some cells from meeting the tolerance,
    # which exercises the finest-estimate fallback as well
    @pytest.mark.filterwarnings("ignore:polygon quadrature did not meet tolerance")
    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_mixed_vertex_counts_match_per_cell_loop(self, name, seed):
        density = DENSITIES[name]
        rng = np.random.default_rng(seed)
        polygons = [_random_convex_polygon(rng, k) for k in (3, 8, 4, 7, 5, 6, 3, 8, 5)]

        def mass_and_moment(pts, _owner):
            phi = density(pts)
            return np.column_stack([phi, pts * phi[:, None]])

        batched = integrate_over_polygons(polygons, mass_and_moment)
        assert batched.shape == (len(polygons), 3)
        for poly, row in zip(polygons, batched):
            expected = _oracle_integrate(poly, lambda p: mass_and_moment(p, None))
            assert _bitwise_equal(row, expected)

    @pytest.mark.filterwarnings("ignore:polygon quadrature did not meet tolerance")
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

    def test_no_convergence_warns_and_returns_finest_estimate(self):
        density = DENSITIES["gaussian"]
        rng = np.random.default_rng(7)
        polygons = [_random_convex_polygon(rng, k) for k in (3, 6, 4)]
        with pytest.warns(UserWarning, match="did not meet tolerance"):
            batched = integrate_over_polygons(polygons, lambda p, _o: density(p), tol=0.0, max_levels=3)
        for poly, row in zip(polygons, batched):
            with pytest.warns(UserWarning, match="did not meet tolerance"):
                expected = _oracle_integrate(poly, density, tol=0.0, max_levels=3)
            assert _bitwise_equal(row, expected)
        with pytest.warns(UserWarning, match="did not meet tolerance"):
            single = integrate_over_polygon(polygons[1], density, tol=0.0, max_levels=3)
        assert _bitwise_equal(single, batched[1])

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
        batched = integrate_over_polygons(
            [SQUARE, SQUARE[:2]], lambda p, _o: np.column_stack([p[:, 0], p[:, 1]])
        )
        assert np.array_equal(batched[1], [0.0, 0.0])
        assert _bitwise_equal(batched[0], _oracle_integrate(SQUARE, lambda p: np.column_stack([p[:, 0], p[:, 1]])))

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
