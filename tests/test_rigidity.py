"""Bearing rigidity: bearing function, rigidity matrix, rank analysis."""
import dataclasses
import json

import numpy as np
import pytest

from rigid_coverage.errors import DegenerateEdgeError, InvalidInputError
from rigid_coverage.graphs import Graph, henneberg_generate
from rigid_coverage.rigidity import (
    Configuration,
    Framework,
    bearing_function,
    edge_bearing,
    framework_from_json,
    framework_to_json,
    is_infinitesimally_bearing_rigid,
    rigidity_matrix,
    rigidity_rank,
    trivial_motion_basis,
)

TRIANGLE = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))


def fw(graph, points):
    return Framework(graph, Configuration(np.asarray(points, dtype=float)))


def fd_rigidity_matrix(framework, eps=1e-6):
    """Central differences of the stacked bearing function."""
    base = framework.config.positions
    n, d = base.shape
    m = framework.graph.m
    J = np.zeros((m * d, n * d))
    for col in range(n * d):
        for sign in (1.0, -1.0):
            pts = base.copy()
            pts[col // d, col % d] += sign * eps
            shifted = fw(framework.graph, pts)
            vec = bearing_function(shifted).bearings.ravel()
            J[:, col] += sign * vec / (2 * eps)
    return J


class TestBearingFunction:
    def test_horizontal_edge(self):
        config = Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(edge_bearing(config, 0, 1), [1.0, 0.0])
        assert np.allclose(edge_bearing(config, 1, 0), [-1.0, 0.0])

    def test_coincident_points_degenerate(self):
        config = Configuration(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(DegenerateEdgeError):
            edge_bearing(config, 0, 1)

    def test_stacked_order_matches_sorted_edges(self, fan6):
        rng = np.random.default_rng(0)
        framework = fw(fan6, rng.random((6, 2)))
        vec = bearing_function(framework)
        assert vec.edge_order == framework.graph.sorted_edges
        for (i, j), g in zip(vec.edge_order, vec.bearings):
            assert np.allclose(g, edge_bearing(framework.config, i, j))
            assert np.isclose(np.linalg.norm(g), 1.0)


class TestRigidityMatrix:
    def test_two_point_blocks(self):
        framework = fw(Graph(2, frozenset({(0, 1)})), [[0.0, 0.0], [1.0, 0.0]])
        R = rigidity_matrix(framework)
        block = np.diag([0.0, 1.0])
        assert R.shape == (2, 4)
        assert np.allclose(R[:, 0:2], -block)
        assert np.allclose(R[:, 2:4], block)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 8)
        res = henneberg_generate(int(n), seed=int(seed))
        framework = fw(res.graph, rng.random((int(n), 2)))
        R = rigidity_matrix(framework)
        assert np.max(np.abs(R - fd_rigidity_matrix(framework))) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_edge_loop(self, d, seed):
        rng = np.random.default_rng([d, seed])
        n = int(rng.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        keep[0] = True
        graph = Graph(n, frozenset(p for p, k in zip(pairs, keep) if k))
        framework = fw(graph, rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)))
        pos = framework.config.positions
        ref = np.zeros((d * graph.m, d * n))
        for k, (i, j) in enumerate(graph.sorted_edges):
            e = pos[j] - pos[i]
            g = e / np.linalg.norm(e)
            block = (np.eye(d) - np.outer(g, g)) / np.linalg.norm(e)
            ref[d * k : d * k + d, d * i : d * i + d] = -block
            ref[d * k : d * k + d, d * j : d * j + d] = block
        # the row-wise norm may differ from the per-edge one in the last bit
        assert np.max(np.abs(rigidity_matrix(framework) - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_annihilates_translations_and_scaling(self):
        rng = np.random.default_rng(3)
        res = henneberg_generate(7, seed=9)
        framework = fw(res.graph, rng.random((7, 2)))
        R = rigidity_matrix(framework)
        pts = framework.config.positions
        scaling = (pts - pts.mean(axis=0)).ravel()
        assert np.linalg.norm(R @ scaling) <= 1e-9 * np.linalg.norm(scaling)
        for t in (np.tile([1.0, 0.0], 7), np.tile([0.0, 1.0], 7)):
            assert np.linalg.norm(R @ t) <= 1e-9 * np.linalg.norm(t)


class TestRank:
    def test_two_points(self):
        framework = fw(Graph(2, frozenset({(0, 1)})), [[0.0, 0.0], [1.0, 0.0]])
        report = rigidity_rank(framework)
        assert report.rank == 1 and report.max_rank == 1
        assert is_infinitesimally_bearing_rigid(framework)

    def test_generic_triangle(self):
        framework = fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        report = rigidity_rank(framework)
        assert report.rank == 3 and report.max_rank == 3
        assert is_infinitesimally_bearing_rigid(framework)

    def test_collinear_path_degenerate(self):
        path = Graph(3, frozenset({(0, 1), (1, 2)}))
        framework = fw(path, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert rigidity_rank(framework).rank < 3
        assert not is_infinitesimally_bearing_rigid(framework)

    def test_generic_path_not_rigid(self):
        path = Graph(3, frozenset({(0, 1), (1, 2)}))
        framework = fw(path, [[0.0, 0.0], [1.0, 0.2], [1.7, 1.1]])
        assert not is_infinitesimally_bearing_rigid(framework)

    def test_generated_graphs_rigid_at_random_configurations(self):
        rng = np.random.default_rng(17)
        for n in range(3, 9):
            res = henneberg_generate(n, seed=n)
            framework = fw(res.graph, rng.random((n, 2)))
            report = rigidity_rank(framework)
            assert report.rank == 2 * n - 3
            assert is_infinitesimally_bearing_rigid(framework)

    def test_rank_tests_share_one_read_only_svd(self, monkeypatch):
        framework = fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        report = rigidity_rank(framework)
        assert is_infinitesimally_bearing_rigid(framework) and rigidity_rank(framework, 1e-3).rank == 3
        assert len(calls) == 1
        assert report.singular_values is framework._singular_values
        assert not framework._singular_values.flags.writeable
        assert [f.name for f in dataclasses.fields(framework)] == ["graph", "config"]

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, float("nan"), float("inf")])
    def test_tolerance_outside_the_unit_interval_is_rejected(self, tol):
        framework = fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for check in (rigidity_rank, is_infinitesimally_bearing_rigid):
            with pytest.raises(InvalidInputError, match="tolerance"):
                check(framework, tol)


class TestTrivialMotions:
    def test_basis_lies_in_null_space(self):
        rng = np.random.default_rng(21)
        res = henneberg_generate(6, seed=2)
        framework = fw(res.graph, rng.random((6, 2)))
        R = rigidity_matrix(framework)
        basis = trivial_motion_basis(framework)
        assert basis.shape == (12, 3)
        for v in basis.T:
            assert np.linalg.norm(R @ v) <= 1e-9 * np.linalg.norm(v)
        assert np.linalg.matrix_rank(basis) == 3


class TestValidation:
    def test_configuration_shape(self):
        with pytest.raises(InvalidInputError):
            Configuration(np.array([1.0, 2.0]))

    def test_framework_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("positions, dim", [
        ([0.0, 1.0, 0.5], 2),  # 1-D, with a "dim" to compare against
        ([[0.0, 0.0], [1.0, "a"], [0.25, 0.9]], None),
        ([[0.0, 0.0], [1.0], [0.25, 0.9]], None),
        ([[0.0, 0.0], [1.0, 0.0], [0.25, 0.9]], 3),
        ([[0.0, 0.0], [1.0, 0.0], [0.25, 0.9]], "two"),
    ])
    def test_json_positions_are_validated(self, positions, dim):
        data = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "positions": positions}
        if dim is not None:
            data["dim"] = dim
        with pytest.raises(InvalidInputError):
            framework_from_json(json.dumps(data))

    def test_json_must_be_an_object_with_positions(self):
        for text in ("5", "[1, 2]", '{"n": 3, "edges": []}'):
            with pytest.raises(InvalidInputError):
                framework_from_json(text)

    def test_framework_names_its_first_short_edge(self):
        with pytest.raises(DegenerateEdgeError, match=r"edge \(1, 2\)"):
            fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-10]])

    def test_json_round_trip(self):
        framework = fw(TRIANGLE, [[0.0, 0.0], [1.0, 0.0], [0.25, 0.9]])
        back = framework_from_json(framework_to_json(framework))
        assert back.graph == framework.graph
        assert np.allclose(back.config.positions, framework.config.positions)
