"""Graph layer: minimal-rigidity checks and incremental construction."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigid_coverage.errors import InvalidInputError, InvalidStepError
from rigid_coverage.graphs import (
    EdgeSplitting,
    Graph,
    VertexAddition,
    graph_from_dict,
    graph_from_json,
    graph_to_json,
    henneberg_apply,
    henneberg_generate,
    henneberg_replay,
    laman_check,
)


def brute_force_laman(g: Graph) -> bool:
    """Independent oracle: check the count and every subset directly."""
    if g.m != 2 * g.n - 3:
        return False
    for k in range(2, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            inside = set(subset)
            span = sum(1 for (i, j) in g.edges if i in inside and j in inside)
            if span > 2 * k - 3:
                return False
    return True


class TestGraph:
    def test_normalizes_and_validates(self):
        g = Graph(3, frozenset({(1, 0), (2, 1)}))
        assert g.sorted_edges == ((0, 1), (1, 2))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(3, frozenset({(0, 0)}))
        with pytest.raises(InvalidInputError):
            Graph(3, frozenset({(0, 3)}))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, {(0, 1.7), (1, 2), (0, 2)}),
            (2.5, {(0, 1)}),
            (True, set()),
            (3, {(True, 2), (0, 1)}),
            (3, {("1", 2)}),
            (float("nan"), set()),
        ],
    )
    def test_rejects_non_integers(self, n, edges):
        with pytest.raises(InvalidInputError):
            Graph(n, frozenset(edges))

    def test_integral_floats_are_read_as_integers(self):
        g = Graph(3.0, frozenset({(0.0, np.int64(2)), (np.float64(1), 2)}))
        assert g == Graph(3, frozenset({(0, 2), (1, 2)})) and type(g.n) is int

    @pytest.mark.parametrize("n, seed", [(3, 0), (8, 1), (25, 2), (60, 3)])
    def test_cached_adjacency_matches_edge_scan(self, n, seed):
        g = henneberg_generate(n, seed=seed).graph
        before = (hash(g), repr(g), Graph(g.n, g.edges))
        for v in range(n):
            scan = tuple(sorted(j if i == v else i for i, j in g.edges if v in (i, j)))
            assert g.neighbors(v) == scan
            assert g.degree(v) == len(scan)
        for i, j in itertools.product(range(-1, n + 1), repeat=2):
            if i != j:
                assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in g.edges)
        for v in (-1, n):
            with pytest.raises(InvalidInputError, match="out of range"):
                g.neighbors(v)
            with pytest.raises(InvalidInputError, match="out of range"):
                g.degree(v)
        # the cache stays out of equality, hashing and repr
        assert (hash(g), repr(g), g) == before

    def test_json_round_trip(self, fan6):
        assert graph_from_json(graph_to_json(fan6)) == fan6


class TestLamanCheck:
    def test_triangle(self, triangle):
        assert laman_check(triangle)

    def test_k4_minus_edge(self):
        g = Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}))
        assert laman_check(g)
        assert brute_force_laman(g)

    def test_k4_overcounted(self):
        g = Graph(4, frozenset(itertools.combinations(range(4), 2)))
        verdict = laman_check(g)
        assert not verdict

    def test_violating_subset_is_reported_and_real(self):
        # a K4 glued to a pendant path: 6 vertices, 9 = 2n-3 edges, K4 oversaturated
        edges = set(itertools.combinations(range(4), 2)) | {(3, 4), (4, 5), (3, 5)}
        g = Graph(6, frozenset(edges))
        verdict = laman_check(g)
        assert not verdict
        sub = verdict.violating_subset
        assert sub is not None and len(sub) >= 2
        span = sum(1 for (i, j) in g.edges if i in sub and j in sub)
        assert span > 2 * len(sub) - 3

    def test_agrees_with_brute_force_on_random_graphs(self):
        import random

        rng = random.Random(7)
        outcomes = {True: 0, False: 0}
        for n in range(3, 13):
            # every graph has the Laman count 2n - 3: random edge sets, and a
            # Laman graph with one edge moved (sometimes still Laman)
            all_edges = list(itertools.combinations(range(n), 2))
            laman = sorted(henneberg_generate(n, seed=n).graph.edges)
            graphs = [Graph(n, frozenset(rng.sample(all_edges, 2 * n - 3))) for _ in range(8)]
            for _ in range(8):
                edges = set(laman)
                edges.remove(rng.choice(laman))
                edges.add(rng.choice([e for e in all_edges if e not in edges]))
                graphs.append(Graph(n, frozenset(edges)))
            for g in graphs:
                verdict = laman_check(g)
                assert bool(verdict) == brute_force_laman(g)
                outcomes[bool(verdict)] += 1
                sub = verdict.violating_subset
                if not verdict:
                    span = sum(1 for (i, j) in g.edges if i in sub and j in sub)
                    assert span > 2 * len(sub) - 3
                else:
                    assert sub is None
        assert min(outcomes.values()) >= 40  # both verdicts well represented

    def test_pebble_handles_large_graphs(self):
        res = henneberg_generate(40, seed=5)
        assert laman_check(res.graph)


def _oracle_apply(g: Graph, step) -> Graph:
    """One Henneberg step as a new Graph from a copied edge set: the
    per-step construction that generation and replay must reproduce."""
    v = g.n
    if isinstance(step, VertexAddition):
        edges = set(g.edges) | {(step.i, v), (step.j, v)}
    else:
        assert g.has_edge(step.i, step.j)
        edges = set(g.edges) - {tuple(sorted((step.i, step.j)))}
        edges |= {(w, v) for w in (step.i, step.j, step.k)}
    return Graph(v + 1, frozenset(edges))


def _oracle_generate(n: int, seed: int, split_probability: float):
    rng = np.random.default_rng(seed)
    g = Graph(2, frozenset({(0, 1)}))
    log = []
    for v in range(2, n):
        if v >= 3 and rng.random() < split_probability:
            edges = g.sorted_edges
            i, j = edges[int(rng.integers(len(edges)))]
            rest = [w for w in range(v) if w != i and w != j]
            step = EdgeSplitting(i, j, rest[int(rng.integers(len(rest)))])
        else:
            pick = rng.choice(v, size=2, replace=False)
            a, b = int(pick[0]), int(pick[1])
            step = VertexAddition(min(a, b), max(a, b))
        g = _oracle_apply(g, step)
        log.append(step)
    return g, tuple(log)


class TestHenneberg:
    def test_two_vertices(self):
        res = henneberg_generate(2, seed=123)
        assert res.graph == Graph(2, frozenset({(0, 1)}))
        assert res.log == ()

    def test_vertex_addition(self, triangle):
        g = henneberg_apply(triangle, VertexAddition(0, 1))
        assert g.n == 4
        assert g.has_edge(3, 0) and g.has_edge(3, 1)
        assert laman_check(g)

    def test_edge_splitting_on_triangle(self, triangle):
        g = henneberg_apply(triangle, EdgeSplitting(0, 1, 2))
        assert g.n == 4
        assert g.edges == frozenset({(0, 3), (1, 3), (2, 3), (0, 2), (1, 2)})
        assert laman_check(g)

    def test_apply_rejects_bad_steps(self, triangle):
        with pytest.raises(InvalidStepError):
            henneberg_apply(triangle, VertexAddition(0, 0))
        with pytest.raises(InvalidStepError):
            henneberg_apply(triangle, VertexAddition(0, 5))
        with pytest.raises(InvalidStepError):
            # (0,1) must be an existing edge and 2 a distinct vertex
            henneberg_apply(Graph(3, frozenset({(0, 1), (1, 2)})), EdgeSplitting(0, 2, 1))

    def test_generate_benchmark_sizes(self):
        res = henneberg_generate(6, seed=42, split_probability=0.5)
        assert res.graph.m == 9
        assert laman_check(res.graph)

        res = henneberg_generate(10, seed=7, split_probability=0.0)
        assert res.graph.m == 17
        assert all(isinstance(step, VertexAddition) for step in res.log)

    def test_replay_reproduces_generate(self):
        res = henneberg_generate(8, seed=11, split_probability=0.7)
        assert henneberg_replay(8, res.log) == res.graph
        assert henneberg_replay(8, iter(res.log)) == res.graph
        with pytest.raises(InvalidInputError, match="log yields 8 vertices, expected 9"):
            henneberg_replay(9, res.log)

    @pytest.mark.parametrize("n", [2, 3, 12, 96, 200])
    @pytest.mark.parametrize("split", [0.0, 0.5, 1.0])
    def test_generate_and_replay_match_per_step_graphs(self, n, split):
        for seed in (0, 1, 42, 2**31 - 1):
            graph, log = _oracle_generate(n, seed, split)
            res = henneberg_generate(n, seed=seed, split_probability=split)
            assert res.graph == graph and res.log == log
            assert henneberg_replay(n, log) == graph
            grown = Graph(2, frozenset({(0, 1)}))
            for step in log:
                grown = henneberg_apply(grown, step)
            assert grown == graph

    def test_generate_is_deterministic(self):
        a = henneberg_generate(9, seed=3)
        b = henneberg_generate(9, seed=3)
        assert a.graph == b.graph and a.log == b.log
        c = henneberg_generate(9, seed=4)
        assert c.graph != a.graph or c.log != a.log

    def test_generate_validates_inputs(self):
        with pytest.raises(InvalidInputError):
            henneberg_generate(1, seed=0)
        with pytest.raises(InvalidInputError):
            henneberg_generate(5, seed=0, split_probability=1.5)
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            henneberg_generate(5, seed=-1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=14), seed=st.integers(0, 10_000),
           split=st.floats(0.0, 1.0))
    def test_generated_graphs_are_always_laman(self, n, seed, split):
        res = henneberg_generate(n, seed=seed, split_probability=split)
        g = res.graph
        assert g.n == n and g.m == 2 * n - 3
        assert laman_check(g)


@pytest.mark.parametrize(
    "data",
    [
        {"n": "x", "edges": []},
        {"n": float("inf"), "edges": []},
        {"n": 3, "edges": [[1, "a"]]},
        {"n": 3, "edges": [[0]]},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "edges": [0, 1]},
        {"n": 3, "edges": None},
        {"n": 3, "edges": [[1, 1]]},
        {"n": 3, "edges": [[0, 3]]},
        {"edges": []},
        [3, []],
        {"n": 3.9, "edges": [[0, 1], [0, 2], [1, 2]]},
        {"n": True, "edges": []},
        {"n": 3, "edges": [[0, 1.7], [1, 2], [0, 2]]},
        {"n": 3, "edges": [[True, 2], [0, 1], [0, 2]]},
    ],
)
def test_graph_from_dict_raises_typed_errors(data):
    with pytest.raises(InvalidInputError):
        graph_from_dict(data)


def test_graph_from_json_raises_typed_errors():
    for text in ("{", '{"n": 3, "edges": [[0]]}', "[]"):
        with pytest.raises(InvalidInputError):
            graph_from_json(text)


def test_graph_json_schema(fan6):
    data = json.loads(graph_to_json(fan6))
    assert data["n"] == 6
    assert sorted(map(tuple, data["edges"])) == list(fan6.sorted_edges)
