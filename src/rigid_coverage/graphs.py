"""Minimally rigid graph construction and verification.

A graph on n >= 2 vertices is minimally (bearing) rigid in the plane iff it
is Laman: it has exactly 2n - 3 edges and no vertex subset S with |S| >= 2
spans more than 2|S| - 3 of them.  Every sparsity decision is made by one
incremental (2,3) pebble game, which runs in polynomial time at any size;
the recovery layer reuses one loaded game to test contractions and pick
repair edges.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, InvalidStepError, _integer


def _normalize_edge(edge) -> tuple[int, int]:
    i, j = int(edge[0]), int(edge[1])
    if i == j:
        raise InvalidInputError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with stable 0-based vertex indices."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count", least=1))
        normalized = frozenset(
            _normalize_edge((_integer(e[0], "edge endpoint"), _integer(e[1], "edge endpoint"))) for e in self.edges
        )
        for i, j in normalized:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidInputError(f"edge ({i}, {j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    # The sorted neighbour tuple of every vertex, built on first use and
    # kept on the (frozen) instance; it stays out of the fields, so
    # equality, hashing and repr are unchanged.
    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            rows[i].append(j)
            rows[j].append(i)
        return tuple(tuple(sorted(row)) for row in rows)

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge((i, j)) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise InvalidInputError(f"vertex {v} out of range for n={self.n}")
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


@dataclass(frozen=True)
class LamanVerdict:
    is_laman: bool
    violating_subset: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.is_laman


@dataclass(frozen=True)
class VertexAddition:
    """Join a new vertex to two existing vertices i and j."""

    i: int
    j: int


@dataclass(frozen=True)
class EdgeSplitting:
    """Remove edge (i, j); join a new vertex to i, j and a third vertex k."""

    i: int
    j: int
    k: int


HennebergStep = VertexAddition | EdgeSplitting


class _PebbleGame:
    """Incremental (2,3) pebble game (Jacobs & Hendrickson 1997).

    ``add`` accepts an edge exactly when the accepted edges plus it stay
    (2,3)-sparse, i.e. independent in the planar rigidity matroid; a
    rejected edge leaves the accepted set unchanged.  Edges given to the
    constructor are offered to ``add`` in order.
    """

    def __init__(self, n: int, edges=()):
        self.pebbles = [2] * n
        self.out: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> bool:
        while self.pebbles[u] + self.pebbles[v] < 4:
            if not self._collect(u, v) and not self._collect(v, u):
                return False
        self.out[u].add(v)
        self.pebbles[u] -= 1
        return True

    def without(self, v: int) -> _PebbleGame:
        """A copy with every accepted edge at v dropped, each dropped edge's
        pebble returned to its tail: the game of the graph without v, in the
        same labels, with v isolated and holding 2 pebbles.  Acceptance
        rests only on pebbles + out-degree = 2 at every vertex, which the
        copy keeps, so it decides add() as a fresh game on those edges would.
        """
        game = _PebbleGame(0)
        game.pebbles = [p + (v in heads) for p, heads in zip(self.pebbles, self.out)]
        game.out = [heads - {v} for heads in self.out]
        game.pebbles[v] = 2
        game.out[v] = set()
        return game

    def reach(self, u: int, v: int) -> frozenset[int]:
        """Vertices reachable from u or v; after add(u, v) is rejected they
        span 2|S| - 3 accepted edges, so with (u, v) too many."""
        seen, stack = {u, v}, [u, v]
        while stack:
            for nxt in self.out[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return frozenset(seen)

    def _collect(self, root: int, other: int) -> bool:
        """Move one free pebble to root by reversing a directed path; True on success."""
        pebbles, out = self.pebbles, self.out
        parent = {root: None}
        stack = [root]
        while stack:
            w = stack.pop()
            for nxt in sorted(out[w]):
                if nxt in parent or nxt == other:
                    continue
                parent[nxt] = w
                if pebbles[nxt] > 0:
                    pebbles[nxt] -= 1
                    pebbles[root] += 1
                    node = nxt
                    while parent[node] is not None:
                        prev = parent[node]
                        out[prev].discard(node)
                        out[node].add(prev)
                        node = prev
                    return True
                stack.append(nxt)
        return False


def laman_check(g: Graph) -> LamanVerdict:
    """Decide whether g is Laman (minimally rigid in the plane).

    The edge count is tested first; then one pebble game runs over the
    sorted edges.  When the count is right but an edge is rejected, the
    verdict carries the rejected edge's reach set, a vertex subset that
    spans more than 2|S| - 3 edges.
    """
    if g.n < 2:
        raise InvalidInputError(f"Laman check needs at least 2 vertices, got {g.n}")
    if g.m != 2 * g.n - 3:
        return LamanVerdict(False, None)
    game = _PebbleGame(g.n)
    for u, v in g.sorted_edges:
        if not game.add(u, v):
            return LamanVerdict(False, game.reach(u, v))
    return LamanVerdict(True)


def _grow(edges: list, step: HennebergStep, v: int) -> None:
    """Apply one Henneberg step, in place, to the sorted edge list of a graph
    on vertices 0..v-1; the new vertex is v."""
    if isinstance(step, VertexAddition):
        i, j = step.i, step.j
        if i == j or not (0 <= i < v and 0 <= j < v):
            raise InvalidStepError(f"vertex addition needs two distinct existing vertices, got ({i}, {j})")
        joined = (i, j)
    elif isinstance(step, EdgeSplitting):
        i, j, k = step.i, step.j, step.k
        if len({i, j, k}) != 3 or not all(0 <= w < v for w in (i, j, k)):
            raise InvalidStepError(f"edge splitting needs three distinct existing vertices, got ({i}, {j}, {k})")
        split = _normalize_edge((i, j))
        at = bisect_left(edges, split)
        if at == len(edges) or edges[at] != split:
            raise InvalidStepError(f"edge splitting requires edge ({i}, {j}) to exist")
        del edges[at]
        joined = (i, j, k)
    else:
        raise InvalidStepError(f"unknown step type {type(step).__name__}")
    for w in joined:
        insort(edges, _normalize_edge((v, w)))


def henneberg_apply(g: Graph, step: HennebergStep) -> Graph:
    """Grow g by one Henneberg step; the new vertex gets index g.n."""
    edges = list(g.sorted_edges)
    _grow(edges, step, g.n)
    return Graph(g.n + 1, frozenset(edges))


@dataclass(frozen=True)
class HennebergResult:
    graph: Graph
    log: tuple[HennebergStep, ...]


def henneberg_generate(n: int, seed: int, split_probability: float = 0.5) -> HennebergResult:
    """Generate a random Laman graph on n vertices, deterministically per seed.

    Starts from a single edge and applies n - 2 random steps.  Edge splitting
    is drawn with probability split_probability whenever a third vertex is
    available; otherwise the step is a vertex addition.  The steps grow one
    sorted edge list, from which the random edge is drawn, and the graph is
    built once at the end.
    """
    if n < 2:
        raise InvalidInputError(f"need at least 2 vertices, got {n}")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    if not 0.0 <= split_probability <= 1.0:
        raise InvalidInputError(f"split probability must be in [0, 1], got {split_probability}")
    rng = np.random.default_rng(seed)
    edges = [(0, 1)]
    log: list[HennebergStep] = []
    for v in range(2, n):
        if v >= 3 and rng.random() < split_probability:
            i, j = edges[int(rng.integers(len(edges)))]
            rest = [w for w in range(v) if w != i and w != j]
            k = rest[int(rng.integers(len(rest)))]
            step: HennebergStep = EdgeSplitting(i, j, k)
        else:
            pick = rng.choice(v, size=2, replace=False)
            a, b = int(pick[0]), int(pick[1])
            step = VertexAddition(min(a, b), max(a, b))
        _grow(edges, step, v)
        log.append(step)
    return HennebergResult(Graph(n, frozenset(edges)), tuple(log))


def henneberg_replay(n: int, log) -> Graph:
    """Rebuild the graph produced by a recorded step sequence."""
    edges = [(0, 1)]
    v = 2
    for step in log:
        _grow(edges, step, v)
        v += 1
    if v != n:
        raise InvalidInputError(f"log yields {v} vertices, expected {n}")
    return Graph(n, frozenset(edges))


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges]})


def graph_from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed graph JSON: {exc}") from exc
    return graph_from_dict(data)


def graph_from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InvalidInputError('graph JSON must carry "n" and "edges"')
    n = _integer(data["n"], "graph n", least=1)
    try:
        pairs = [(i, j) for i, j in data["edges"]]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed graph edges: {exc}") from exc
    return Graph(n, frozenset((_integer(i, "graph vertex"), _integer(j, "graph vertex")) for i, j in pairs))
