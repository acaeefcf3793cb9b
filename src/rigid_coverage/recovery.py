"""Restoring minimal rigidity after a vertex is lost (planar case only).

When a vertex of degree a is removed from a Laman graph, a - 2 new edges
among its former neighbors suffice to restore the Laman property.  A valid
edge set can be read off an edge contraction: contracting (lost, w) onto a
neighbor w is exactly "remove lost, then wire w to the remaining neighbors".
The graph is loaded into one pebble game, and every question about a loss
is answered by a copy of it with the lost vertex's edges dropped: a
contraction is tested by offering that copy w's new edges, and if no
incident edge is contractible, the repair edges are chosen greedily by it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import (
    InvalidInputError,
    RecoveryInfeasibleError,
    UnsupportedDimensionError,
)
from .graphs import Graph, _PebbleGame, laman_check


def _require_planar(dim: int):
    if dim != 2:
        raise UnsupportedDimensionError(f"rigidity recovery is only implemented for d=2, got d={dim}")


def shift_index(v: int, removed: int) -> int:
    """Vertex index after a smaller-indexed vertex has been removed."""
    return v - 1 if v > removed else v


def remove_vertex(g: Graph, v: int) -> Graph:
    """Drop v and its incident edges; indices above v shift down by one."""
    if not 0 <= v < g.n:
        raise InvalidInputError(f"vertex {v} out of range for n={g.n}")
    edges = {
        (shift_index(i, v), shift_index(j, v))
        for i, j in g.edges
        if v not in (i, j)
    }
    return Graph(g.n - 1, frozenset(edges))


def contract_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    """Merge edge endpoints: w's edges are reattached to v, then w is removed.

    Duplicate edges collapse; the surviving vertex keeps index v (shifted if
    it lies above w).
    """
    v, w = int(edge[0]), int(edge[1])
    if not g.has_edge(v, w):
        raise InvalidInputError(f"edge ({v}, {w}) not in graph")
    edges = set()
    for i, j in g.edges:
        a = v if i == w else i
        b = v if j == w else j
        if a == b:
            continue
        edges.add((shift_index(a, w), shift_index(b, w)))
    return Graph(g.n - 1, frozenset(edges))


@dataclass(frozen=True)
class ContractibilityReport:
    contractible: bool
    reason: str  # "pre-filter" | "verified"

    def __bool__(self) -> bool:
        return self.contractible


def common_neighbors(g: Graph, v: int, w: int) -> tuple[int, ...]:
    return tuple(sorted(set(g.neighbors(v)) & set(g.neighbors(w))))


def is_contractible(g: Graph, edge: tuple[int, int]) -> ContractibilityReport:
    """Does contracting this edge keep the graph Laman?

    More than one shared neighbor settles the question without building the
    contraction; otherwise the contracted graph is checked directly.  This
    contract-and-recheck is the definition; closing_ranks answers the same
    question on its loaded pebble game.
    """
    v, w = int(edge[0]), int(edge[1])
    if not laman_check(g):
        raise InvalidInputError("contractibility is only defined on Laman graphs")
    if not g.has_edge(v, w):
        raise InvalidInputError(f"edge ({v}, {w}) not in graph")
    if len(common_neighbors(g, v, w)) > 1:
        return ContractibilityReport(False, "pre-filter")
    verdict = laman_check(contract_edge(g, (v, w)))
    return ContractibilityReport(verdict.is_laman, "verified")


@dataclass(frozen=True)
class ClosingRanks:
    """Repair edges for one vertex loss, endpoints in original labels."""

    new_edges: frozenset[tuple[int, int]]
    contraction_vertex: int | None


def closing_ranks(g: Graph, lost: int, dim: int = 2) -> ClosingRanks:
    """Edges that restore the Laman property once `lost` is removed.

    Tries contractions (lost, w) over neighbors w in ascending index order;
    the first contractible edge wins and w becomes the hub of the new edges.
    Up to the merged vertex's label, the contracted graph is the graph
    without `lost` plus the hub edges from w to the other neighbors it is
    not adjacent to.  So it is Laman exactly when there are deg - 2 hub
    edges (w and `lost` share one neighbor) and the graph's pebble game,
    with `lost`'s edges dropped, accepts them all.  Otherwise that game is
    offered the non-adjacent pairs of former neighbors in lexicographic
    order and keeps each pair it accepts.  Its accepted sets are the
    independent sets of the rigidity matroid, where greedy over an ordered
    ground set yields the lexicographically first basis: the first
    (deg - 2)-combination of pairs whose addition makes the graph Laman.
    """
    _require_planar(dim)
    if not laman_check(g):
        raise InvalidInputError("recovery needs a Laman graph")
    if not 0 <= lost < g.n:
        raise InvalidInputError(f"vertex {lost} out of range for n={g.n}")
    if g.n <= 2:
        raise RecoveryInfeasibleError("cannot lose a vertex from a 2-vertex graph")
    return _closing_ranks(g, lost, _PebbleGame(g.n, g.sorted_edges))


def _hub_edges(g: Graph, lost: int, nbrs, w: int, game: _PebbleGame) -> frozenset | None:
    """The repair edges of contracting (lost, w), or None when the contraction
    is not Laman; nbrs are lost's neighbors and game holds g.  The edges run
    from w to the other neighbors it is not adjacent to."""
    hub = frozenset((min(w, x), max(w, x)) for x in nbrs if x != w and not g.has_edge(w, x))
    if len(hub) != len(nbrs) - 2:
        return None
    trial = game.without(lost)
    return hub if all(trial.add(a, b) for a, b in hub) else None


def _closing_ranks(g: Graph, lost: int, game: _PebbleGame) -> ClosingRanks:
    """closing_ranks for a vertex of a Laman graph g loaded into game."""
    nbrs = g.neighbors(lost)
    alpha = len(nbrs)
    if alpha <= 2:  # degree 1 only on two vertices, where one robot is left
        return ClosingRanks(frozenset(), None)

    for w in nbrs:
        hub = _hub_edges(g, lost, nbrs, w, game)
        if hub is not None:
            return ClosingRanks(hub, w)

    trial = game.without(lost)
    chosen = []
    for a, b in itertools.combinations(nbrs, 2):
        if len(chosen) == alpha - 2:
            break
        if not g.has_edge(a, b) and trial.add(a, b):
            chosen.append((a, b))
    if len(chosen) < alpha - 2:
        raise RecoveryInfeasibleError(f"no edge set restores rigidity after losing vertex {lost}")
    return ClosingRanks(frozenset(chosen), None)


def apply_recovery(g: Graph, lost: int, new_edges) -> Graph:
    """Remove the lost vertex and add the repair edges (original labels)."""
    base = remove_vertex(g, lost)
    shifted = frozenset(
        (shift_index(a, lost), shift_index(b, lost)) for a, b in new_edges
    )
    return Graph(base.n, base.edges | shifted)


@dataclass(frozen=True)
class RecoveryPlan:
    """Per-robot repair lookup: entries[(i, j)] says what robot i does if neighbor j fails."""

    entries: dict[tuple[int, int], ClosingRanks]
    # lost vertex -> the entry of its lowest-numbered surviving neighbor
    _by_loss: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_loss: dict = {}
        for (_, j), entry in sorted(self.entries.items()):
            by_loss.setdefault(j, entry)
        object.__setattr__(self, "_by_loss", by_loss)

    def for_loss(self, j: int) -> ClosingRanks | None:
        return self._by_loss.get(j)


def build_recovery_plan(g: Graph, dim: int = 2) -> RecoveryPlan:
    """Precompute closing-ranks results for every (robot, neighbor) pair.

    Every neighbor of j stores the same deterministic repair set for j's
    loss, so survivors agree without coordination.  All repair edges run
    between neighbors of j, which keeps each entry inside robot i's 2-hop
    neighborhood.
    """
    _require_planar(dim)
    if g.n == 1:
        return RecoveryPlan({})
    if not laman_check(g):
        raise InvalidInputError("recovery plans need a Laman graph")
    game = _PebbleGame(g.n, g.sorted_edges)
    entries: dict[tuple[int, int], ClosingRanks] = {}
    for j in range(g.n):
        result = _closing_ranks(g, j, game)
        for i in g.neighbors(j):
            entries[(i, j)] = result
    return RecoveryPlan(entries)


def plan_to_json(plan: RecoveryPlan) -> str:
    payload = {}
    for (i, j), entry in sorted(plan.entries.items()):
        payload[f"{i}:{j}"] = {
            "contraction_vertex": entry.contraction_vertex,
            "new_edges": [list(e) for e in sorted(entry.new_edges)],
        }
    return json.dumps(payload, sort_keys=True)


def plan_from_json(text: str) -> RecoveryPlan:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed plan JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("plan JSON must be an object")
    entries = {}
    try:
        for key, value in data.items():
            i_s, _, j_s = key.partition(":")
            cv = value["contraction_vertex"]
            entries[(int(i_s), int(j_s))] = ClosingRanks(
                frozenset((int(a), int(b)) for a, b in value["new_edges"]),
                None if cv is None else int(cv),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed plan entry: {exc}") from exc
    return RecoveryPlan(entries)
