"""Bearing rigidity of frameworks: bearing functions, rigidity matrix, rank tests.

For an edge (i, j) with relative position e_ij = p_j - p_i the unit bearing is
g_ij = e_ij / ||e_ij||.  Stacking all edge bearings in canonical (sorted) edge
order gives the bearing function f_B; its Jacobian with respect to the stacked
positions is the bearing rigidity matrix.  A framework in R^d on n vertices is
infinitesimally bearing rigid iff that matrix has rank d*n - d - 1, in which
case its null space consists of exactly the d translations and one scaling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateEdgeError,
    InvalidInputError,
    NumericalBreakdownError,
)
from .geometry import parse_points
from .graphs import Graph, graph_from_dict

SEPARATION_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class Configuration:
    """Points p_1..p_n in R^d, stored as an (n, d) array."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise InvalidInputError(f"positions must be (n, d) with d in {{2, 3}}, got shape {pos.shape}")
        if pos.shape[0] < 2:
            raise InvalidInputError("need at least 2 points")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("positions must be finite")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class Framework:
    """A graph paired with a configuration of its vertices."""

    graph: Graph
    config: Configuration

    def __post_init__(self):
        if self.graph.n != self.config.n:
            raise InvalidInputError(
                f"graph has {self.graph.n} vertices but configuration has {self.config.n} points"
            )
        edges, e = _edge_vectors(self)
        short = np.flatnonzero(np.linalg.norm(e, axis=1) <= SEPARATION_TOL)
        if len(short):
            i, j = edges[short[0]]
            raise DegenerateEdgeError(f"edge ({i}, {j}) endpoints within separation tolerance")

    # Taken on first use and kept on the (frozen) instance, outside its
    # fields, so that every rank test of one framework shares one SVD.
    @cached_property
    def _singular_values(self) -> np.ndarray:
        """Singular values of the rigidity matrix, largest first; read-only."""
        sv = np.linalg.svd(rigidity_matrix(self), compute_uv=False)
        sv.setflags(write=False)
        return sv


@dataclass(frozen=True)
class BearingVector:
    """Unit bearings stacked in canonical edge order."""

    edge_order: tuple[tuple[int, int], ...]
    bearings: np.ndarray  # (m, d)


def edge_bearing(config: Configuration, i: int, j: int) -> np.ndarray:
    """Unit bearing from vertex i toward vertex j."""
    e = config.positions[j] - config.positions[i]
    norm = np.linalg.norm(e)
    if norm <= SEPARATION_TOL:
        raise DegenerateEdgeError(f"vertices {i} and {j} within separation tolerance")
    return e / norm


def bearing_function(fw: Framework) -> BearingVector:
    """Unit bearings of all edges; each norm is the root of the edge's own dot
    product (a batched matmul), which rounds as np.linalg.norm of one edge."""
    _, e = _edge_vectors(fw)
    return BearingVector(fw.graph.sorted_edges, e / np.sqrt(e[:, None, :] @ e[:, :, None])[:, 0])


def _edge_vectors(fw: Framework) -> tuple:
    """The (m, 2) edges in canonical order and their (m, d) vectors p_j - p_i."""
    edges = np.array(fw.graph.sorted_edges, dtype=int).reshape(-1, 2)
    return edges, fw.config.positions[edges[:, 1]] - fw.config.positions[edges[:, 0]]


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """Jacobian of the bearing function; shape (d*m, d*n): edge k's rows hold -P_g/||e|| at i, +P_g/||e|| at j."""
    edges, e = _edge_vectors(fw)
    d, m = fw.config.dim, len(edges)
    norm = np.linalg.norm(e, axis=1)[:, None, None]
    g = e / norm[:, 0]
    block = (np.eye(d) - g[:, :, None] * g[:, None, :]) / norm
    R = np.zeros((d * m, d * fw.config.n))
    rows = d * np.arange(m)[:, None, None] + np.arange(d)[:, None]
    R[rows, d * edges[:, 0, None, None] + np.arange(d)] = -block
    R[rows, d * edges[:, 1, None, None] + np.arange(d)] = block
    return R


@dataclass(frozen=True)
class RankReport:
    rank: int
    singular_values: np.ndarray
    max_rank: int  # d*n - d - 1


def rigidity_rank(fw: Framework, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Numerical rank of the rigidity matrix from the framework's SVD.

    Singular values below tol relative to the largest are treated as zero;
    tol must lie in (0, 1).
    """
    if not 0.0 < tol < 1.0:
        raise InvalidInputError(f"rank tolerance must lie in (0, 1), got {tol}")
    sv = fw._singular_values
    d, n = fw.config.dim, fw.config.n
    max_rank = d * n - d - 1
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sv > tol * sv[0]))
    if rank > max_rank:
        raise NumericalBreakdownError(
            f"rigidity rank {rank} exceeds theoretical bound {max_rank}; "
            f"smallest counted singular value {sv[rank - 1]:.3e}"
        )
    return RankReport(rank, sv, max_rank)


def is_infinitesimally_bearing_rigid(fw: Framework, tol: float = DEFAULT_RANK_TOL) -> bool:
    report = rigidity_rank(fw, tol)
    return report.rank == report.max_rank


def trivial_motion_basis(fw: Framework) -> np.ndarray:
    """Basis of the always-present null space: d translations plus one scaling.

    Returns a (d*n, d+1) matrix whose columns are the stacked motions.
    """
    pos = fw.config.positions
    n, d = pos.shape
    cols = []
    for k in range(d):
        v = np.zeros((n, d))
        v[:, k] = 1.0
        cols.append(v.reshape(-1))
    cols.append((pos - pos.mean(axis=0)).reshape(-1))
    return np.stack(cols, axis=1)


def framework_to_json(fw: Framework) -> str:
    return json.dumps(
        {
            "n": fw.graph.n,
            "edges": [list(e) for e in fw.graph.sorted_edges],
            "dim": fw.config.dim,
            "positions": fw.config.positions.tolist(),
        }
    )


def framework_from_dict(data) -> Framework:
    """A framework from a decoded {n, edges, positions[, dim]} object."""
    if not isinstance(data, dict) or "positions" not in data:
        raise InvalidInputError('framework JSON must be an object carrying "positions"')
    graph = graph_from_dict(data)
    pos = parse_points(data["positions"], dims=(2, 3))
    if "dim" in data and pos.shape[1] != data["dim"]:
        raise InvalidInputError(f'positions are {pos.shape[1]}-dimensional but "dim" says {data["dim"]}')
    return Framework(graph, Configuration(pos))


def framework_from_json(text: str) -> Framework:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed framework JSON: {exc}") from exc
    return framework_from_dict(data)
