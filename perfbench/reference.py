"""Reference evaluations that the correctness gate checks the closed loop with.

The program reports its own locational cost ``H`` (adaptive polygon
quadrature) and rigidity rank (SVD with a relative threshold of 1e-8).  Both
are estimates with tolerances of their own, while the guarantees the gate
checks are statements about the recorded trajectory itself.  So the gate
evaluates them here, independently of the program's numerics:

* ``H`` with a fixed, fine rule: Voronoi cells clipped here, each fanned into
  triangles, every triangle split ``LEVELS`` times and integrated with a
  collapsed ``NODES`` x ``NODES`` Gauss-Legendre product rule;
* the rank of the distance rigidity matrix at numpy's default round-off
  tolerance (in the plane, infinitesimal bearing rigidity and infinitesimal
  distance rigidity coincide; both mean rank ``2n - 3``).

Only ``density(points)`` of the config is called, so none of this runs
through the layers the tracer wraps.
"""

from __future__ import annotations

import numpy as np

LEVELS = 2
NODES = 8
# A rise of the reference H smaller than this share of H is round-off: the
# rule above agrees with one more level of splitting to better than 1e-14 of H.
H_RTOL = 1e-12

_x, _w = np.polynomial.legendre.leggauss(NODES)
_x, _w = (_x + 1) / 2, _w / 2
_U, _V = (a.ravel() for a in np.meshgrid(_x, _x, indexing="ij"))
_W = np.outer(_w, _w).ravel()


def voronoi_cells(sites: np.ndarray, region: np.ndarray) -> list:
    """Cell of every site within the convex region (counter-clockwise)."""
    cells = []
    for i, s in enumerate(sites):
        others = np.delete(np.arange(len(sites)), i)
        dist = np.linalg.norm(sites[others] - s, axis=1)
        poly = region
        for j, d in sorted(zip(others, dist), key=lambda t: t[1]):
            # A site beyond twice the cell's radius cannot cut the cell.
            if d > 2 * np.max(np.linalg.norm(poly - s, axis=1)):
                break
            normal = sites[j] - s
            poly = _clip(poly, normal, normal @ (sites[j] + s) / 2)
        cells.append(poly)
    return cells


def _clip(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Part of a convex polygon where ``normal . x <= offset``."""
    side = poly @ normal - offset
    out = []
    for k in range(len(poly)):
        nxt = (k + 1) % len(poly)
        if side[k] <= 0:
            out.append(poly[k])
        if (side[k] < 0 < side[nxt]) or (side[nxt] < 0 < side[k]):
            t = side[k] / (side[k] - side[nxt])
            out.append(poly[k] + t * (poly[nxt] - poly[k]))
    return np.asarray(out)


def _triangles(poly: np.ndarray) -> np.ndarray:
    tris = np.stack([np.broadcast_to(poly[0], poly[1:-1].shape), poly[1:-1], poly[2:]], axis=1)
    for _ in range(LEVELS):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tris = np.concatenate([np.stack(t, axis=1) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    return tris


def locational_cost(positions: np.ndarray, region: np.ndarray, density) -> float:
    """H = sum over cells of the integral of |x - p_i|^2 density(x).

    One cell at a time, so that the arrays stay small next to the program's
    own memory (``peak_rss_mb`` is an end-to-end metric).
    """
    total = 0.0
    for p, cell in zip(positions, voronoi_cells(positions, region)):
        tris = _triangles(cell)
        a, b, c = tris[:, 0, None], tris[:, 1, None], tris[:, 2, None]
        # Collapsed square -> triangle: x = a + u (b - a) + u v (c - b).
        pts = (a + _U[:, None] * (b - a) + (_U * _V)[:, None] * (c - b)).reshape(-1, 2)
        e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        twice_area = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        weights = (twice_area[:, None] * (_W * _U)[None, :]).ravel()
        values = np.sum((pts - p) ** 2, axis=1) * np.asarray(density(pts))
        total += float(weights @ values)
    return total


def rigidity_rank(positions: np.ndarray, edges) -> int:
    """Rank of the distance rigidity matrix, numpy's default tolerance."""
    R = np.zeros((len(edges), 2 * len(positions)))
    for row, (i, j) in enumerate(edges):
        e = positions[i] - positions[j]
        R[row, 2 * i : 2 * i + 2] = e
        R[row, 2 * j : 2 * j + 2] = -e
    return int(np.linalg.matrix_rank(R))
