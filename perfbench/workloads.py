"""Seeded episode generators for the four benchmark workloads.

An episode is one config dictionary, passed unchanged to
``rigid_coverage.config_from_dict``.  Episode ``i`` of workload seed ``s``
draws from ``numpy.random.default_rng([s, i])``, so episodes are independent
of each other and of how many a run executes.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0
UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
# The paper's 6-robot benchmark: robots start bunched in the lower-left
# corner and spread towards a Gaussian bump at (0.7, 0.7).
PAPER_POSITIONS = [
    [0.15, 0.15], [0.25, 0.12], [0.12, 0.28],
    [0.30, 0.25], [0.20, 0.35], [0.35, 0.12],
]
PAPER_WEIGHTS = {"Q": [10, 10, 1, 1], "R": 0.1, "S_r": 100, "w_b": 1.0, "mu": 0.7}


def _scenario(positions, density, *, graph_seed, steps, faults=(), model="double_integrator", horizon=10):
    cfg = {
        "region": UNIT_SQUARE,
        "density": density,
        "robots": {"model": {"type": model}, "initial_positions": positions},
        "graph": {"generate": {"n": len(positions), "seed": graph_seed, "split_prob": 0.5}},
        "mpc": {"horizon": horizon, "weights": dict(PAPER_WEIGHTS)},
        "epsilon": 0.02,
        "steps": steps,
        "seed": graph_seed,
    }
    if faults:
        cfg["faults"] = [{"at_step": k, "robot": r} for k, r in faults]
    return cfg


def _spread(rng, n, lo, hi, min_sep):
    """n points uniform in [lo, hi]^2, redrawn until pairwise >= min_sep apart."""
    points: list = []
    while len(points) < n:
        p = rng.uniform(lo, hi, size=2)
        if all(np.hypot(*(p - q)) >= min_sep for q in points):
            points.append(p)
    return [[round(float(x), 6), round(float(y), 6)] for x, y in points]


def fault6(seed: int, episode: int) -> dict:
    """The paper's 6-robot fault run (criterion 10), with seeded variations.

    Episode 0 of the default seed is exactly the reference run: graph seed
    42, robot 2 lost at step 50 of 140.
    """
    gauss = {"type": "gaussian", "mean": [0.7, 0.7], "cov_diag": [0.04, 0.04]}
    if seed == DEFAULT_SEED and episode == 0:
        return _scenario(PAPER_POSITIONS, gauss, graph_seed=42, steps=140, faults=[(50, 2)])
    rng = np.random.default_rng([seed, episode])
    jitter = rng.uniform(-0.03, 0.03, size=(6, 2))
    positions = [[round(float(x), 6), round(float(y), 6)] for x, y in np.asarray(PAPER_POSITIONS) + jitter]
    fault = (int(rng.integers(45, 56)), 2)
    return _scenario(positions, gauss, graph_seed=42, steps=140, faults=[fault])


# One fixed 96-vertex Henneberg graph.  closing_ranks falls back to trying
# every (degree - 2)-subset of candidate edges when no neighbour of the lost
# vertex is contractible; on random 96-vertex graphs that made single plan
# builds take 22 s and 41 s, unbounded in the vertex degree.  Every
# single-loss plan of this graph builds in 1.0-2.7 s.
SWARM_GRAPH_SEED = 0


def swarm96(seed: int, episode: int) -> dict:
    """96 robots over the whole square, two Gaussian bumps, one loss."""
    rng = np.random.default_rng([seed, episode])
    positions = _spread(rng, 96, 0.03, 0.97, 0.02)
    density = {
        "type": "gaussian",
        "components": [
            {"mean": [0.3, 0.35], "cov_diag": [0.03, 0.03], "weight": 1.0},
            {"mean": [0.7, 0.6], "cov_diag": [0.03, 0.03], "weight": 0.6},
        ],
    }
    fault = (int(rng.integers(2, 6)), int(rng.integers(0, 96)))
    return _scenario(positions, density, graph_seed=SWARM_GRAPH_SEED, steps=8, faults=[fault])


def drag4_h40(seed: int, episode: int) -> dict:
    """4 drag-model robots with a 40-step horizon, no loss."""
    rng = np.random.default_rng([seed, episode])
    positions = _spread(rng, 4, 0.1, 0.4, 0.08)
    density = {"type": "gaussian", "mean": [0.7, 0.7], "cov_diag": [0.04, 0.04]}
    return _scenario(
        positions, density, graph_seed=int(rng.integers(0, 2**31)), steps=20,
        model="drag_double_integrator", horizon=40,
    )


def cascade12(seed: int, episode: int) -> dict:
    """A 12-robot team on uniform density losing a robot every other step
    until 6 survive.  The team starts on a jittered 4 x 3 grid."""
    rng = np.random.default_rng([seed, episode])
    grid = np.array([[(i + 0.5) / 4, (j + 0.5) / 3] for j in range(3) for i in range(4)])
    jitter = rng.uniform(-0.06, 0.06, size=grid.shape)
    positions = [[round(float(x), 6), round(float(y), 6)] for x, y in grid + jitter]
    lost = rng.permutation(12)[:6]
    faults = [(1 + 2 * i, int(r)) for i, r in enumerate(lost)]
    return _scenario(positions, {"type": "uniform"}, graph_seed=int(rng.integers(0, 2**31)), steps=14, faults=faults)


WORKLOADS = {f.__name__: f for f in (fault6, swarm96, drag4_h40, cascade12)}
