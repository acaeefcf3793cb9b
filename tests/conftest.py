"""Shared fixtures: canonical graphs, regions, models, and scenario configs."""
import os

import numpy as np
import pytest

from rigid_coverage.dynamics import DoubleIntegrator, DragDoubleIntegrator
from rigid_coverage.geometry import ConvexRegion
from rigid_coverage.graphs import Graph
from rigid_coverage.terminal import build_terminal_set

SCENARIO_Q = np.diag([10.0, 10.0, 1.0, 1.0])
SCENARIO_R = 0.1 * np.eye(2)
SCENARIO_S = 100.0 * np.eye(2)


def pytest_report_header(config):
    # some solves depend on round-off, which depends on the BLAS thread count
    # (ROADMAP.md item 2): show which setting a log ran under
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, OPENBLAS_NUM_THREADS={threads}, cpu_count={os.cpu_count()}"


@pytest.fixture(scope="session")
def fan6():
    # hub 0 joined to everything, plus the rim path 1-2-3-4-5
    edges = [(0, j) for j in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5)]
    return Graph(6, frozenset(edges))


@pytest.fixture(scope="session")
def triangle():
    return Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))


@pytest.fixture(scope="session")
def unit_square():
    return ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


@pytest.fixture(scope="session")
def double_integrator():
    return DoubleIntegrator()


@pytest.fixture(scope="session")
def drag_model():
    return DragDoubleIntegrator()


@pytest.fixture(scope="session")
def terminal_double(double_integrator):
    return build_terminal_set(double_integrator, SCENARIO_Q, SCENARIO_R)


@pytest.fixture(scope="session")
def terminal_drag(drag_model):
    return build_terminal_set(drag_model, SCENARIO_Q, SCENARIO_R)


def make_scenario(mu=0.7, steps=20, faults=(), model="double_integrator", seed=42):
    """Config dict for the standard 6-robot benchmark scenario."""
    cfg = {
        "region": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "density": {"type": "gaussian", "mean": [0.7, 0.7], "cov_diag": [0.04, 0.04]},
        "robots": {
            "model": {"type": model},
            "initial_positions": [
                [0.15, 0.15], [0.25, 0.12], [0.12, 0.28],
                [0.30, 0.25], [0.20, 0.35], [0.35, 0.12],
            ],
        },
        "graph": {"generate": {"n": 6, "seed": seed, "split_prob": 0.5}},
        "mpc": {
            "horizon": 10,
            "weights": {"Q": [10, 10, 1, 1], "R": 0.1, "S_r": 100, "w_b": 1.0, "mu": mu},
        },
        "epsilon": 0.02,
        "steps": steps,
        "seed": seed,
    }
    if faults:
        cfg["faults"] = list(faults)
    return cfg


@pytest.fixture(scope="session")
def scenario_config():
    return make_scenario
