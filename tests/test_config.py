"""Config parsing and validation."""
import json
import re

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage.config import config_from_dict, load_config
from rigid_coverage.coverage import GaussianMixtureDensity, GridDensity, UniformDensity
from rigid_coverage.dynamics import DragDoubleIntegrator
from rigid_coverage.errors import InvalidInputError
from rigid_coverage.graphs import laman_check


def test_benchmark_scenario_parses():
    cfg = config_from_dict(make_scenario(mu=0.7, steps=25))
    assert cfg.n_robots == 6
    assert cfg.steps == 25
    assert cfg.horizon == 10
    assert laman_check(cfg.graph)
    assert np.allclose(cfg.weights.Q, np.diag([10.0, 10.0, 1.0, 1.0]))
    assert np.allclose(cfg.weights.R, 0.1 * np.eye(2))
    assert cfg.weights.mu == pytest.approx(0.7)
    assert cfg.faults == ()
    assert cfg.initial_states.shape == (6, 4)
    assert np.all(cfg.initial_states[:, 2:] == 0.0)


@pytest.mark.parametrize("key", ["region", "robots", "steps"])
def test_missing_required_field(key):
    data = make_scenario()
    del data[key]
    with pytest.raises(InvalidInputError, match=key):
        config_from_dict(data)


def test_bad_region_rejected():
    data = make_scenario()
    data["region"] = [[0, 0], [0, 1], [1, 1], [1, 0]]  # clockwise
    with pytest.raises(InvalidInputError):
        config_from_dict(data)
    data["region"] = [[0, 0], [1, 0]]
    with pytest.raises(InvalidInputError):
        config_from_dict(data)


def test_position_outside_region():
    data = make_scenario()
    data["robots"]["initial_positions"][3] = [1.5, 0.5]
    with pytest.raises(InvalidInputError, match="robot 3"):
        config_from_dict(data)


def test_coincident_positions():
    data = make_scenario()
    data["robots"]["initial_positions"][1] = data["robots"]["initial_positions"][0]
    with pytest.raises(InvalidInputError, match="coincident"):
        config_from_dict(data)


def test_coincident_positions_name_the_first_close_pair():
    data = make_scenario()
    pos = data["robots"]["initial_positions"]
    pos[5] = list(pos[2])
    pos[4] = [pos[1][0] + 5e-8, pos[1][1]]
    with pytest.raises(InvalidInputError, match=r"^robots 1 and 4 start at coincident positions$"):
        config_from_dict(data)
    pos[3] = [pos[0][0], pos[0][1] - 3e-8]
    with pytest.raises(InvalidInputError, match=r"^robots 0 and 3 start at coincident positions$"):
        config_from_dict(data)
    pos[3] = [pos[0][0], pos[0][1] - 2e-7]
    pos[4] = list(pos[3])
    with pytest.raises(InvalidInputError, match=r"^robots 2 and 5 start at coincident positions$"):
        config_from_dict(data)


def test_initial_velocity_out_of_bounds():
    data = make_scenario()
    data["robots"]["initial_velocities"] = [[0.0, 0.0]] * 5 + [[0.9, 0.0]]
    with pytest.raises(InvalidInputError, match="velocity"):
        config_from_dict(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field, key", [("position", "initial_positions"), ("velocity", "initial_velocities")])
def test_non_finite_initial_state_rejected(field, key, value):
    data = make_scenario()
    data["robots"]["initial_velocities"] = [[0.0, 0.0]] * 6
    data["robots"][key][3] = [0.3, value]
    with pytest.raises(InvalidInputError, match=f"initial {field} of robot 3 is not finite"):
        config_from_dict(data)
    data["robots"] = [{"position": [0.2, 0.2]}, {"position": [0.5, 0.2]}]
    data["robots"][1][field] = [value, 0.0]
    data["graph"] = {"n": 2, "edges": [[0, 1]]}
    with pytest.raises(InvalidInputError, match=f"initial {field} of robot 1 is not finite"):
        config_from_dict(data)


def test_velocity_shape_mismatch():
    data = make_scenario()
    data["robots"]["initial_velocities"] = [[0.0, 0.0]] * 3
    with pytest.raises(InvalidInputError, match="initial_velocities"):
        config_from_dict(data)


def test_explicit_graph_and_non_laman_rejection():
    data = make_scenario()
    # fan: hub plus rim path, minimally rigid
    edges = [[0, j] for j in range(1, 6)] + [[1, 2], [2, 3], [3, 4], [4, 5]]
    data["graph"] = {"n": 6, "edges": edges}
    cfg = config_from_dict(data)
    assert cfg.graph.m == 9

    # overbraced K4 glued onto a path: right edge count, wrong distribution
    data["graph"] = {
        "n": 6,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4], [4, 5], [3, 5]],
    }
    with pytest.raises(InvalidInputError, match="violating subset"):
        config_from_dict(data)


def test_graph_size_mismatch():
    data = make_scenario()
    data["graph"] = {"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 4], [2, 4]]}
    with pytest.raises(InvalidInputError, match="5"):
        config_from_dict(data)
    data["graph"] = {"generate": {"n": 4, "seed": 1}}
    with pytest.raises(InvalidInputError, match="does not match robot count"):
        config_from_dict(data)


def test_unknown_model():
    data = make_scenario()
    data["robots"]["model"] = {"type": "unicycle"}
    with pytest.raises(InvalidInputError, match="unicycle"):
        config_from_dict(data)


def test_per_robot_list_form():
    data = make_scenario()
    data["robots"] = [
        {"model": "drag_double_integrator", "drag": 0.8, "h": 0.05, "position": [0.2, 0.2]},
        {"model": "drag_double_integrator", "drag": 0.8, "h": 0.05, "position": [0.5, 0.2],
         "velocity": [0.1, 0.0]},
    ]
    data["graph"] = {"n": 2, "edges": [[0, 1]]}
    cfg = config_from_dict(data)
    assert all(isinstance(m, DragDoubleIntegrator) for m in cfg.models)
    assert cfg.initial_states[1, 2] == pytest.approx(0.1)

    data["robots"][1]["h"] = 0.1
    with pytest.raises(InvalidInputError, match="sampling time"):
        config_from_dict(data)


@pytest.mark.parametrize("field", ["position", "velocity"])
@pytest.mark.parametrize("value", [[0.3, 0.3, 0.0], [0.3], [[0.3, 0.3]]])
def test_per_robot_entries_must_be_planar_pairs(field, value):
    data = make_scenario()
    data["robots"] = [{"position": [0.2, 0.2]}, {"position": [0.5, 0.2]}, {"position": [0.4, 0.7]}]
    data["robots"][1][field] = value
    data["graph"] = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    message = f"robot 1 {field} must be [x, y], got shape {np.shape(value)}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


def test_density_variants():
    data = make_scenario()
    del data["density"]
    assert isinstance(config_from_dict(data).density, UniformDensity)

    data["density"] = {"type": "gaussian", "mean": [0.5, 0.5], "cov_diag": [0.1, 0.1]}
    assert isinstance(config_from_dict(data).density, GaussianMixtureDensity)

    data["density"] = {
        "type": "gaussian",
        "components": [
            {"mean": [0.3, 0.3], "cov_diag": [0.05, 0.05], "weight": 2.0},
            {"mean": [0.8, 0.8], "cov_diag": [0.02, 0.02]},
        ],
    }
    density = config_from_dict(data).density
    assert len(density.components) == 2
    assert density.components[0].weight == pytest.approx(2.0)

    data["density"] = {"type": "grid", "values": [[1.0, 2.0], [3.0, 4.0]],
                       "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    assert isinstance(config_from_dict(data).density, GridDensity)

    data["density"] = {"type": "ring"}
    with pytest.raises(InvalidInputError, match="ring"):
        config_from_dict(data)


def test_weight_matrix_forms():
    data = make_scenario()
    data["mpc"]["weights"]["Q"] = 2.0
    cfg = config_from_dict(data)
    assert np.allclose(cfg.weights.Q, 2.0 * np.eye(4))

    full = np.diag([1.0, 2.0, 3.0, 4.0])
    data["mpc"]["weights"]["Q"] = full.tolist()
    assert np.allclose(config_from_dict(data).weights.Q, full)

    data["mpc"]["weights"]["Q"] = [1.0, 2.0, 3.0]
    with pytest.raises(InvalidInputError, match="Q"):
        config_from_dict(data)


def test_asymmetric_weight_matrix_rejected():
    # eigh reads one triangle, so the solver would weigh [[100, 0], [0, 100]]
    # while offset_optimum weighs the matrix as given
    data = make_scenario()
    data["mpc"]["weights"]["S_r"] = [[100, 60], [0, 100]]
    with pytest.raises(InvalidInputError, match="^S_r must be symmetric"):
        config_from_dict(data)


def test_solver_options():
    data = make_scenario()
    data["mpc"]["solver"] = {"max_iter": 60, "tol_stationarity": 1e-5}
    cfg = config_from_dict(data)
    assert cfg.solver.max_iter == 60
    assert cfg.solver.tol_stationarity == pytest.approx(1e-5)

    data["mpc"]["solver"] = {"speed": 11}
    with pytest.raises(InvalidInputError, match="speed"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "options",
    [{"max_iter": "x"}, {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True}, {"tol_equality": 0},
     {"tol_stationarity": -1e-6}, {"backoff": -1e-4}, {"regularization": "1e-9"}],
)
def test_solver_option_types_and_signs(options):
    data = make_scenario()
    data["mpc"]["solver"] = options
    with pytest.raises(InvalidInputError, match=f"solver option {next(iter(options))}"):
        config_from_dict(data)


def test_smallest_solver_options_are_valid():
    data = make_scenario()
    data["mpc"]["solver"] = {"max_iter": 1, "backoff": 0, "regularization": 0.0}
    assert config_from_dict(data).solver.max_iter == 1


@pytest.mark.parametrize("key", ["penalty_init", "penalty_max", "armijo", "max_linesearch"])
def test_removed_solver_options_are_unknown(key):
    data = make_scenario()
    data["mpc"]["solver"] = {key: 1.0}
    with pytest.raises(InvalidInputError, match=f"unknown solver options.*{key}"):
        config_from_dict(data)


NAN = float("nan")
GRID = {"type": "grid", "values": [[1, 2], [3, 4]], "lo": [0, 0], "hi": [1, 1]}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["mpc"], 5, "mpc must be an object"),
        (["mpc", "weights"], [], "mpc.weights must be an object"),
        (["mpc", "solver"], [], "mpc.solver must be an object"),
        (["terminal"], 5, "terminal must be an object"),
        (["mpc", "weights", "Q"], NAN, "Q must be finite"),
        (["mpc", "weights", "R"], float("inf"), "R must be finite"),
        (["mpc", "weights", "w_b"], NAN, "bearing weight must be non-negative and finite"),
        (["graph", "generate", "seed"], -1, "graph.generate.seed must be at least 0"),
        (["terminal"], {"c_fraction": NAN}, r"terminal.c_fraction must lie in \(0, 1\)"),
        (["terminal"], {"n_directions": 512}, r"unknown terminal options \['n_directions'\]"),
        (["terminal"], {"seed": 0}, r"unknown terminal options \['seed'\]"),
        (["terminal"], {"c_fracton": 0.5}, r"unknown terminal options \['c_fracton'\]"),
        (["terminal"], {"n_dirs": 5, "bogus": 1}, r"unknown terminal options \['bogus', 'n_dirs'\]"),
        (["robots", "model", "h"], NAN, "step size and bounds must be positive"),
        (["robots", "model"], {"type": "drag_double_integrator", "drag": NAN}, "drag must be non-negative"),
        (["density"], dict(GRID, values=[[NAN, 2], [3, 4]]), "grid density values must be positive and finite"),
        (["density"], dict(GRID, values=[[1, 2], [3, float("inf")]]), "grid density values must be positive"),
        (["density"], dict(GRID, hi=[1, 1, 1]), "grid bounds lo and hi must be 2-vectors"),
        (["density", "mean"], [NAN, 0.7], "component mean must be finite"),
        (["density", "weight"], NAN, "component weights and variances must be positive"),
        (["steps"], 2.5, "steps must be an integer"),
        (["steps"], True, "steps must be an integer"),
        (["mpc", "horizon"], 2.5, "mpc.horizon must be an integer"),
        (["faults"], [{"at_step": 1.5, "robot": 0}], "at_step must be an integer"),
        (["faults"], [{"at_step": 1, "robot": False}], "robot must be an integer"),
        (["seed"], 1.5, "seed must be an integer"),
        (["robots", "model", "h"], True, "h must be a number, got True"),
        (["mpc", "weights", "mu"], "0.5", "mu must be a number, got '0.5'"),
        (["graph"], {"n": 6.5, "edges": []}, "graph n must be an integer, got 6.5"),
        (["graph"], {"n": 6, "edges": [[0, 1.7]]}, "graph vertex must be an integer, got 1.7"),
        (["graph"], {"n": 6, "edges": [[True, 2]]}, "graph vertex must be an integer, got True"),
    ],
)
def test_malformed_field_is_named(path, value, message):
    data = make_scenario()
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        config_from_dict(data)


def test_integral_floats_are_integers():
    data = make_scenario(steps=7)
    data["steps"], data["mpc"]["horizon"], data["seed"] = 7.0, 10.0, 42.0
    cfg = config_from_dict(data)
    assert (cfg.steps, cfg.horizon, cfg.seed) == (7, 10, 42)
    assert type(cfg.steps) is int and type(cfg.horizon) is int


def test_epsilon_validation():
    data = make_scenario()
    data["epsilon"] = -0.1
    with pytest.raises(InvalidInputError, match="epsilon"):
        config_from_dict(data)
    data["epsilon"] = 0.6  # shrinking the unit square by 0.6 per side empties it
    with pytest.raises(InvalidInputError, match="empty"):
        config_from_dict(data)


def test_steps_validation():
    data = make_scenario()
    data["steps"] = 0
    with pytest.raises(InvalidInputError, match="steps"):
        config_from_dict(data)


def test_fault_validation():
    base = make_scenario(steps=20)

    data = dict(base, faults=[{"at_step": 5, "robot": 2}, {"at_step": 5, "robot": 3}])
    with pytest.raises(InvalidInputError, match="one fault per step"):
        config_from_dict(data)

    data = dict(base, faults=[{"at_step": 25, "robot": 2}])
    with pytest.raises(InvalidInputError, match="beyond"):
        config_from_dict(data)

    data = dict(base, faults=[{"at_step": 3, "robot": 2}, {"at_step": 7, "robot": 2}])
    with pytest.raises(InvalidInputError, match="already-removed"):
        config_from_dict(data)

    data = dict(base, faults=[{"at_step": 2, "robot": 9}])
    with pytest.raises(InvalidInputError, match="unknown"):
        config_from_dict(data)

    data = dict(base, faults=[{"step": 2, "robot": 3}])
    with pytest.raises(InvalidInputError, match="at_step"):
        config_from_dict(data)

    # removals are fine as long as someone survives
    faults = [{"at_step": k + 1, "robot": k} for k in range(5)]
    cfg = config_from_dict(dict(base, faults=faults))
    assert len(cfg.faults) == 5
    assert cfg.faults[0].at_step == 1


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidInputError, match="nope.json"):
        load_config(str(missing))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError, match="bad.json"):
        load_config(str(bad))


def test_load_config_round_trip(tmp_path):
    data = make_scenario(mu=0.1, steps=7, faults=[{"at_step": 2, "robot": 1}])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    cfg = load_config(str(path))
    ref = config_from_dict(data)
    assert cfg.steps == ref.steps == 7
    assert cfg.weights.mu == pytest.approx(0.1)
    assert cfg.graph.edges == ref.graph.edges
    assert np.array_equal(cfg.initial_states, ref.initial_states)
    assert cfg.faults == ref.faults
