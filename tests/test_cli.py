"""Command-line interface behavior and exit codes."""
import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage.cli import main
from rigid_coverage.config import config_from_dict
from rigid_coverage.coverage import coverage_cost, voronoi_partition
from rigid_coverage.graphs import Graph, graph_from_dict, graph_to_json, laman_check

NON_LAMAN = {
    "n": 6,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4], [4, 5], [3, 5]],
}


def test_graph_gen_to_rigidity_check(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    assert main(["graph", "gen", "--n", "7", "--seed", "3", "--out", str(graph_file)]) == 0
    graph = graph_from_dict(json.loads(graph_file.read_text()))
    assert graph.n == 7 and laman_check(graph)

    assert main(["rigidity", "check", str(graph_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["laman"] is True
    assert report["violating_subset"] is None
    assert report["m"] == 2 * 7 - 3
    assert "rank" not in report  # no positions given


def test_rigidity_check_with_positions(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = {
        "n": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]],
        "positions": rng.uniform(0.0, 1.0, size=(4, 2)).tolist(),
    }
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(data))
    assert main(["rigidity", "check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == report["max_rank"] == 2 * 4 - 3
    assert report["rigid"] is True


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "1", "inf"])
def test_rigidity_check_tolerance_outside_the_unit_interval_exits_1(tmp_path, capsys, tol):
    path = tmp_path / "fw.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "positions": [[0, 0], [1, 0], [0, 1]]}))
    assert main(["rigidity", "check", str(path), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rank tolerance must lie in (0, 1)")


def test_rigidity_check_reports_violating_subset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_LAMAN))
    assert main(["rigidity", "check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["laman"] is False
    assert report["violating_subset"] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "graph",
    [
        {"n": "x", "edges": []},
        {"n": 3, "edges": [[1, "a"]]},
        {"n": 3, "edges": [[0]]},
        {"n": 3},
        {"n": 3.9, "edges": [[0, 1.7], [True, 2], [0, 2]]},
        {"n": 3, "edges": [[0, 1.7], [1, 2], [0, 2]]},
        {"n": 3, "edges": [[True, 2], [0, 1], [0, 2]]},
    ],
)
@pytest.mark.parametrize("command", [["rigidity", "check", "{path}"], ["recover", "--graph", "{path}", "--lose", "0"]])
def test_malformed_graph_exits_1(tmp_path, capsys, graph, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    assert main([arg.format(path=path) for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


BAD_POSITIONS = [[[0, 0], [1, "a"], [0, 1]], [[0, 0], [1], [0, 1]], [0, 1, 2], [[0, 0], None, [0, 1]], "xy"]


@pytest.mark.parametrize("positions", BAD_POSITIONS)
def test_malformed_framework_positions_exit_1(tmp_path, capsys, positions):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "positions": positions}))
    assert main(["rigidity", "check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


NON_FINITE_POSITIONS = [[[float("nan"), 0.5], [0.2, 0.2]], [[0.2, 0.2], [0.6, float("-inf")]]]


@pytest.mark.parametrize("positions", BAD_POSITIONS + NON_FINITE_POSITIONS + [[[0.2, 0.2, 0.0], [0.6, 0.3, 0.0]]])
def test_malformed_coverage_positions_exit_1(tmp_path, capsys, positions):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_scenario()))
    pos_path = tmp_path / "pos.json"
    pos_path.write_text(json.dumps(positions))
    assert main(["coverage", "cost", "--config", str(cfg_path), "--positions", str(pos_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


DELETE = object()
RAGGED_REGION = [[0, 0], [1], [1, 1], [0, 1]]
TEXT_REGION = [[0, 0], [1, "a"], [1, 1], [0, 1]]
GRID = {"type": "grid", "values": [[1, 2], [3, 4]], "lo": [0, 0], "hi": [1, 1]}
TRIANGLE = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
# Laman on 6 vertices, so that only the integer check can reject a graph made from it
FAN6 = [[0, 4], [0, 1], [0, 2], [0, 3], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]
NAN, INF = float("nan"), float("inf")
# each case: (key path, new value or DELETE) edits of the benchmark scenario
BAD_CONFIGS = {
    "ragged region": [(["region"], RAGGED_REGION)],
    "non-numeric region": [(["region"], TEXT_REGION)],
    "gaussian without mean": [(["density", "mean"], DELETE)],
    "gaussian without cov_diag": [(["density", "cov_diag"], DELETE)],
    "grid without lo": [(["density"], GRID), (["density", "lo"], DELETE)],
    "grid without hi": [(["density"], GRID), (["density", "hi"], DELETE)],
    "grid without values": [(["density"], GRID), (["density", "values"], DELETE)],
    "robot without position": [
        (["robots"], [{"position": [0.2, 0.2]}, {"position": [0.6, 0.3]}, {"velocity": [0, 0]}]),
        (["graph"], TRIANGLE),
    ],
    "robot with a 3-component position": [
        (["robots"], [{"position": [0.2, 0.2]}, {"position": [0.6, 0.3, 0.0]}, {"position": [0.4, 0.7]}]),
        (["graph"], TRIANGLE),
    ],
    "robot with a 3-component velocity": [
        (["robots"], [{"position": [0.2, 0.2]}, {"position": [0.6, 0.3], "velocity": [0, 0, 0]}, {"position": [0.4, 0.7]}]),
        (["graph"], TRIANGLE),
    ],
    "ragged initial positions": [(["robots", "initial_positions", 3], [0.3])],
    "non-numeric steps": [(["steps"], "x")],
    "fractional graph vertex": [(["graph"], {"n": 6, "edges": [[0, 4.9]] + FAN6[1:]})],
    "fractional graph vertex count": [(["graph"], {"n": 6.5, "edges": FAN6})],
    "boolean graph vertex": [(["graph"], {"n": 6, "edges": FAN6[:5] + [[True, 2]] + FAN6[6:]})],
    "non-numeric solver option": [(["mpc", "solver"], {"max_iter": "x"})],
    "gaussian components not a list": [(["density"], {"type": "gaussian", "components": 5})],
    "graph generator not an object": [(["graph", "generate"], "x")],
    "zero horizon": [(["mpc", "horizon"], 0)],
    "mpc not an object": [(["mpc"], 5)],
    "weights not an object": [(["mpc", "weights"], [])],
    "solver options not an object": [(["mpc", "solver"], [])],
    "terminal not an object": [(["terminal"], 5)],
    "NaN Q": [(["mpc", "weights", "Q"], NAN)],
    "infinite R": [(["mpc", "weights", "R"], INF)],
    "NaN bearing weight": [(["mpc", "weights", "w_b"], NAN)],
    "negative generator seed": [(["graph", "generate", "seed"], -1)],
    "NaN c_fraction": [(["terminal"], {"c_fraction": NAN})],
    # the terminal block takes only Q, R and c_fraction: other keys fail whatever their value
    "negative n_directions": [(["terminal"], {"n_directions": -3})],
    "zero n_directions": [(["terminal"], {"n_directions": 0})],
    "fractional n_directions": [(["terminal"], {"n_directions": 1.5})],
    "terminal seed": [(["terminal"], {"seed": 0})],
    "misspelt terminal key": [(["terminal"], {"c_fracton": 0.5})],
    "NaN step size": [(["robots", "model", "h"], NAN)],
    "NaN drag": [(["robots", "model"], {"type": "drag_double_integrator", "drag": NAN})],
    "NaN grid value": [(["density"], GRID), (["density", "values", 0], [NAN, 2])],
    "infinite grid value": [(["density"], GRID), (["density", "values", 1], [3, INF])],
    "grid lo of three components": [(["density"], GRID), (["density", "lo"], [0, 0, 0])],
    "NaN gaussian mean": [(["density", "mean"], [NAN, 0.7])],
    "NaN gaussian weight": [(["density", "weight"], NAN)],
    "fractional steps": [(["steps"], 2.5)],
    "boolean steps": [(["steps"], True)],
    "fractional horizon": [(["mpc", "horizon"], 2.5)],
    "fractional fault step": [(["faults"], [{"at_step": 1.5, "robot": 0}])],
    "boolean fault robot": [(["faults"], [{"at_step": 1, "robot": True}])],
    "fractional seed": [(["seed"], 1.5)],
    "boolean step size": [(["robots", "model", "h"], True)],
    "text mu": [(["mpc", "weights", "mu"], "0.5")],
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_malformed_config_exits_1(tmp_path, capsys, case, command):
    data = make_scenario(steps=2)
    for path, value in BAD_CONFIGS[case]:
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        if value is DELETE:
            del entry[path[-1]]
        else:
            entry[path[-1]] = copy.deepcopy(value)  # later edits must not reach the constants
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    args = ["--config", str(path)] + (["--out", str(tmp_path / "run")] if command == "simulate" else [])
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("region", [RAGGED_REGION, TEXT_REGION])
def test_malformed_coverage_region_exits_1(tmp_path, capsys, region):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(make_scenario(), region=region)))
    pos_path = tmp_path / "pos.json"
    pos_path.write_text(json.dumps([[0.2, 0.2], [0.6, 0.3]]))
    assert main(["coverage", "cost", "--config", str(cfg_path), "--positions", str(pos_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: region: ") and "Traceback" not in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_validate_names_a_non_finite_position(tmp_path, capsys, value):
    data = make_scenario(steps=2)
    data["robots"]["initial_positions"][0] = [value, 0.2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: initial position of robot 0 is not finite")


def test_recover_non_laman_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_LAMAN))
    for command in (["recover", "--graph", str(path), "--lose", "0"], ["recover", "plan", "--graph", str(path)]):
        assert main(command) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_recover_loss_and_plan(tmp_path, capsys):
    fan = Graph(6, frozenset([(0, j) for j in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5)]))
    path = tmp_path / "fan.json"
    path.write_text(graph_to_json(fan))

    assert main(["recover", "--graph", str(path), "--lose", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lost"] == 0
    assert payload["new_edges"] == [[1, 3], [1, 4], [1, 5]]
    assert payload["contraction_vertex"] == 1

    assert main(["recover", "plan", "--graph", str(path)]) == 0
    plan = json.loads(capsys.readouterr().out)
    covered = {int(v) for key in plan for v in key.split(":")}
    assert covered == set(range(6))  # every possible loss has a prepared entry

    assert main(["recover", "--graph", str(path)]) == 1
    assert "--lose" in capsys.readouterr().err


def test_coverage_cost_matches_library(tmp_path, capsys):
    scenario = make_scenario()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(scenario))
    positions = [[0.2, 0.2], [0.6, 0.3], [0.4, 0.8]]
    pos_path = tmp_path / "pos.json"
    pos_path.write_text(json.dumps(positions))

    assert main(["coverage", "cost", "--config", str(cfg_path), "--positions", str(pos_path)]) == 0
    printed = float(capsys.readouterr().out)

    cfg = config_from_dict(scenario)
    pts = np.asarray(positions)
    expected = coverage_cost(pts, voronoi_partition(pts, cfg.region), cfg.density)
    assert printed == pytest.approx(expected, rel=1e-8)


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_scenario(steps=3)))
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_non_laman_config(tmp_path, capsys):
    data = make_scenario(steps=3)
    data["graph"] = NON_LAMAN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "violating subset" in err


def test_validate_missing_file(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["validate", "--config", str(missing)]) == 1
    assert "absent.json" in capsys.readouterr().err


def test_simulate_writes_artifacts(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_scenario(steps=2)))
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert "wrote" in err and str(out_dir) in err
    for name in ("trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"):
        assert (out_dir / name).is_file()


def test_simulate_seed_override(tmp_path):
    data = make_scenario(steps=2)
    del data["graph"]["generate"]["seed"]  # let the global seed drive generation
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))

    for seed in ("7", "7", "8"):
        out = tmp_path / f"run-{seed}-{np.random.randint(1 << 30)}"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", seed]) == 0
    runs = sorted(tmp_path.glob("run-*"))
    a, b, c = (p / "trajectories.csv" for p in runs)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_out_collides_with_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(make_scenario(steps=1)))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_arguments_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", "x.json", "--frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["telemetry"])
    assert info.value.code == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rigid_coverage.cli", "graph", "gen", "--n", "5", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    graph = graph_from_dict(json.loads(proc.stdout))
    assert graph.n == 5 and laman_check(graph)
