"""Closed-loop simulation: trace contents, determinism, faults, export."""
import json
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage import coverage, sim
from rigid_coverage.config import config_from_dict
from rigid_coverage.coverage import coverage_cost, voronoi_partition
from rigid_coverage.errors import InvalidInputError, NumericalBreakdownError
from rigid_coverage.graphs import henneberg_generate
from rigid_coverage.recovery import build_recovery_plan
from rigid_coverage.sim import SimTrace, export, run


@pytest.fixture(scope="module")
def short_trace():
    return run(config_from_dict(make_scenario(mu=0.7, steps=12)))


@pytest.fixture(scope="module")
def fault_trace():
    cfg = config_from_dict(make_scenario(mu=0.7, steps=8, faults=[{"at_step": 3, "robot": 2}]))
    return run(cfg)


def test_one_record_per_step(short_trace):
    assert len(short_trace.records) == 12
    assert [r.k for r in short_trace.records] == list(range(12))
    for rec in short_trace.records:
        assert rec.states.shape == (6, 4)
        assert rec.inputs.shape == (6, 2)
        assert rec.references.shape == (6, 2)
        assert len(rec.costs) == 6


def test_states_replay_under_model(short_trace):
    cfg = config_from_dict(make_scenario(mu=0.7, steps=12))
    model = cfg.models[0]
    recs = short_trace.records
    for prev, nxt in zip(recs, recs[1:]):
        expected = np.array([model.step(x, u) for x, u in zip(prev.states, prev.inputs)])
        assert np.allclose(nxt.states, expected, atol=1e-12)


def test_coverage_cost_recomputes_from_snapshot(short_trace):
    cfg = config_from_dict(make_scenario(mu=0.7, steps=12))
    rec = short_trace.records[5]
    positions = rec.states[:, :2]
    partition = voronoi_partition(positions, cfg.region)
    H = coverage_cost(positions, partition, cfg.density)
    assert H == pytest.approx(rec.coverage_cost, rel=1e-12)


def test_summary_consistency(short_trace):
    s = short_trace.summary
    assert s["steps"] == 12
    assert s["n_robots_initial"] == s["n_robots_final"] == 6
    assert s["n_events"] == 0
    assert s["n_partition_updates"] == sum(r.updated for r in short_trace.records)
    assert set(s["final_positions"]) == {str(i) for i in range(6)}
    assert s["final_rigidity"]["laman"] is True
    assert s["final_rigidity"]["rank"] == 2 * 6 - 3


def test_coverage_cost_non_increasing_at_updates(short_trace):
    prev = None
    for rec in short_trace.records:
        if rec.updated and prev is not None:
            assert rec.coverage_cost <= prev + 1e-8
        prev = rec.coverage_cost


def test_one_moment_pass_per_step(monkeypatch):
    # an update step reads its centroids and H from one moment evaluation
    # over its partition; the final H of the summary takes one more.  The
    # Gaussian density's exact kernel takes every one: no cell reaches the
    # fan-rule quadrature.
    kernel_calls, quadrature_calls = [], []
    kernel = coverage.GaussianMixtureDensity.moments

    def counted(density, cells, sites):
        kernel_calls.append(cells)
        return kernel(density, cells, sites)

    monkeypatch.setattr(coverage.GaussianMixtureDensity, "moments", counted)
    monkeypatch.setattr(coverage, "_fan_moments", lambda *args, **kwargs: quadrature_calls.append(args))
    steps = 12
    trace = run(config_from_dict(make_scenario(mu=0.7, steps=steps, faults=[{"at_step": 5, "robot": 2}])))
    assert sum(r.updated for r in trace.records) > 2
    assert len(kernel_calls) == steps + 1
    assert quadrature_calls == []


@pytest.mark.parametrize("faults", [[], [{"at_step": 0, "robot": 1}, {"at_step": 3, "robot": 4}]])
def test_one_recovery_plan_per_fault(monkeypatch, faults):
    # the plan is built where it is read, at the fault, on the graph of the
    # moment; a run without faults builds none
    built = []
    monkeypatch.setattr(sim, "build_recovery_plan", lambda graph: built.append(graph.n) or build_recovery_plan(graph))
    run(config_from_dict(make_scenario(mu=0.7, steps=5, faults=faults)))
    assert built == [6 - i for i in range(len(faults))]


def test_recorded_coverage_cost_does_not_rise_at_updates_after_a_fault():
    # a jittered start of the 6-robot fault run on which the recorded H once
    # rose at the update of step 139: two subdivision levels of one cell
    # agreed by chance while both were off by 2.2e-6
    cfg = make_scenario(mu=0.7, steps=140, faults=[{"at_step": 48, "robot": 2}])
    cfg["robots"]["initial_positions"] = [
        [0.136102, 0.129058], [0.233184, 0.118837], [0.117628, 0.293298],
        [0.318913, 0.23919], [0.210036, 0.360148], [0.375284, 0.134002],
    ]
    records = run(config_from_dict(cfg)).records
    rises = [
        rec.k
        for prev, rec in zip(records, records[1:])
        if rec.updated and rec.k != 48 and rec.coverage_cost > prev.coverage_cost
    ]
    assert sum(r.updated for r in records) > 100
    assert rises == []


def test_fault_shrinks_team_and_repairs_graph(fault_trace):
    recs = fault_trace.records
    assert recs[2].robot_ids == (0, 1, 2, 3, 4, 5)
    assert recs[3].robot_ids == (0, 1, 3, 4, 5)
    assert recs[3].states.shape == (5, 4)

    assert len(fault_trace.events) == 1
    event = fault_trace.events[0]
    assert event["at_step"] == 3
    assert event["robot"] == 2
    assert event["laman"] is True
    assert event["rigid"] is True
    assert event["edge_count"] == 2 * 5 - 3
    for i, j in event["new_edges"]:
        assert 2 not in (i, j)

    # bearing bookkeeping sticks to original ids and drops the lost robot
    for i, j in recs[3].desired_bearings:
        assert i in recs[3].robot_ids and j in recs[3].robot_ids
    assert fault_trace.summary["alive"] == [0, 1, 3, 4, 5]
    assert fault_trace.summary["n_events"] == 1
    # rank falls from 2n-3 of six robots to 2n-3 of five
    assert recs[2].rigidity_rank == 9
    assert recs[3].rigidity_rank == 7


def test_faults_from_step_0_on_consecutive_steps_down_to_one_robot(tmp_path):
    lost = [2, 0, 5, 1, 3]
    faults = [{"at_step": k, "robot": r} for k, r in enumerate(lost)]
    trace = run(config_from_dict(make_scenario(mu=0.7, steps=len(lost) + 1, faults=faults)))
    assert [e["robot"] for e in trace.events] == lost
    for survivors, event in zip(range(5, 0, -1), trace.events):
        assert event["edge_count"] == max(2 * survivors - 3, 0)
        if survivors >= 2:
            assert event["laman"] is True and event["rigid"] is True
    assert trace.events[-1]["laman"] is None
    assert trace.records[-1].robot_ids == (4,)
    assert trace.summary["alive"] == [4]
    assert export(trace, tmp_path) == ["trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"]
    assert json.loads((tmp_path / "events.json").read_text())[-1]["laman"] is None


def test_rerun_is_deterministic(short_trace):
    again = run(config_from_dict(make_scenario(mu=0.7, steps=12)))
    for a, b in zip(short_trace.records, again.records):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)
    assert short_trace.summary == again.summary


def test_import_loads_no_thread_pool():
    # robots are solved in turn: the package needs no executor machinery
    code = "import sys, rigid_coverage; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_mixed_team_builds_one_terminal_set_per_model(monkeypatch):
    data = make_scenario(mu=0.7, steps=6, faults=[{"at_step": 2, "robot": 1}])
    kinds = ["double_integrator", "drag_double_integrator"] * 2
    positions = data["robots"]["initial_positions"][:4]
    data["robots"] = [{"position": p, "model": kind} for p, kind in zip(positions, kinds)]
    data["graph"] = {"generate": {"n": 4, "seed": 3, "split_prob": 0.5}}
    built, statuses = [], []
    build, solve = sim.build_terminal_set, sim.solve_ocp

    def counted_build(model, *args, **kwargs):
        built.append(type(model).__name__)
        return build(model, *args, **kwargs)

    def recorded_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sim, "build_terminal_set", counted_build)
    monkeypatch.setattr(sim, "solve_ocp", recorded_solve)
    trace = run(config_from_dict(data))
    assert sorted(built) == ["DoubleIntegrator", "DragDoubleIntegrator"]
    assert trace.summary["alive"] == [0, 2, 3]
    assert statuses == ["solved"] * (2 * 4 + 4 * 3)


def _mixed_team_at_apply(velocities, inputs):
    """A config of alternating models, its team and one-step solutions with
    the given first inputs, ready for sim._apply."""
    data = make_scenario(steps=1)
    kinds = ["double_integrator", "drag_double_integrator"] * 3
    positions = data["robots"]["initial_positions"]
    data["robots"] = [
        {"position": p, "velocity": list(v), "model": kind} for p, v, kind in zip(positions, velocities, kinds)
    ]
    config = config_from_dict(data)
    team = sim._Team(list(range(6)), config.initial_states.copy(), config.graph, None, [None] * 6)
    team.refs, team.errors = config.initial_states[:, :2].copy(), np.zeros(6)
    sols = [
        types.SimpleNamespace(u_seq=np.array([u], dtype=float), cost=0.0, iterations=1, kkt_residual=0.0)
        for u in inputs
    ]
    return config, team, sols


def test_apply_steps_each_robot_by_its_own_model():
    rng = np.random.default_rng(4)
    velocities, inputs = rng.uniform(-0.3, 0.3, (6, 2)), rng.uniform(-0.9, 0.9, (6, 2))
    config, team, sols = _mixed_team_at_apply(velocities, inputs)
    expected = np.array([config.models[i].step(team.states[i], u) for i, u in enumerate(inputs)])
    before = team.states.copy()
    record = sim._apply(team, config, 3, False, sim._Measure(None, 0.0, 0.0, None), sols)
    assert team.states.tobytes() == expected.tobytes()
    assert record.states.tobytes() == before.tobytes() and record.inputs.tobytes() == inputs.tobytes()


@pytest.mark.parametrize(
    "breaches, message",
    [
        ({1: "state", 3: "input"}, "state of robot 1 leaves the box at step 7"),
        ({1: "input", 3: "state"}, "applied input of robot 1 violates bounds at step 7"),
        ({2: "state", 4: "input", 5: "state"}, "state of robot 2 leaves the box at step 7"),
        ({0: "input"}, "applied input of robot 0 violates bounds at step 7"),
        ({5: "input"}, "applied input of robot 5 violates bounds at step 7"),
        ({2: "both", 3: "state"}, "applied input of robot 2 violates bounds at step 7"),
    ],
)
def test_box_breach_names_the_first_robot(breaches, message):
    # at v_max a full push leaves the state box; 1.5 is beyond u_max
    velocities, inputs = np.zeros((6, 2)), np.zeros((6, 2))
    for robot, kind in breaches.items():
        if kind == "state":
            velocities[robot], inputs[robot] = [0.5, 0.0], [1.0, 0.0]
        elif kind == "input":
            inputs[robot] = [0.0, -1.5]
        else:  # both: a push beyond u_max at v_max
            velocities[robot], inputs[robot] = [0.5, 0.0], [1.5, 0.0]
    config, team, sols = _mixed_team_at_apply(velocities, inputs)
    with pytest.raises(NumericalBreakdownError, match=f"^{message}$"):
        sim._apply(team, config, 7, False, sim._Measure(None, 0.0, 0.0, None), sols)


def _team_at_decentralized(alive):
    """The robots `alive` of a 6-robot team of alternating models, at rest with references beside them and the
    bearings of those references, with the config and terminal sets that sim.run hands to _decentralized."""
    data = make_scenario(mu=0.7, steps=1)
    kinds = ["double_integrator", "drag_double_integrator"] * 3
    data["robots"] = [{"position": p, "model": kind} for p, kind in zip(data["robots"]["initial_positions"], kinds)]
    config = config_from_dict(data)
    graph = henneberg_generate(len(alive), seed=0).graph
    team = sim._Team(list(alive), config.initial_states[alive], graph, [None] * len(alive))
    team.refs = team.states[:, :2] + 0.05
    team.g_des = sim._bearings(sim.Framework(graph, sim.Configuration(team.refs)))
    weights = config.weights
    terminals = {model: sim.build_terminal_set(model, weights.Q, weights.R) for model in dict.fromkeys(config.models)}
    return config, team, terminals, config.region.shrink(config.epsilon)


@pytest.mark.parametrize(
    "kind, message",
    [
        ("NaN state", "x0 of robot 3 must be a finite vector of shape (4,)"),
        ("state outside the box", "initial state of robot 5 violates the state box"),
        ("NaN reference", "r_ref of robot 2 must be a finite vector of shape (2,)"),
        ("non-unit bearing", "desired bearing of robot 2 toward robot 5 is not unit"),
    ],
)
def test_team_input_errors_name_the_robot(kind, message):
    # local robot k is original robot alive[k]: 2 -> 3, 3 -> 5
    config, team, terminals, shrunk = _team_at_decentralized([0, 2, 3, 5])
    if kind == "NaN state":
        team.states[2, 1] = np.nan
    elif kind == "state outside the box":
        team.states[3, 2] = 0.8  # above v_max
    elif kind == "NaN reference":
        team.refs[1, 0] = np.nan
    else:
        assert (1, 3) in team.g_des
        team.g_des[(1, 3)] = 1.5 * team.g_des[(1, 3)]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        sim._decentralized(team, config, terminals, shrunk)


def test_one_framework_per_step(monkeypatch):
    # one framework of the positions per step, one of the references where
    # the topology is (re)built (steps 0 and 3), one for the summary
    built = []
    framework = sim.Framework

    def counted(*args, **kwargs):
        built.append(1)
        return framework(*args, **kwargs)

    monkeypatch.setattr(sim, "Framework", counted)
    run(config_from_dict(make_scenario(mu=0.7, steps=8, faults=[{"at_step": 3, "robot": 2}])))
    assert len(built) == 8 + 2 + 1


def test_one_rigidity_svd_per_measurement(monkeypatch):
    # 8 step measurements and the summary's; the repair event at the fault
    # reads the SVD of its step's framework instead of taking another
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    trace = run(config_from_dict(make_scenario(mu=0.7, steps=8, faults=[{"at_step": 3, "robot": 2}])))
    assert len(calls) == 8 + 1
    assert trace.events[0]["rigid"] is True


@pytest.mark.parametrize("n", [12, 96])
def test_bearings_and_bearing_error_match_per_edge_loops(n, unit_square):
    # the per-edge loops that bearing_function and _measure replaced, as
    # references: one np.linalg.norm per edge, and one dot per edge added up
    # in the desired bearings' order from 0.0; equal to the bit
    rng = np.random.default_rng(n)
    graph = henneberg_generate(n, seed=0).graph
    positions, refs = rng.uniform(0.0, 1.0, (2, n, 2))
    bv = sim.bearing_function(sim.Framework(graph, sim.Configuration(positions)))
    rows = []
    for i, j in graph.sorted_edges:
        e = positions[j] - positions[i]
        rows.append(e / np.linalg.norm(e))
    assert bv.edge_order == graph.sorted_edges
    assert bv.bearings.tobytes() == np.array(rows).tobytes()
    g_des = sim._bearings(sim.Framework(graph, sim.Configuration(refs)))
    current = dict(zip(graph.sorted_edges, rows))
    want = 0.0
    for edge, g in g_des.items():
        diff = current[edge] - g
        want += float(diff @ diff)
    states = np.column_stack([positions, np.zeros((n, 2))])
    team = sim._Team(list(range(n)), states, graph, [None] * n, g_des=g_des)
    measure = sim._measure(team, voronoi_partition(positions, unit_square), coverage.UniformDensity())
    assert measure.bearing_error == want


def test_single_robot_runs_without_graph():
    data = {
        "region": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "density": {"type": "gaussian", "mean": [0.7, 0.7], "cov_diag": [0.04, 0.04]},
        "robots": {"initial_positions": [[0.2, 0.2]]},
        "mpc": {"horizon": 10, "weights": {"Q": [10, 10, 1, 1], "R": 0.1, "S_r": 100}},
        "steps": 40,
        "epsilon": 0.02,
    }
    trace = run(config_from_dict(data))
    assert trace.records[0].rigidity_rank == 0
    assert trace.records[-1].bearing_error == 0.0
    start = trace.records[0].errors[0]
    end = trace.summary["final_reference_errors"]["0"]
    assert end < 0.05 < start


def test_export_files_and_shapes(short_trace, tmp_path):
    names = export(short_trace, tmp_path)
    assert names == ["trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"]
    traj = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "k,robot,p_x,p_y,v_x,v_y,u_x,u_y"
    assert len(traj) == 1 + 12 * 6
    cost = (tmp_path / "cost.csv").read_text().splitlines()
    assert cost[0] == "k,H,bearing_error,J_0,J_1,J_2,J_3,J_4,J_5"
    assert len(cost) == 1 + 12
    assert (tmp_path / "events.json").read_text() == "[]\n"


def test_export_lost_robot_cost_is_nan(fault_trace, tmp_path):
    export(fault_trace, tmp_path)
    cost = (tmp_path / "cost.csv").read_text().splitlines()
    # column J_2 goes nan from the fault step onward
    idx = cost[0].split(",").index("J_2")
    before = cost[1 + 2].split(",")[idx]
    after = cost[1 + 3].split(",")[idx]
    assert before != "nan"
    assert after == "nan"
    traj = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert len(traj) == 1 + 3 * 6 + 5 * 5


def test_export_is_reproducible(short_trace, tmp_path):
    export(short_trace, tmp_path / "a")
    export(short_trace, tmp_path / "b")
    for name in ("trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_rejects_empty_trace(tmp_path):
    with pytest.raises(InvalidInputError, match="empty"):
        export(SimTrace(records=[], events=[], summary={}), tmp_path)
