"""Closed-loop simulation: trace contents, determinism, faults, export."""
import json

import numpy as np
import pytest

from conftest import make_scenario
from rigid_coverage import coverage
from rigid_coverage.config import config_from_dict
from rigid_coverage.coverage import coverage_cost, voronoi_partition
from rigid_coverage.errors import InvalidInputError
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


def test_one_quadrature_pass_per_step(monkeypatch):
    # an update step reads its centroids and H from one pass over its
    # partition; the final H of the summary takes one more
    calls = []
    integrate = coverage.integrate_over_polygons

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(coverage, "integrate_over_polygons", counted)
    steps = 12
    trace = run(config_from_dict(make_scenario(mu=0.7, steps=steps, faults=[{"at_step": 5, "robot": 2}])))
    assert sum(r.updated for r in trace.records) > 2
    assert len(calls) == steps + 1


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


def test_parallel_matches_serial(short_trace, monkeypatch):
    monkeypatch.setenv("RIGID_COVERAGE_THREADS", "2")
    par = run(config_from_dict(make_scenario(mu=0.7, steps=12)))
    for a, b in zip(short_trace.records, par.records):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)
        assert a.coverage_cost == b.coverage_cost


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("RIGID_COVERAGE_THREADS", "many")
    with pytest.raises(InvalidInputError, match="RIGID_COVERAGE_THREADS"):
        run(config_from_dict(make_scenario(steps=1)))
    monkeypatch.setenv("RIGID_COVERAGE_THREADS", "-1")
    with pytest.raises(InvalidInputError, match="non-negative"):
        run(config_from_dict(make_scenario(steps=1)))


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
