"""Tests of the benchmark's correctness gate, counters and tracer.

Run from the repository root:  python3 -m pytest perfbench
"""

import copy
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rigid_coverage as rc  # noqa: E402
import reference  # noqa: E402
from episodes import _edges, gate_failures, reference_costs, reported_misses, run_episode  # noqa: E402
from run import execute  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, cascade12, fault6  # noqa: E402


@pytest.fixture(scope="module")
def episode():
    """A 12-robot cascade: six repairs and many partition updates."""
    config = rc.config_from_dict(cascade12(3, 0))
    return config, rc.run(config)


def test_default_seed_starts_with_criterion_10_run():
    sys.path.insert(0, str(HERE.parent / "tests"))
    from conftest import make_scenario

    expected = make_scenario(mu=0.7, steps=140, faults=[{"at_step": 50, "robot": 2}])
    assert fault6(DEFAULT_SEED, 0) == expected


def _with_run(run):
    return types.SimpleNamespace(run=run, export=rc.export, RigidCoverageError=rc.RigidCoverageError)


def test_clean_trace_passes_the_gate(episode):
    config, trace = episode
    assert gate_failures(trace, config) == []


def test_reference_evaluations_agree_with_the_program(episode):
    # Uniform density: the integrand is quadratic and every quadrature rule
    # involved is exact, so the two evaluations of H agree to round-off.
    config, trace = episode
    for rec, h in zip(trace.records, reference_costs(trace, config)):
        assert h == pytest.approx(rec.coverage_cost, rel=1e-12)
        assert reference.rigidity_rank(rec.states[:, :2], _edges(rec)) == rec.rigidity_rank


def _update_step(trace, config):
    faults = {f.at_step for f in config.faults}
    return next(r.k for r in trace.records[1:] if r.updated and r.k not in faults)


def test_h_rising_at_an_update_is_counted(episode):
    config, trace = episode
    bad = copy.deepcopy(trace)
    states = bad.records[_update_step(bad, config)].states
    states[0, :2] = [0.999, 0.999]  # far from its cell's centroid
    assert any("H rose" in msg for msg in gate_failures(bad, config))


def test_rank_drop_at_a_repair_is_counted(episode):
    config, trace = episode
    bad = copy.deepcopy(trace)
    edges = bad.records[bad.events[0]["at_step"]].desired_bearings
    edges.pop(next(iter(edges)))
    assert any("rank" in msg for msg in gate_failures(bad, config))


def test_non_laman_repair_event_is_counted(episode):
    config, trace = episode
    bad = copy.deepcopy(trace)
    bad.events[-1]["laman"] = False
    assert any("repair reports" in msg for msg in gate_failures(bad, config))


def test_program_figures_are_counted_without_failing(episode):
    config, trace = episode
    bad = copy.deepcopy(trace)
    bad.events[-1]["rigid"] = False
    bad.records[bad.events[0]["at_step"]].rigidity_rank -= 1
    k = _update_step(bad, config)
    bad.records[k].coverage_cost = bad.records[k - 1].coverage_cost * 1.001
    assert reported_misses(bad, config) == {"reported_H_rises": 1, "reported_nonrigid_repairs": 2}
    assert gate_failures(bad, config) == []


def test_kkt_above_tolerance_is_counted(episode):
    config, trace = episode
    bad = copy.deepcopy(trace)
    rec = bad.records[2]
    rec.solver_kkt = (10 * config.solver.tol_stationarity, *rec.solver_kkt[1:])
    assert any("KKT" in msg for msg in gate_failures(bad, config))


def test_doctored_trace_fails_its_episode(episode, tmp_path):
    config, trace = episode
    bad = copy.deepcopy(trace)
    bad.events[0]["laman"] = False
    result = run_episode(_with_run(lambda _: bad), 0, config, tmp_path)
    assert not result.ok and result.error is None and result.failures


def test_typed_error_fails_the_episode_without_aborting(episode, tmp_path):
    config, trace = episode
    calls = []

    def flaky(cfg):
        calls.append(cfg)
        if len(calls) == 1:
            raise rc.NumericalBreakdownError("state leaves the box")
        return trace

    results = execute(_with_run(flaky), "cascade12", 3, [config, config], tmp_path)
    assert [r.ok for r in results] == [False, True]
    assert "NumericalBreakdownError" in results[0].error


def test_same_seed_gives_identical_counters_and_hashes(tmp_path):
    def once(out):
        configs = [rc.config_from_dict(cascade12(7, i)) for i in range(2)]
        return [r.counters for r in execute(rc, "cascade12", 7, configs, out)]

    first, second = once(tmp_path / "a"), once(tmp_path / "b")
    assert first == second
    assert all(len(c["artifacts_sha256"]) == 64 for c in first)


def test_tracer_covers_every_layer_and_restores_it(tmp_path):
    original = rc.sim.solve_ocp
    tracer = Tracer()
    with tracer.installed():
        assert rc.sim.solve_ocp is not original
        config = rc.config_from_dict(cascade12(3, 0))
    result = run_episode(rc, 0, config, tmp_path, tracer)
    assert rc.sim.solve_ocp is original and rc.run is rc.sim.run
    assert result.ok
    names = {span[0] for span in tracer.spans}
    assert names == set(TRACED)
    self_ns = tracer.self_times_ns()
    assert min(self_ns) >= 0
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(self_ns) == top <= tracer.wall_ns
    assert tracer.density_points > 0
    assert tracer.solve_status and set(tracer.solve_status) == {"solved"}
