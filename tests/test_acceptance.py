"""Acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py`; each verbose line is the
pass/fail verdict for that criterion. Tests print a one-line summary with
the measured numbers (visible with -s or in failure reports).
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import SCENARIO_Q, SCENARIO_R, SCENARIO_S, make_scenario
from rigid_coverage import mpc
from rigid_coverage.config import config_from_dict
from rigid_coverage.dynamics import DoubleIntegrator, DragDoubleIntegrator
from rigid_coverage.geometry import ConvexRegion
from rigid_coverage.graphs import Graph, henneberg_generate, laman_check
from rigid_coverage.mpc import (
    CostWeights,
    OcpProblem,
    mpc_step,
    offset_optimum,
    shift_warm_start,
)
from rigid_coverage.recovery import apply_recovery, closing_ranks
from rigid_coverage.rigidity import (
    Configuration,
    Framework,
    bearing_function,
    is_infinitesimally_bearing_rigid,
    rigidity_matrix,
    rigidity_rank,
    trivial_motion_basis,
)
from rigid_coverage.sim import export, run
from rigid_coverage.terminal import build_terminal_set, lqr_gain, lyapunov_P

pytestmark = pytest.mark.acceptance


# --- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def henneberg_corpus():
    """400 generated graphs (50 per n in [3, 10]) with their check verdicts,
    plus the wall time of generation + checking."""
    t0 = time.perf_counter()
    graphs = []
    for n in range(3, 11):
        for seed in range(50):
            g = henneberg_generate(n, seed).graph
            graphs.append((n, seed, g, bool(laman_check(g))))
    return graphs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mu_runs():
    """140-step benchmark runs at mu in {1, 0.7, 0.1}."""
    t0 = time.perf_counter()
    traces = {mu: run(config_from_dict(make_scenario(mu=mu, steps=140))) for mu in (1.0, 0.7, 0.1)}
    return traces, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fault_pair():
    """A 6-robot run losing robot 2 at k=50, and a fault-free 5-robot run
    continued from the same post-fault states over the recovered graph."""
    steps, fault_at = 140, 50
    cfg = config_from_dict(
        make_scenario(mu=0.7, steps=steps, faults=[{"at_step": fault_at, "robot": 2}])
    )
    faulted = run(cfg)

    rec = faulted.records[fault_at]
    compact = {orig: k for k, orig in enumerate(rec.robot_ids)}
    base = make_scenario(mu=0.7, steps=steps - fault_at)
    base["robots"]["initial_positions"] = rec.states[:, :2].tolist()
    base["robots"]["initial_velocities"] = rec.states[:, 2:].tolist()
    base["graph"] = {
        "n": len(rec.robot_ids),
        "edges": [[compact[i], compact[j]] for i, j in rec.desired_bearings],
    }
    baseline = run(config_from_dict(base))
    return faulted, baseline, fault_at


# --- graph and rigidity criteria ---------------------------------------------

def test_criterion_01_henneberg_generates_laman_graphs(henneberg_corpus):
    graphs, elapsed = henneberg_corpus
    assert len(graphs) == 400
    assert all(verdict for *_, verdict in graphs)
    assert all(g.m == 2 * n - 3 for n, _, g, _ in graphs)
    assert elapsed < 10.0
    print(f"criterion 1: 400/400 graphs minimally rigid, |E|=2n-3, {elapsed:.2f}s")


def test_criterion_02_generic_rank_and_trivial_motions(henneberg_corpus):
    graphs, _ = henneberg_corpus
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n, _, g, _ in graphs:
        fw = Framework(g, Configuration(rng.uniform(0.0, 10.0, size=(n, 2))))
        report = rigidity_rank(fw, tol=1e-8)
        assert report.rank == 2 * n - 3
        R = rigidity_matrix(fw)
        basis = trivial_motion_basis(fw)
        for col in basis.T:
            resid = np.linalg.norm(R @ col)
            worst = max(worst, resid / np.linalg.norm(col))
    assert worst <= 1e-9
    print(f"criterion 2: 400 generic frameworks rank 2n-3, worst residual {worst:.2e}")


def _finite_difference_rigidity(fw: Framework, h: float = 1e-6) -> np.ndarray:
    pos = fw.config.positions
    n, d = pos.shape
    m = fw.graph.m
    out = np.zeros((d * m, d * n))
    for v in range(n):
        for axis in range(d):
            bumped = pos.copy()
            bumped[v, axis] += h
            hi = bearing_function(Framework(fw.graph, Configuration(bumped))).bearings
            bumped[v, axis] -= 2 * h
            lo = bearing_function(Framework(fw.graph, Configuration(bumped))).bearings
            out[:, v * d + axis] = ((hi - lo) / (2 * h)).ravel()
    return out


def test_criterion_03_rigidity_matrix_matches_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        g = henneberg_generate(n, int(rng.integers(0, 1000))).graph
        fw = Framework(g, Configuration(rng.uniform(0.0, 5.0, size=(n, 2))))
        gap = np.max(np.abs(rigidity_matrix(fw) - _finite_difference_rigidity(fw)))
        worst = max(worst, gap)
    assert worst <= 1e-6
    print(f"criterion 3: 20 frameworks, worst analytic-vs-FD gap {worst:.2e}")


def test_criterion_04_closing_ranks_repairs_every_loss():
    rng = np.random.default_rng(4)
    combos = [(n, seed) for seed in range(5) for n in range(4, 11)][:30]
    repairs = 0
    for n, seed in combos:
        g = henneberg_generate(n, seed).graph
        for v in range(n):
            neigh = set(g.neighbors(v))
            alpha = len(neigh)
            assert alpha >= 2
            result = closing_ranks(g, v)
            assert len(result.new_edges) == alpha - 2
            assert all(a in neigh and b in neigh for a, b in result.new_edges)
            repaired = apply_recovery(g, v, result.new_edges)
            assert laman_check(repaired)
            fw = Framework(
                repaired, Configuration(rng.uniform(0.0, 10.0, size=(repaired.n, 2)))
            )
            assert is_infinitesimally_bearing_rigid(fw, tol=1e-8)
            repairs += 1

    # the worked hub-loss instance: fan with rim path, lowest-index tie-break
    fan = Graph(6, frozenset([(0, j) for j in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5)]))
    result = closing_ranks(fan, 0)
    assert result.new_edges == frozenset({(1, 3), (1, 4), (1, 5)})
    assert result.contraction_vertex == 1
    print(f"criterion 4: {repairs} vertex losses repaired across 30 graphs; fan instance exact")


# --- terminal ingredient criteria --------------------------------------------

def test_criterion_05_lyapunov_solutions():
    P = lyapunov_P(np.array([[0.5]]), np.array([[1.0]]), c=0.5)
    assert abs(P[0, 0] - 2.0) < 1e-13

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        n, m = 4, 2
        A = rng.normal(size=(n, n)) * 0.5
        B = rng.normal(size=(n, m))
        K = lqr_gain(A, B, np.eye(n), np.eye(m))
        A_K = A + B @ K
        rho = np.max(np.abs(np.linalg.eigvals(A_K)))
        c = 0.5 * (1.0 - rho**2)
        Q_star = np.eye(n)
        P = lyapunov_P(A_K, Q_star, c)
        At = A_K / np.sqrt(1.0 - c)
        worst = max(worst, float(np.max(np.abs(At.T @ P @ At - P + Q_star))))
    assert worst < 1e-10
    print(f"criterion 5: scalar P=2 exact; worst matrix residual {worst:.2e}")


def _sample_terminal_states(ts, steady, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    nx = len(steady.x)
    dirs = rng.normal(size=(n_samples, nx))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(size=(n_samples, 1)) ** (1.0 / nx)
    L = np.linalg.cholesky(np.linalg.inv(ts.P))
    return steady.x + np.sqrt(ts.zeta) * (radii * dirs) @ L.T


@pytest.mark.parametrize("make_model", [DoubleIntegrator, DragDoubleIntegrator])
def test_criterion_06_terminal_set_invariance_and_decrease(make_model):
    model = make_model()
    ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
    steady = ts.translated_steady(model, np.array([0.5, 0.5]))
    X = _sample_terminal_states(ts, steady, 10_000, seed=6)

    E = X - steady.x
    V = np.einsum("ij,jk,ik->i", E, ts.P, E)
    assert np.all(V <= ts.zeta + 1e-12)

    U = steady.u + E @ ts.K.T
    lo, hi = model.input_bounds.lower, model.input_bounds.upper
    assert np.all(U >= lo - 1e-12) and np.all(U <= hi + 1e-12)

    Xn = model.step(X, U)
    En = Xn - steady.x
    Vn = np.einsum("ij,jk,ik->i", En, ts.P, En)
    assert np.all(Vn <= ts.zeta + 1e-9)

    dU = U - steady.u
    stage = np.einsum("ij,jk,ik->i", E, ts.Q, E) + np.einsum("ij,jk,ik->i", dU, ts.R, dU)
    decrease_slack = np.max(Vn - V + stage)
    assert decrease_slack <= 1e-9
    print(
        f"criterion 6[{type(model).__name__}]: 10000 states invariant, "
        f"worst decrease slack {decrease_slack:.2e}"
    )


# --- tracking controller criteria --------------------------------------------

def _tracking_weights(mu: float = 1.0) -> CostWeights:
    return CostWeights(Q=SCENARIO_Q, R=SCENARIO_R, S_r=SCENARIO_S, w_b=1.0, mu=mu)


def test_criterion_07_feasible_reference_tracking():
    model = DoubleIntegrator()
    ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
    weights = _tracking_weights()
    r = np.array([0.6, 0.55])
    x = np.array([0.2, 0.2, 0.0, 0.0])

    prev = None
    prev_cost = np.inf
    reached = None
    worst_increase = -np.inf
    for k in range(60):
        problem = OcpProblem(model=model, horizon=10, weights=weights, terminal=ts, x0=x, r_ref=r)
        # shift_warm_start raises if the shifted candidate is infeasible
        warm = shift_warm_start(problem, prev) if prev is not None else None
        u, sol = mpc_step(problem, warm=warm)
        worst_increase = max(worst_increase, sol.cost - prev_cost)
        prev_cost = sol.cost
        prev = sol
        x = model.step(x, u)
        if reached is None and np.linalg.norm(x[:2] - r) < 1e-3:
            reached = k + 1
    assert reached is not None and reached <= 60
    assert worst_increase <= 1e-5
    print(
        f"criterion 7: position within 1e-3 after {reached} steps, "
        f"worst cost increase {worst_increase:.2e}"
    )


def test_criterion_08_infeasible_reference_converges_to_offset_optimum():
    model = DoubleIntegrator()
    ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
    weights = _tracking_weights()
    region = ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    epsilon = 0.02
    shrunk = region.shrink(epsilon)
    r_ref = np.array([1.4, 0.8])
    x = np.array([0.5, 0.5, 0.0, 0.0])

    def make_problem(state):
        return OcpProblem(
            model=model, horizon=10, weights=weights, terminal=ts, x0=state,
            r_ref=r_ref, setpoint_region=shrunk,
        )

    r_dag = offset_optimum(make_problem(x))

    # independent confirmation on a 200x200 grid over the region
    xs = np.linspace(0.0, 1.0, 200)
    ys = np.linspace(0.0, 1.0, 200)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = np.array([shrunk.contains(p) for p in pts])
    diffs = pts[inside] - r_ref
    vals = np.einsum("ij,jk,ik->i", diffs, weights.mu * SCENARIO_S, diffs)
    grid_opt = pts[inside][np.argmin(vals)]
    spacing = xs[1] - xs[0]
    assert np.linalg.norm(grid_opt - r_dag) <= spacing * np.sqrt(2.0)

    prev = None
    for _ in range(80):
        problem = make_problem(x)
        warm = shift_warm_start(problem, prev) if prev is not None else None
        u, prev = mpc_step(problem, warm=warm)
        x = model.step(x, u)
    gap = np.linalg.norm(x[:2] - r_dag)
    assert gap < 1e-3
    print(f"criterion 8: settled {gap:.2e} from r_dag={r_dag.round(4).tolist()}, grid agrees")


# --- closed-loop coverage criteria -------------------------------------------

def test_criterion_09_coverage_runs_across_mu(mu_runs):
    traces, elapsed = mu_runs
    for mu, trace in traces.items():
        prev = None
        for rec in trace.records:
            if rec.updated and prev is not None:
                assert rec.coverage_cost <= prev + 1e-8, f"H increased at update, mu={mu}"
            prev = rec.coverage_cost
    finals = {mu: traces[mu].summary["final_bearing_error"] for mu in traces}
    assert finals[1.0] > finals[0.7] > finals[0.1]
    assert elapsed < 300.0
    print(
        "criterion 9: H non-increasing at every update; final bearing errors "
        f"{finals[1.0]:.3f} > {finals[0.7]:.3f} > {finals[0.1]:.3f}; {elapsed:.0f}s serial"
    )


def test_criterion_10_fault_recovery_end_to_end(fault_pair):
    faulted, baseline, fault_at = fault_pair
    assert len(faulted.events) == 1
    event = faulted.events[0]
    assert event["at_step"] == fault_at
    assert event["robot"] == 2
    assert len(event["new_edges"]) >= 1
    assert event["laman"] is True
    assert event["rigid"] is True

    rec = faulted.records[fault_at]
    assert rec.rigidity_rank == 2 * 5 - 3  # rigid immediately after repair

    H_fault = faulted.records[-1].coverage_cost
    H_base = baseline.records[-1].coverage_cost
    rel = abs(H_fault - H_base) / H_base
    assert rel <= 0.05
    print(
        f"criterion 10: recovery edges {event['new_edges']} applied, rigid; "
        f"final H {H_fault:.6f} vs fault-free {H_base:.6f} ({rel:.2%})"
    )


def test_criterion_11_deterministic_traces(tmp_path, monkeypatch):
    cfg = make_scenario(mu=0.7, steps=12, faults=[{"at_step": 5, "robot": 2}])
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))

    outs = [tmp_path / name for name in ("cli-a", "cli-b", "library")]
    for out in outs[:2]:
        proc = subprocess.run(
            [sys.executable, "-m", "rigid_coverage.cli", "simulate",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    # the library leg runs in a process that has run the config already, so
    # every OCP template comes from the cache instead of a fresh build
    config = config_from_dict(cfg)
    run(config)
    built = []
    template = mpc._Template
    monkeypatch.setattr(mpc, "_Template", lambda problem: built.append(problem) or template(problem))
    export(run(config), outs[2])
    assert built == []

    names = ["trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"]
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, f"CLI reruns differ in {name}"
        assert (outs[2] / name).read_bytes() == ref, f"warm-cache library run differs in {name}"
    print("criterion 11: CLI rerun and warm-cache library run byte-identical across all artifacts")
