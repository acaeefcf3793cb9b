"""Tracking OCP: cost terms, SQP solver, warm starts, offset optimum."""
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rigid_coverage import mpc
from rigid_coverage.config import config_from_dict
from rigid_coverage.dynamics import BoxBounds, DoubleIntegrator, DragDoubleIntegrator, steady_state_from_position
from rigid_coverage.errors import InvalidInputError, OcpInfeasibleError, RecursiveFeasibilityError
from rigid_coverage.geometry import ConvexRegion
from rigid_coverage.mpc import (
    CostWeights,
    OcpProblem,
    OcpSolution,
    SqpOptions,
    bearing_cost,
    bearing_projector,
    cold_start,
    mpc_step,
    offset_optimum,
    shift_warm_start,
    solution_feasibility,
    solve_ocp,
)
from rigid_coverage.terminal import TerminalSet

from conftest import SCENARIO_Q, SCENARIO_R, SCENARIO_S, make_scenario


def scenario_weights(mu=1.0, w_b=1.0):
    return CostWeights(Q=SCENARIO_Q, R=SCENARIO_R, S_r=SCENARIO_S, w_b=w_b, mu=mu)


def square_region(margin=0.02):
    return ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])).shrink(margin)


def make_problem(model, terminal, x0, r_ref, mu=1.0, bearings=(), anchors=None,
                 region=None, margin=0.0, horizon=10):
    return OcpProblem(
        model=model,
        horizon=horizon,
        weights=scenario_weights(mu=mu),
        terminal=terminal,
        x0=np.asarray(x0, dtype=float),
        r_ref=np.asarray(r_ref, dtype=float),
        desired_bearings=bearings,
        neighbor_anchors=anchors or {},
        setpoint_region=region,
        steady_margin=margin,
    )


class TestBearingCost:
    def test_on_line_is_zero(self):
        g = np.array([1.0, 0.0])
        val = bearing_cost(np.array([2.0, 0.0]), ((1, g),), {1: np.zeros(2)}, w_b=3.0)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_component_squared(self):
        g = np.array([1.0, 0.0])
        val = bearing_cost(np.array([2.0, 3.0]), ((1, g),), {1: np.zeros(2)}, w_b=1.0)
        assert val == pytest.approx(9.0)
        val = bearing_cost(np.array([2.0, 3.0]), ((1, g),), {1: np.zeros(2)}, w_b=2.5)
        assert val == pytest.approx(22.5)

    def test_projector(self):
        g = np.array([0.6, 0.8])
        P = bearing_projector(g)
        assert np.allclose(P @ g, 0.0, atol=1e-15)
        assert np.allclose(P @ P, P)


class TestWeights:
    def test_mu_range(self):
        with pytest.raises(InvalidInputError):
            CostWeights(Q=SCENARIO_Q, R=SCENARIO_R, S_r=SCENARIO_S, w_b=1.0, mu=0.0)
        with pytest.raises(InvalidInputError):
            CostWeights(Q=SCENARIO_Q, R=SCENARIO_R, S_r=SCENARIO_S, w_b=1.0, mu=1.2)

    def test_definiteness(self):
        with pytest.raises(InvalidInputError):
            CostWeights(Q=SCENARIO_Q, R=np.zeros((2, 2)), S_r=SCENARIO_S)
        with pytest.raises(InvalidInputError):
            CostWeights(Q=-np.eye(4), R=SCENARIO_R, S_r=SCENARIO_S)


class TestProblemValidation:
    def test_x0_outside_state_box(self, double_integrator, terminal_double):
        x0 = np.array([0.2, 0.2, 0.8, 0.0])  # above v_max
        with pytest.raises(InvalidInputError):
            make_problem(double_integrator, terminal_double, x0, [0.5, 0.5])

    def test_non_unit_bearing_rejected(self, double_integrator, terminal_double):
        with pytest.raises(InvalidInputError):
            make_problem(
                double_integrator, terminal_double, np.zeros(4), [0.5, 0.5],
                bearings=((1, np.array([1.0, 1.0])),), anchors={1: np.zeros(2)},
            )

    def test_bearing_needs_anchor(self, double_integrator, terminal_double):
        with pytest.raises(InvalidInputError):
            make_problem(
                double_integrator, terminal_double, np.zeros(4), [0.5, 0.5],
                bearings=((1, np.array([1.0, 0.0])),),
            )


class TestSolveNominal:
    def test_steady_start_at_reference_costs_nothing(self, double_integrator, terminal_double):
        r = np.array([0.4, 0.4])
        ss = steady_state_from_position(double_integrator, r)
        prob = make_problem(double_integrator, terminal_double, ss.x, r)
        sol = solve_ocp(prob)
        assert sol.status == "solved"
        assert sol.cost == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.u_seq, 0.0, atol=1e-8)
        assert np.allclose(sol.rbar, r, atol=1e-8)

    def test_solution_is_feasible_and_stationary(self, double_integrator, terminal_double):
        prob = make_problem(
            double_integrator, terminal_double, np.array([0.2, 0.2, 0.0, 0.0]),
            [0.6, 0.5], region=square_region(), margin=0.02,
        )
        sol = solve_ocp(prob)
        assert sol.status == "solved"
        report = solution_feasibility(prob, sol)
        assert report["dynamics"] <= 1e-9
        assert report["inequality"] <= 1e-12
        assert sol.kkt_residual <= 1e-7
        # dynamics hold along the rollout
        for l in range(prob.horizon):
            assert np.allclose(
                sol.x_seq[l + 1], double_integrator.step(sol.x_seq[l], sol.u_seq[l]), atol=1e-8
            )

    def test_closed_loop_cost_decrease(self, double_integrator, terminal_double):
        x = np.array([0.2, 0.2, 0.0, 0.0])
        r = np.array([0.55, 0.5])
        prev = None
        prev_cost = None
        prev_state = None
        for _ in range(45):
            prob = make_problem(double_integrator, terminal_double, x, r,
                                region=square_region(), margin=0.02)
            warm = shift_warm_start(prob, prev) if prev is not None else None
            sol = solve_ocp(prob, warm=warm)
            assert sol.status == "solved"
            if prev_cost is not None:
                dx = prev_state - prev.xbar
                du = prev_input - prev.ubar
                stage = dx @ SCENARIO_Q @ dx + du @ SCENARIO_R @ du
                assert sol.cost - prev_cost <= -stage + 1e-5
            prev_state = x.copy()
            prev_input = sol.u_seq[0].copy()
            prev_cost = sol.cost
            prev = sol
            x = double_integrator.step(x, sol.u_seq[0])
        assert np.linalg.norm(x[:2] - r) < 5e-3

    def test_drag_model_solves(self, drag_model, terminal_drag):
        prob = make_problem(drag_model, terminal_drag, np.array([0.3, 0.3, 0.1, 0.0]),
                            [0.7, 0.6], region=square_region(), margin=0.02)
        sol = solve_ocp(prob)
        assert sol.status == "solved"
        report = solution_feasibility(prob, sol)
        assert report["inequality"] <= 1e-12


class TestAgainstConvexReference:
    def test_matches_cvxpy_on_linear_model(self, double_integrator, terminal_double):
        cp = pytest.importorskip("cvxpy")
        model = double_integrator
        ts = terminal_double
        x0 = np.array([0.35, 0.3, 0.05, -0.02])
        r_ref = np.array([0.6, 0.55])
        N = 8
        prob = make_problem(model, ts, x0, r_ref, horizon=N)
        sol = solve_ocp(prob)
        assert sol.status == "solved"

        A, B = model.jacobians(np.zeros(4), np.zeros(2))
        C = model.C
        x = cp.Variable((N + 1, 4))
        u = cp.Variable((N, 2))
        xb = cp.Variable(4)
        ub = cp.Variable(2)
        cons = [x[0] == x0, xb == A @ xb + B @ ub]
        cost = 0
        for l in range(N):
            cons.append(x[l + 1] == A @ x[l] + B @ u[l])
            cons.append(cp.abs(u[l]) <= model.u_max)
            cons.append(cp.abs(x[l + 1][2:]) <= model.v_max)
            cost += cp.quad_form(x[l] - xb, SCENARIO_Q) + cp.quad_form(u[l] - ub, SCENARIO_R)
        cons.append(cp.abs(ub) <= model.u_max)
        cons.append(cp.abs(xb[2:]) <= model.v_max)
        cons.append(cp.quad_form(x[N] - xb, ts.P) <= ts.zeta)
        cost += cp.quad_form(x[N] - xb, ts.P)
        cost += cp.quad_form(C @ xb - r_ref, SCENARIO_S)
        ref = cp.Problem(cp.Minimize(cost), cons)
        ref.solve(solver=cp.CLARABEL)
        assert ref.status == "optimal"
        assert sol.cost == pytest.approx(ref.value, rel=1e-5, abs=1e-7)
        assert np.allclose(sol.rbar, (C @ xb.value), atol=1e-4)

    def test_matches_cvxpy_with_active_input_bounds(self, double_integrator, terminal_double):
        cp = pytest.importorskip("cvxpy")
        model = double_integrator
        ts = terminal_double
        # long trip saturates the inputs early in the horizon
        x0 = np.array([0.05, 0.05, 0.0, 0.0])
        r_ref = np.array([0.95, 0.9])
        N = 10
        prob = make_problem(model, ts, x0, r_ref, horizon=N)
        sol = solve_ocp(prob)
        report = solution_feasibility(prob, sol)
        assert report["inequality"] <= 1e-12
        assert np.max(np.abs(sol.u_seq)) > 0.5 * model.u_max

        A, B = model.jacobians(np.zeros(4), np.zeros(2))
        C = model.C
        x = cp.Variable((N + 1, 4))
        u = cp.Variable((N, 2))
        xb = cp.Variable(4)
        ub = cp.Variable(2)
        cons = [x[0] == x0, xb == A @ xb + B @ ub]
        cost = 0
        for l in range(N):
            cons.append(x[l + 1] == A @ x[l] + B @ u[l])
            cons.append(cp.abs(u[l]) <= model.u_max)
            cons.append(cp.abs(x[l + 1][2:]) <= model.v_max)
            cost += cp.quad_form(x[l] - xb, SCENARIO_Q) + cp.quad_form(u[l] - ub, SCENARIO_R)
        cons.append(cp.abs(ub) <= model.u_max)
        cons.append(cp.abs(xb[2:]) <= model.v_max)
        cons.append(cp.quad_form(x[N] - xb, ts.P) <= ts.zeta)
        cost += cp.quad_form(x[N] - xb, ts.P)
        cost += cp.quad_form(C @ xb - r_ref, SCENARIO_S)
        ref = cp.Problem(cp.Minimize(cost), cons)
        ref.solve(solver=cp.CLARABEL)
        assert ref.status == "optimal"
        # backed-off actives leave a small but bounded optimality gap
        assert sol.cost >= ref.value - 1e-7
        assert sol.cost <= ref.value * (1 + 2e-3)


class TestWarmStart:
    def test_shift_appends_terminal_input(self, double_integrator, terminal_double):
        r = np.array([0.5, 0.5])
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.45, 0.45, 0.0, 0.0]), r)
        sol = solve_ocp(prob)
        x1 = double_integrator.step(sol.x_seq[0], sol.u_seq[0])
        nxt = OcpProblem(
            model=double_integrator, horizon=prob.horizon, weights=prob.weights,
            terminal=terminal_double, x0=x1, r_ref=r,
        )
        cand = shift_warm_start(nxt, sol)
        assert cand.status == "candidate"
        assert np.allclose(cand.u_seq[:-1], sol.u_seq[1:])
        assert np.allclose(cand.x_seq[0], x1)
        # appended input is the terminal controller's, which at xbar is ubar
        if np.allclose(sol.x_seq[-1], sol.xbar, atol=1e-9):
            assert np.allclose(cand.u_seq[-1], sol.ubar, atol=1e-8)

    def test_shift_rejects_incompatible_solution(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.2, 0.2, 0.0, 0.0]), [0.5, 0.5])
        sol = solve_ocp(prob)
        # a successor problem whose x0 is not the propagated state
        other = make_problem(double_integrator, terminal_double,
                             np.array([0.8, 0.8, 0.0, 0.0]), [0.5, 0.5])
        with pytest.raises(RecursiveFeasibilityError):
            shift_warm_start(other, sol)

    def test_cold_start_is_feasible(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.3, 0.4, 0.2, -0.1]), [0.9, 0.8])
        sol = cold_start(prob)
        report = solution_feasibility(prob, sol)
        assert report["dynamics"] <= 1e-9


class TestOffsetOptimum:
    def test_reachable_reference_is_fixed_point(self, double_integrator, terminal_double):
        r = np.array([0.5, 0.6])
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.5, 0.6, 0.0, 0.0]), r, region=square_region())
        assert np.allclose(offset_optimum(prob), r, atol=1e-9)

    def test_outside_reference_projects(self, double_integrator, terminal_double):
        region = square_region()
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.5, 0.5, 0.0, 0.0]), [1.4, 0.8], region=region)
        rdag = offset_optimum(prob)
        assert np.allclose(rdag, [0.98, 0.8], atol=1e-9)

    def test_matches_grid_search(self, double_integrator, terminal_double):
        region = square_region()
        anchors = {1: np.array([0.6, 0.3])}
        bearings = ((1, np.array([1.0, 0.0])),)
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.25, 0.4, 0.0, 0.0]), [1.3, 0.9],
                            mu=0.6, bearings=bearings, anchors=anchors, region=region)
        rdag = offset_optimum(prob)

        mu, w = 0.6, prob.weights
        lo, hi = region.vertices.min(axis=0), region.vertices.max(axis=0)
        xs = np.linspace(lo[0], hi[0], 200)
        ys = np.linspace(lo[1], hi[1], 200)
        best, best_val = None, np.inf
        for gx in xs:
            for gy in ys:
                r = np.array([gx, gy])
                if not region.contains(r, tol=1e-12):
                    continue
                d = r - prob.r_ref
                val = mu * d @ SCENARIO_S @ d + (1 - mu) * bearing_cost(
                    r, bearings, anchors, w.w_b)
                if val < best_val:
                    best, best_val = r, val
        spacing = max((hi - lo) / 199)
        assert np.linalg.norm(rdag - best) <= spacing * np.sqrt(2)


class TestFailureModes:
    def test_infeasible_when_terminal_unreachable(self, double_integrator, terminal_double):
        from dataclasses import replace

        tiny = TerminalSet(
            K=terminal_double.K, P=terminal_double.P, zeta=1e-10,
            c=terminal_double.c, steady=terminal_double.steady,
            Q=terminal_double.Q, R=terminal_double.R,
        )
        # one step is not enough to stop from full speed into a point target
        prob = OcpProblem(
            model=double_integrator, horizon=1, weights=scenario_weights(),
            terminal=tiny, x0=np.array([0.2, 0.2, 0.5, 0.5]), r_ref=np.array([0.2, 0.2]),
        )
        with pytest.raises(OcpInfeasibleError) as exc_info:
            solve_ocp(prob)
        assert exc_info.value.solution is not None
        assert exc_info.value.solution.status == "infeasible"

    def test_mpc_step_returns_first_input(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double,
                            np.array([0.2, 0.2, 0.0, 0.0]), [0.6, 0.6])
        u0, sol = mpc_step(prob)
        assert np.allclose(u0, sol.u_seq[0])
        assert double_integrator.input_bounds.contains(u0)


def _template_state(tpl):
    """Every attribute of a template, arrays as (shape, bytes)."""
    return {
        name: (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for name, value in vars(tpl).items()
    }


def _solution_bytes(sol):
    return [np.asarray(a).tobytes() for a in (sol.u_seq, sol.x_seq, sol.xbar, sol.ubar, sol.cost, sol.kkt_residual)]


class TestTemplateCache:
    @pytest.fixture
    def problem_factories(self, double_integrator, drag_model, terminal_double, terminal_drag):
        """Problems that share a template (differing in x0, r_ref or the
        bearings) next to problems whose keys differ only in horizon,
        setpoint region or steady margin."""
        bearings = ((1, np.array([0.6, 0.8])), (3, np.array([1.0, 0.0])))
        anchors = {1: np.array([0.4, 0.7]), 3: np.array([0.8, 0.45])}
        factories = []
        for model, ts in ((double_integrator, terminal_double), (drag_model, terminal_drag)):
            base = dict(region=square_region(), margin=0.02, mu=0.7)
            factories += [
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.3, 0.25, 0.1, 0.0], [0.6, 0.5], **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.5, 0.7], **b),
                lambda m=model, t=ts, b=base: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], bearings=bearings, anchors=anchors, **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], horizon=7, **b),
                lambda m=model, t=ts: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.9, 0.5], region=square_region(0.15), margin=0.02, mu=0.7),
                lambda m=model, t=ts: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], region=square_region(), margin=0.45, mu=0.7),
            ]
        return factories

    def test_warm_cache_matches_cold_builds_bitwise(self, problem_factories):
        mpc._templates.clear()
        for make in problem_factories:  # warm the cache
            solve_ocp(make())
        warm = []
        for make in problem_factories:
            prob = make()
            sol = solve_ocp(prob)
            warm.append((_solution_bytes(sol), _template_state(mpc._workspace(prob).tpl)))
        for make, (sol_bytes, tpl_state) in zip(problem_factories, warm):
            mpc._templates.clear()
            prob = make()
            assert _solution_bytes(solve_ocp(prob)) == sol_bytes
            # a key collision would hand a problem another problem's template
            assert _template_state(mpc._workspace(prob).tpl) == tpl_state

    def test_problems_differing_in_instance_data_share_a_template(self, problem_factories):
        mpc._templates.clear()
        probs = [make() for make in problem_factories[:7]]
        templates = [mpc._workspace(p).tpl for p in probs]
        assert all(t is templates[0] for t in templates[:4])
        assert len({id(t) for t in templates}) == 4
        assert len(mpc._templates) == 4

    def test_cached_model_attributes_leave_the_template_key_alone(self, terminal_double):
        used, fresh = DoubleIntegrator(), DoubleIntegrator()
        used.C, used.state_bounds, used.input_bounds  # fill one instance's cache
        assert {"C", "state_bounds", "input_bounds"} <= vars(used).keys()
        assert not {"C", "state_bounds", "input_bounds"} & vars(fresh).keys()
        mpc._templates.clear()
        probs = [make_problem(m, terminal_double, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5]) for m in (used, fresh)]
        keys = [mpc._template_key(p) for p in probs]
        assert keys[0] == keys[1] and hash(keys[0]) == hash(keys[1])
        assert mpc._workspace(probs[0]).tpl is mpc._workspace(probs[1]).tpl

    def test_warm_start_shares_the_instance_with_the_solve(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double, [0.45, 0.45, 0.0, 0.0], [0.5, 0.5])
        sol = solve_ocp(prob)
        nxt = make_problem(double_integrator, terminal_double,
                           double_integrator.step(sol.x_seq[0], sol.u_seq[0]), [0.5, 0.5])
        warm = shift_warm_start(nxt, sol)
        ws = mpc._workspace(nxt)
        solve_ocp(nxt, warm=warm)
        assert mpc._workspace(nxt) is ws

    def test_instances_are_not_kept_past_the_next_problem(self, double_integrator, terminal_double):
        # a caller holding many problems, as the simulation holds a step's
        # problems, must not hold an instance for each of them
        probs = [make_problem(double_integrator, terminal_double, [0.2 + 0.05 * i, 0.2, 0.0, 0.0], [0.6, 0.5])
                 for i in range(3)]
        refs = []
        gc.disable()
        try:
            for prob in probs:
                solve_ocp(prob)
                refs.append(weakref.ref(mpc._workspace(prob)))
            assert [r() is None for r in refs] == [True, True, False]
        finally:
            gc.enable()

    def test_cache_is_bounded(self, double_integrator, terminal_double):
        mpc._templates.clear()
        n = mpc.TEMPLATE_CACHE_SIZE + 3
        probs = [make_problem(double_integrator, terminal_double, np.zeros(4), [0.5, 0.5], horizon=h)
                 for h in range(1, n + 1)]
        for p in probs:
            mpc._workspace(p)
            assert len(mpc._templates) <= mpc.TEMPLATE_CACHE_SIZE
        assert len(mpc._templates) == mpc.TEMPLATE_CACHE_SIZE
        kept = {tpl.N for tpl in mpc._templates.values()}
        assert kept == set(range(n - mpc.TEMPLATE_CACHE_SIZE + 1, n + 1))

    def test_config_builds_no_template(self):
        mpc._templates.clear()
        config_from_dict(make_scenario())
        assert len(mpc._templates) == 0

    def test_threads_building_one_key_share_one_template(self, double_integrator, terminal_double):
        # without the lock, threads that miss the same key at once each build
        # a template and all but the last inserted are lost from the cache
        def build(horizon):
            barrier.wait(timeout=60)
            prob = make_problem(double_integrator, terminal_double, np.zeros(4), [0.5, 0.5], horizon=horizon)
            return horizon, mpc._template(prob)

        barrier = threading.Barrier(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(25):
                    mpc._templates.clear()
                    futures = [pool.submit(build, 10 + i % 2) for i in range(8)]
                    built = [f.result(timeout=120) for f in futures]
                    cached = {tpl.N: tpl for tpl in mpc._templates.values()}
                    assert sorted(cached) == [10, 11]
                    assert all(tpl is cached[h] for h, tpl in built)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_evicting_get_their_own_templates(
        self, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        # more keys than the cache holds, so lookups race with evictions
        specs = [(m, t, h) for m, t in ((double_integrator, terminal_double), (drag_model, terminal_drag))
                 for h in range(1, 7)]
        assert len(specs) > mpc.TEMPLATE_CACHE_SIZE

        def build(i):
            model, ts, h = specs[i % len(specs)]
            tpl = mpc._template(make_problem(model, ts, np.zeros(4), [0.5, 0.5], horizon=h))
            return tpl.model == model and tpl.N == h and np.array_equal(tpl.P_term, ts.P)

        mpc._templates.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(build, i) for i in range(600)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(results)
        assert len(mpc._templates) == mpc.TEMPLATE_CACHE_SIZE


def _loop_linear_ineq(problem):
    """Row-by-row construction of G and h: per column of z, the upper face
    then the lower one, the steady pair shrunk by the margin, then the
    setpoint polygon."""
    tpl = mpc._workspace(problem).tpl
    model = problem.model
    rows, offs = [], []

    def box(idx, bounds, margin=0.0):
        for k, (lo, hi) in enumerate(zip(bounds.lower, bounds.upper)):
            for bound, sign in ((hi, 1.0), (-lo, -1.0)):
                if np.isfinite(bound):
                    scale = max(1.0, abs(bound))
                    row = np.zeros(tpl.nz)
                    row[idx.start + k] = sign / scale
                    rows.append(row)
                    offs.append((bound - margin) / scale)

    for l in range(tpl.N):
        box(tpl.iu(l), model.input_bounds)
    for l in range(1, tpl.N + 1):
        box(tpl.ix(l), model.state_bounds)
    box(tpl.ixb, model.state_bounds, problem.steady_margin)
    box(tpl.iub, model.input_bounds, problem.steady_margin)
    if problem.setpoint_region is not None:
        A, b = problem.setpoint_region.half_planes()
        for a_row, b_val in zip(A @ model.C, b):
            scale = max(1.0, abs(b_val))
            row = np.zeros(tpl.nz)
            row[tpl.ixb] = a_row / scale
            rows.append(row)
            offs.append(b_val / scale)
    return np.vstack(rows), np.asarray(offs)


class _SkewedBoxes(DoubleIntegrator):
    """Asymmetric boxes with one-sided faces, so that the order and the
    presence of each face's row show."""

    @property
    def state_bounds(self):
        return BoxBounds(np.array([-np.inf, -2.0, -0.3, -0.5]), np.array([3.0, np.inf, 0.5, 0.4]))

    @property
    def input_bounds(self):
        return BoxBounds(np.array([-0.6, -1.0]), np.array([1.0, 0.8]))


class TestVectorisedLayout:
    """The vectorised template and instance against per-stage loops."""

    @pytest.fixture(params=[("linear", None, 0.0, 10), ("linear", 0.02, 0.02, 1), ("drag", 0.02, 0.02, 10),
                            ("drag", None, 0.1, 3), ("skewed", 0.02, 0.05, 4)])
    def problem(self, request, double_integrator, drag_model, terminal_double, terminal_drag):
        kind, region_margin, margin, horizon = request.param
        model, ts = {
            "linear": (double_integrator, terminal_double),
            "drag": (drag_model, terminal_drag),
            "skewed": (_SkewedBoxes(), terminal_double),
        }[kind]
        region = None if region_margin is None else square_region(region_margin)
        return make_problem(model, ts, [0.2, 0.3, 0.1, -0.2], [0.6, 0.5], region=region,
                            margin=margin, horizon=horizon)

    def test_inequality_rows_match_the_loop(self, problem):
        G, h = _loop_linear_ineq(problem)
        tpl = mpc._workspace(problem).tpl
        assert np.array_equal(tpl.G, G)
        assert np.array_equal(tpl.h, h)

    def test_pack_unpack_and_dynamics_gaps_match_the_loop(self, problem):
        ws = mpc._workspace(problem)
        tpl, model, N = ws.tpl, problem.model, problem.horizon
        rng = np.random.default_rng(7)
        z = rng.uniform(-0.5, 0.5, tpl.nz)
        u_seq, x_seq, xbar, ubar = ws.unpack(z)
        assert np.array_equal(u_seq, np.stack([z[tpl.iu(l)] for l in range(N)]))
        assert np.array_equal(x_seq, np.vstack([problem.x0] + [z[tpl.ix(l)] for l in range(1, N + 1)]))
        assert np.array_equal(xbar, z[tpl.ixb]) and np.array_equal(ubar, z[tpl.iub])
        assert np.array_equal(tpl.pack(u_seq, x_seq, xbar, ubar), z)
        gaps = [x_seq[l + 1] - model.step(x_seq[l], u_seq[l]) for l in range(N)]
        gaps.append(xbar - model.step(xbar, ubar))
        assert np.array_equal(ws.eq_constraints(z), np.concatenate(gaps))


class TestConstantJacobian:
    def test_flag_is_set_on_the_linear_model_only(self):
        assert DoubleIntegrator.constant_jacobians
        assert not DragDoubleIntegrator.constant_jacobians

    @pytest.mark.parametrize("linear", [True, False])
    def test_equality_jacobian_moves_with_z_only_when_nonlinear(
        self, linear, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = make_problem(model, ts, [0.2, 0.2, 0.1, -0.05], [0.6, 0.5])
        ws = mpc._workspace(prob)
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-0.4, 0.4, ws.tpl.nz)
        z2 = rng.uniform(-0.4, 0.4, ws.tpl.nz)
        J1, J2 = ws.eq_jacobian(z1), ws.eq_jacobian(z2)
        # the Jacobian assembled from linearize at z is what either path returns
        assert np.array_equal(J1, ws.tpl.eq_jacobian_at(*ws.unpack(z1)))
        assert np.array_equal(J2, ws.tpl.eq_jacobian_at(*ws.unpack(z2)))
        if linear:
            assert J1 is J2 is ws.tpl.eq_jac
        else:
            assert ws.tpl.eq_jac is None
            assert not np.array_equal(J1, J2)

    def test_template_arrays_are_read_only(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double, np.zeros(4), [0.5, 0.5],
                            region=square_region(), margin=0.02)
        tpl = mpc._workspace(prob).tpl
        arrays = {name: v for name, v in vars(tpl).items() if isinstance(v, np.ndarray)}
        assert {"G", "h", "M_struct", "H_term", "eye", "eq_struct", "eq_jac"} <= set(arrays)
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            tpl.G[0, 0] = 1.0
        with pytest.raises(ValueError):
            tpl.eq_jac += 1.0
