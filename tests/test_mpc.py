"""Tracking OCP: cost terms, SQP solver, warm starts, offset optimum."""
import gc
import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rigid_coverage import mpc
from rigid_coverage.config import config_from_dict
from rigid_coverage.dynamics import (
    BoxBounds,
    DoubleIntegrator,
    DragDoubleIntegrator,
    SecondOrderModel,
    steady_state_from_position,
)
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
from rigid_coverage.terminal import TerminalSet, build_terminal_set

from conftest import SCENARIO_Q, SCENARIO_R, SCENARIO_S, make_scenario
from workspace_reference import instance_arrays


def scenario_weights(mu=1.0, w_b=1.0):
    return CostWeights(Q=SCENARIO_Q, R=SCENARIO_R, S_r=SCENARIO_S, w_b=w_b, mu=mu)


def square_region(margin=0.02):
    return ConvexRegion(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])).shrink(margin)


def make_problem(model, terminal, x0, r_ref, mu=1.0, bearings=(), anchors=None,
                 region=None, horizon=10):
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

    @pytest.mark.parametrize("name", ["Q", "R", "S_r"])
    def test_non_finite_matrix_is_named(self, name):
        # eigvalsh on a NaN matrix raises LinAlgError, not a typed error
        weights = {"Q": SCENARIO_Q, "R": SCENARIO_R, "S_r": SCENARIO_S}
        weights[name] = np.full_like(weights[name], np.nan)
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
            CostWeights(**weights)

    @pytest.mark.parametrize("name", ["Q", "R", "S_r"])
    def test_asymmetric_matrix_is_named(self, name):
        weights = {"Q": SCENARIO_Q, "R": SCENARIO_R, "S_r": SCENARIO_S}
        asymmetric = weights[name].copy()
        asymmetric[0, 1] += 0.5
        weights[name] = asymmetric
        with pytest.raises(InvalidInputError, match=f"^{name} must be symmetric"):
            CostWeights(**weights)


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

    @pytest.mark.parametrize("change, message", [
        ({"horizon": 2.5}, "horizon must be an integer"),
        ({"horizon": True}, "horizon must be an integer"),
        ({"r_ref": np.array([np.nan, 0.5])}, "r_ref must be a finite vector"),
        ({"r_ref": np.array([np.inf, 0.5])}, "r_ref must be a finite vector"),
        ({"neighbor_anchors": {1: np.array([np.nan, 0.0])}}, "anchor of 1 must be a finite vector"),
        ({"neighbor_anchors": {1: np.zeros(3)}}, "anchor of 1 must be a finite vector"),
        ({"desired_bearings": ((1, np.array([1.0, 0.0, 0.0])),)}, "desired bearing toward 1 must be a finite vector"),
    ], ids=["fractional horizon", "boolean horizon", "NaN r_ref", "infinite r_ref", "NaN anchor",
            "3-d anchor", "3-d bearing"])
    def test_malformed_entries_raise_typed_errors(self, change, message, double_integrator, terminal_double):
        # a NaN or infinite r_ref or anchor used to run to max-iter with a NaN
        # cost, and a 3-d anchor or bearing raised numpy's bare ValueError
        kw = dict(model=double_integrator, horizon=10, weights=scenario_weights(), terminal=terminal_double,
                  x0=np.zeros(4), r_ref=np.array([0.5, 0.5]), desired_bearings=((1, np.array([1.0, 0.0])),),
                  neighbor_anchors={1: np.zeros(2)})
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            OcpProblem(**{**kw, **change})

    def test_bearings_and_anchors_are_read_only_copies(self, double_integrator, terminal_double):
        g, anchor = np.array([1.0, 0.0]), np.array([0.3, 0.4])
        prob = make_problem(double_integrator, terminal_double, np.zeros(4), [0.5, 0.5],
                            bearings=((1, g),), anchors={1: anchor})
        g[:], anchor[:] = 0.0, 0.0
        assert np.array_equal(prob.desired_bearings[0][1], [1.0, 0.0])
        assert np.array_equal(prob.neighbor_anchors[1], [0.3, 0.4])
        for value in (prob.desired_bearings[0][1], prob.neighbor_anchors[1]):
            assert not value.flags.writeable


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
            [0.6, 0.5], region=square_region(),
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
                                region=square_region())
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
                            [0.7, 0.6], region=square_region())
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


def _scipy_reference(model, ts, x0, r_ref, horizon, region=None):
    """Optimal cost and setpoint of the tracking problem (mu = 1, no
    bearings) from SLSQP, on the variables, cost and constraints of the
    cvxpy cross-checks, written out independently of the solver.  The step
    map is a nonlinear equality constraint with the model's `jacobians`."""
    optimize = pytest.importorskip("scipy.optimize")
    N, nx, nu = horizon, 4, 2
    C, P, zeta = model.C, ts.P, ts.zeta
    Q, R, S = SCENARIO_Q, SCENARIO_R, SCENARIO_S
    ixb = N * (nx + nu)

    def split(w):
        x = np.vstack([x0, w[: N * nx].reshape(N, nx)])
        return x, w[N * nx : ixb].reshape(N, nu), w[ixb : ixb + nx], w[ixb + nx :]

    def cost(w):
        x, u, xb, ub = split(w)
        dx, du, eN, er = x[:N] - xb, u - ub, x[N] - xb, C @ xb - r_ref
        value = np.einsum("li,ij,lj->", dx, Q, dx) + np.einsum("li,ij,lj->", du, R, du)
        value += eN @ P @ eN + er @ S @ er
        gx = np.vstack([2.0 * dx @ Q, 2.0 * P @ eN])
        gu = 2.0 * du @ R
        gxb = -gx.sum(axis=0) + 2.0 * C.T @ S @ er
        return value, np.concatenate([gx[1:].ravel(), gu.ravel(), gxb, -gu.sum(axis=0)])

    # dynamics x_{l+1} = f(x_l, u_l) and the steady pair xb = f(xb, ub)
    n = ixb + nx + nu

    def dynamics(w):
        x, u, xb, ub = split(w)
        return np.concatenate([(x[1:] - model.step(x[:N], u)).ravel(), xb - model.step(xb, ub)])

    def dynamics_jac(w):
        x, u, xb, ub = split(w)
        A, B = model.jacobians(np.vstack([x[:N], xb]), np.vstack([u, ub]))
        E = np.zeros(((N + 1) * nx, n))
        for l in range(N):
            rows = slice(l * nx, (l + 1) * nx)
            E[rows, l * nx : (l + 1) * nx] = np.eye(nx)
            if l:
                E[rows, (l - 1) * nx : l * nx] = -A[l]
            E[rows, N * nx + l * nu : N * nx + (l + 1) * nu] = -B[l]
        E[N * nx :, ixb : ixb + nx] = np.eye(nx) - A[N]
        E[N * nx :, ixb + nx :] = -B[N]
        return E
    # inequalities F w <= f: input and speed boxes, the steady pair's too,
    # and the setpoint polygon
    F, f = [], []

    def box(col, bound):
        for sign in (1.0, -1.0):
            row = np.zeros(n)
            row[col] = sign
            F.append(row)
            f.append(bound)

    for l in range(N):
        for k in range(nu):
            box(N * nx + l * nu + k, model.u_max)
        for k in range(2, nx):
            box(l * nx + k, model.v_max)
    for k in range(2, nx):
        box(ixb + k, model.v_max)
    for k in range(nu):
        box(ixb + nx + k, model.u_max)
    if region is not None:
        Ar, br = region.half_planes()
        for a_row, b_val in zip(Ar @ C, br):
            row = np.zeros(n)
            row[ixb : ixb + nx] = a_row
            F.append(row)
            f.append(b_val)
    F, f = np.array(F), np.array(f)

    def terminal(w):
        x, _, xb, _ = split(w)
        return zeta - (x[N] - xb) @ P @ (x[N] - xb)

    def terminal_jac(w):
        x, _, xb, _ = split(w)
        grad = np.zeros(n)
        grad[(N - 1) * nx : N * nx] = -2.0 * P @ (x[N] - xb)
        grad[ixb : ixb + nx] = 2.0 * P @ (x[N] - xb)
        return grad

    start = np.concatenate([np.tile(x0, N), np.zeros(N * nu), C.T @ (C @ x0), np.zeros(nu)])
    result = optimize.minimize(
        cost, start, jac=True, method="SLSQP",
        constraints=[
            {"type": "eq", "fun": dynamics, "jac": dynamics_jac},
            {"type": "ineq", "fun": lambda w: f - F @ w, "jac": lambda w: -F},
            {"type": "ineq", "fun": terminal, "jac": terminal_jac},
        ],
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    assert result.success, result.message
    _, _, xb, _ = split(result.x)
    return result.fun, C @ xb


class TestAgainstScipyReference:
    """The problems of the cvxpy cross-checks, criterion 8's first problem
    (input boxes and terminal ellipsoid active) and a later one settled on
    the setpoint polygon's edge, checked against SLSQP with the cvxpy
    checks' cost tolerances; the long trip also on the drag model."""

    def test_matches_scipy_on_linear_model(self, double_integrator, terminal_double):
        x0, r_ref, N = np.array([0.35, 0.3, 0.05, -0.02]), np.array([0.6, 0.55]), 8
        sol = solve_ocp(make_problem(double_integrator, terminal_double, x0, r_ref, horizon=N))
        assert sol.status == "solved"
        ref_cost, ref_rbar = _scipy_reference(double_integrator, terminal_double, x0, r_ref, N)
        assert sol.cost == pytest.approx(ref_cost, rel=1e-5, abs=1e-7)
        assert np.allclose(sol.rbar, ref_rbar, atol=1e-4)

    @pytest.mark.parametrize("x0, r_ref, region, drag", [
        # long trip saturates the inputs early in the horizon
        ([0.05, 0.05, 0.0, 0.0], [0.95, 0.9], None, False),
        ([0.5, 0.5, 0.0, 0.0], [1.4, 0.8], 0.02, False),
        ([0.97, 0.8, 0.0, 0.0], [1.4, 0.8], 0.02, False),
        ([0.05, 0.05, 0.0, 0.0], [0.95, 0.9], None, True),
    ], ids=["active input bounds", "criterion 8 start", "criterion 8 settled", "drag, active input bounds"])
    def test_backed_off_actives_leave_a_bounded_gap(
        self, x0, r_ref, region, drag, double_integrator, drag_model, terminal_double, terminal_drag,
    ):
        model, ts = (drag_model, terminal_drag) if drag else (double_integrator, terminal_double)
        x0, r_ref, N = np.array(x0), np.array(r_ref), 10
        region = None if region is None else square_region(region)
        prob = make_problem(model, ts, x0, r_ref, horizon=N, region=region)
        sol = solve_ocp(prob)
        assert sol.status == "solved"
        assert solution_feasibility(prob, sol)["inequality"] <= 1e-12
        if region is None:  # the long trip holds an input row
            assert np.max(np.abs(sol.u_seq)) >= model.u_max - SqpOptions().backoff - 1e-9
        ref_cost, ref_rbar = _scipy_reference(model, ts, x0, r_ref, N, region)
        assert sol.cost >= ref_cost - 1e-7
        assert sol.cost <= ref_cost * (1 + 2e-3)
        assert np.allclose(sol.rbar, ref_rbar, atol=1e-3)


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

    @pytest.mark.parametrize("drag", [False, True])
    def test_shifted_warm_start_is_never_replaced(
        self, monkeypatch, drag, double_integrator, drag_model, terminal_double, terminal_drag,
    ):
        # the shifted candidate is certified feasible, so the solve starts
        # from it and not from the cold start
        model, ts = (drag_model, terminal_drag) if drag else (double_integrator, terminal_double)
        x0 = np.array([0.2, 0.2, 0.0, 0.0])
        prev = solve_ocp(make_problem(model, ts, x0, [0.6, 0.5], region=square_region()))
        prob = make_problem(model, ts, model.step(x0, prev.u_seq[0]), [0.6, 0.5], region=square_region())
        warm = shift_warm_start(prob, prev)
        calls = []
        cold_start_vector = mpc._cold_start_vector
        monkeypatch.setattr(mpc, "_cold_start_vector", lambda *a: calls.append(1) or cold_start_vector(*a))
        # the start's gaps and inequality values are handed to the loop: no
        # point's values are computed twice
        points = {"eq_constraints": [], "ineq_values": []}
        for cls, name in ((mpc._Workspace, "eq_constraints"), (mpc._Template, "ineq_values")):
            f = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda obj, z, f=f, seen=points[name]: seen.append(z.tobytes()) or f(obj, z))
        sol = solve_ocp(prob, warm=warm)
        assert sol.status == "solved"
        assert sol.iterations >= 1
        assert calls == []
        for name, seen in points.items():
            assert len(seen) == len(set(seen)), name

    @pytest.mark.parametrize("drag", [False, True])
    def test_the_shifted_candidate_is_evaluated_once(
        self, monkeypatch, drag, double_integrator, drag_model, terminal_double, terminal_drag,
    ):
        # the solve takes the gaps and inequality values that the shift's
        # check evaluated; a copy of the candidate is evaluated again and
        # solved to the same bits
        model, ts = (drag_model, terminal_drag) if drag else (double_integrator, terminal_double)
        x0 = np.array([0.2, 0.2, 0.0, 0.0])
        bearings, anchors = ((1, np.array([0.6, 0.8])),), {1: np.array([0.3, 0.4])}
        prev = solve_ocp(make_problem(model, ts, x0, [0.6, 0.5], mu=0.7, bearings=bearings, anchors=anchors,
                                      region=square_region()))
        prob = make_problem(model, ts, model.step(x0, prev.u_seq[0]), [0.6, 0.5], mu=0.7, bearings=bearings,
                            anchors=anchors, region=square_region())
        candidate = shift_warm_start(prob, prev)
        arrays = ("u_seq", "x_seq", "xbar", "ubar")
        copy = replace(candidate, **{name: np.array(getattr(candidate, name)) for name in arrays})
        counts = {"eq_constraints": 0, "ineq_values": 0}
        for cls, name in ((mpc._Workspace, "eq_constraints"), (mpc._Template, "ineq_values")):
            f = getattr(cls, name)

            def counted(obj, z, f=f, name=name):
                counts[name] += 1
                return f(obj, z)

            monkeypatch.setattr(cls, name, counted)
        solved, evaluated = [], []
        for warm in (candidate, copy):
            counts.update(eq_constraints=0, ineq_values=0)
            solved.append(solve_ocp(prob, warm=warm))
            evaluated.append(dict(counts))
        sol, sol_copy = solved
        handed, repacked = evaluated
        assert {name: repacked[name] - handed[name] for name in counts} == {"eq_constraints": 1, "ineq_values": 1}
        assert sol.status == sol_copy.status == "solved"
        for name in (*arrays, "rbar", "cost", "iterations", "kkt_residual"):
            assert np.array_equal(getattr(sol, name), getattr(sol_copy, name)), name
        # the candidate's arrays are read-only, so the values handed on cannot go stale
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(candidate, name)[0] = 1.0
        assert solve_ocp(prob, warm=candidate).cost == sol.cost

    @pytest.mark.parametrize("prev_horizon", [8, 12])
    def test_a_solution_of_another_horizon_is_refused(self, prev_horizon, double_integrator, terminal_double):
        # the shift of an 8-step solution would index past its states, and a
        # 12-step one would leave a candidate with 12 inputs for 10 steps
        x0 = np.array([0.2, 0.2, 0.0, 0.0])
        prev = solve_ocp(make_problem(double_integrator, terminal_double, x0, [0.6, 0.5], horizon=prev_horizon))
        prob = make_problem(double_integrator, terminal_double, double_integrator.step(x0, prev.u_seq[0]),
                            [0.6, 0.5], horizon=10)
        with pytest.raises(InvalidInputError, match="u_seq must have shape"):
            shift_warm_start(prob, prev)
        with pytest.raises(InvalidInputError, match="u_seq must have shape"):
            solve_ocp(prob, warm=prev)
        with pytest.raises(InvalidInputError, match="u_seq must have shape"):
            solution_feasibility(prob, prev)
        with pytest.raises(InvalidInputError, match="x_seq must have shape"):
            solve_ocp(prob, warm=replace(prev, u_seq=np.zeros((10, 2))))
        with pytest.raises(InvalidInputError, match="xbar must have shape"):
            solve_ocp(prob, warm=replace(cold_start(prob), xbar=np.zeros(2)))

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


SOLUTION_FIELDS = ("u_seq", "x_seq", "xbar", "ubar", "cost")


def _solution_bytes(sol, names=SOLUTION_FIELDS + ("kkt_residual",)):
    return [np.asarray(getattr(sol, name)).tobytes() for name in names]


class TestTemplateCache:
    @pytest.fixture
    def problem_factories(self, double_integrator, drag_model, terminal_double, terminal_drag):
        """Problems that share a template (differing in x0, r_ref or the
        bearings) next to problems whose keys differ only in horizon,
        setpoint region or mu."""
        bearings = ((1, np.array([0.6, 0.8])), (3, np.array([1.0, 0.0])))
        anchors = {1: np.array([0.4, 0.7]), 3: np.array([0.8, 0.45])}
        factories = []
        for model, ts in ((double_integrator, terminal_double), (drag_model, terminal_drag)):
            base = dict(region=square_region(), mu=0.7)
            factories += [
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.3, 0.25, 0.1, 0.0], [0.6, 0.5], **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.5, 0.7], **b),
                lambda m=model, t=ts, b=base: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], bearings=bearings, anchors=anchors, **b),
                lambda m=model, t=ts, b=base: make_problem(m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], horizon=7, **b),
                lambda m=model, t=ts: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.9, 0.5], region=square_region(0.15), mu=0.7),
                lambda m=model, t=ts: make_problem(
                    m, t, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5], region=square_region(), mu=0.8),
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

    def test_an_instance_lives_as_long_as_its_problem(self, double_integrator, terminal_double):
        def problem(x0):
            return make_problem(double_integrator, terminal_double, x0, [0.6, 0.5])

        sol = solve_ocp(problem([0.45, 0.45, 0.0, 0.0]))
        p1 = problem(double_integrator.step(sol.x_seq[0], sol.u_seq[0]))
        p2 = problem([0.2, 0.25, 0.0, 0.0])
        # two live problems keep separate instances
        ws1 = mpc._workspace(p1)
        assert mpc._workspace(p2) is not ws1
        # a solve of another problem between a warm-start check and its solve leaves the check's instance alone
        warm = shift_warm_start(p1, sol)
        solve_ocp(p2)
        solve_ocp(p1, warm=warm)
        assert mpc._workspace(p1) is ws1 and ws1.handoff[0] is warm
        # an instance is freed with its problem, with no cycle left for the collector
        refs = [weakref.ref(ws1), weakref.ref(mpc._workspace(p2))]
        del ws1
        gc.disable()
        try:
            del p1, p2
            assert [r() for r in refs] == [None, None]
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


def _workload(name, seed, episode):
    """Episode `episode` of a benchmark workload at `seed`, as perfbench/workloads.py draws it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)(seed, episode)


def _held_bearings(bearings, li, neighbors):
    """Robot li's bearings as sim held them one robot at a time: i -> j of edge (i, j), negated from j's side."""
    return tuple((j, bearings[(li, j)] if li < j else -bearings[(j, li)]) for j in neighbors)


def _assert_same_problem(built, alone):
    for name in ("model", "horizon", "weights", "terminal", "setpoint_region"):
        assert getattr(built, name) is getattr(alone, name) or getattr(built, name) == getattr(alone, name), name
    assert built.x0.tobytes() == alone.x0.tobytes() and built.r_ref.tobytes() == alone.r_ref.tobytes()
    assert [(j, g.tobytes()) for j, g in built.desired_bearings] == [
        (j, g.tobytes()) for j, g in alone.desired_bearings]
    assert {j: a.tobytes() for j, a in built.neighbor_anchors.items()} == {
        j: a.tobytes() for j, a in alone.neighbor_anchors.items()}
    for value in (built.x0, built.r_ref, *(g for _, g in built.desired_bearings), *built.neighbor_anchors.values()):
        assert not value.flags.writeable


def _assert_instance_is_the_reference(problem):
    ws, want = mpc._workspace(problem), instance_arrays(problem)
    for name in ("f0", "Mb", "fb", "H_thth"):
        got = getattr(ws, name)
        assert got.shape == want[name].shape and got.tobytes() == want[name].tobytes(), name
    assert ws.H_max == want["H_max"]


class TestTeamProblems:
    """`team_problems` against the problems and instances sim built one robot at a time."""

    def test_swarm96_step_matches_the_per_robot_build_bitwise(self, monkeypatch):
        from rigid_coverage import sim

        seen = {"problems": {}}
        decentralized, build = sim._decentralized, sim.team_problems

        def spied_step(team, config, terminals, shrunk):
            seen["step"] = (list(team.alive), team.states.copy(), team.refs.copy(), dict(team.g_des), team.graph,
                            config, terminals, shrunk)
            return decentralized(team, config, terminals, shrunk)

        def spied_build(*args):
            built = build(*args)
            seen["problems"].update(zip(args[5], built))
            return built

        monkeypatch.setattr(sim, "_decentralized", spied_step)
        monkeypatch.setattr(sim, "team_problems", spied_build)
        sim.run(config_from_dict(dict(_workload("swarm96", 0, 0), steps=1, faults=[])))
        alive, states, refs, g_des, graph, config, terminals, shrunk = seen["step"]
        assert sorted(seen["problems"]) == list(range(96)) and len(g_des) == graph.m
        for li, problem in seen["problems"].items():
            model = config.models[alive[li]]
            alone = OcpProblem(
                model=model, horizon=config.horizon, weights=config.weights, terminal=terminals[model],
                x0=states[li], r_ref=refs[li], desired_bearings=_held_bearings(g_des, li, graph.neighbors(li)),
                neighbor_anchors={j: refs[j] for j in graph.neighbors(li)}, setpoint_region=shrunk,
            )
            _assert_same_problem(problem, alone)
            _assert_instance_is_the_reference(problem)

    def test_mixed_team_with_a_lone_robot_matches_the_per_robot_build_bitwise(
        self, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        rng = np.random.default_rng(5)
        n, ids = 7, [0, 2, 3, 5, 8, 9, 11]
        models = [double_integrator, drag_model] * 3 + [drag_model]
        terminals = {double_integrator: terminal_double, drag_model: terminal_drag}
        states = np.column_stack([rng.uniform(0.1, 0.9, (n, 2)), rng.uniform(-0.3, 0.3, (n, 2))])
        refs = rng.uniform(0.1, 0.9, (n, 2))
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 6), (4, 6)]  # robot 5 has no neighbour
        bearings = {(i, j): (refs[j] - refs[i]) / np.linalg.norm(refs[j] - refs[i]) for i, j in edges}
        weights, region = scenario_weights(mu=0.7), square_region()
        built = {}
        for model in (double_integrator, drag_model):
            rows = [li for li in range(n) if models[li] is model]
            problems = mpc.team_problems(model, 10, weights, terminals[model], region, rows, states[rows], refs,
                                         bearings, ids)
            built.update(zip(rows, problems))
        assert sorted(built) == list(range(n)) and built[5].desired_bearings == ()
        for li, problem in built.items():
            neighbors = sorted(j for edge in edges if li in edge for j in edge if j != li)
            alone = OcpProblem(
                model=models[li], horizon=10, weights=weights, terminal=terminals[models[li]], x0=states[li],
                r_ref=refs[li], desired_bearings=_held_bearings(bearings, li, neighbors),
                neighbor_anchors={j: refs[j] for j in neighbors}, setpoint_region=region,
            )
            _assert_same_problem(problem, alone)
            _assert_instance_is_the_reference(problem)
            _assert_instance_is_the_reference(alone)  # a problem built alone is a team of one
        # the stacks are own copies
        states[:], refs[:] = 0.0, 0.0
        assert built[0].x0.any() and built[0].r_ref.any() and built[1].neighbor_anchors[0].any()

    @pytest.mark.parametrize("change, message", [
        ({"rows": [1, 0]}, "rows must be ascending"),
        ({"rows": [0, 3]}, "rows must be ascending"),
        ({"x0": np.zeros((3, 4))}, "rows must be ascending"),
        ({"bearings": {(1, 0): np.array([1.0, 0.0])}}, "bearing edges must be pairs"),
        ({"bearings": {(1, 3): np.array([1.0, 0.0])}}, "bearing edges must be pairs"),
    ], ids=["descending rows", "row outside the team", "x0 longer than rows", "edge (j, i)", "edge outside the team"])
    def test_malformed_team_raises_typed_errors(self, change, message, double_integrator, terminal_double):
        kw = dict(rows=[0, 1], x0=np.zeros((2, 4)), refs=np.full((3, 2), 0.5), bearings={}, ids=[0, 1, 2])
        kw.update(change)
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            mpc.team_problems(double_integrator, 10, scenario_weights(), terminal_double, None, **kw)

    def test_a_team_problem_solves_as_its_problem_built_alone(self, double_integrator, terminal_double):
        refs = np.array([[0.6, 0.5], [0.3, 0.7], [0.5, 0.2]])
        edges = ((0, 1), (0, 2), (1, 2))
        bearings = {(i, j): (refs[j] - refs[i]) / np.linalg.norm(refs[j] - refs[i]) for i, j in edges}
        states = np.array([[0.2, 0.2, 0.0, 0.0], [0.4, 0.6, 0.1, 0.0], [0.7, 0.3, 0.0, -0.1]])
        weights = scenario_weights(mu=0.7)
        team = mpc.team_problems(double_integrator, 10, weights, terminal_double, square_region(), [0, 1, 2],
                                 states, refs, bearings, [0, 1, 2])
        for li, problem in enumerate(team):
            alone = OcpProblem(
                model=double_integrator, horizon=10, weights=weights, terminal=terminal_double, x0=states[li],
                r_ref=refs[li], desired_bearings=_held_bearings(bearings, li, [j for j in range(3) if j != li]),
                neighbor_anchors={j: refs[j] for j in range(3) if j != li}, setpoint_region=square_region(),
            )
            assert _solution_bytes(solve_ocp(problem)) == _solution_bytes(solve_ocp(alone))


def _loop_linear_ineq(problem):
    """Row-by-row construction of G and h: per column of the inputs and
    states, the upper face then the lower one, then the setpoint polygon on
    theta.  The steady pair (theta, 0) has no box rows."""
    tpl = mpc._workspace(problem).tpl
    model = problem.model
    rows, offs = [], []

    def box(idx, bounds):
        for k, (lo, hi) in enumerate(zip(bounds.lower, bounds.upper)):
            for bound, sign in ((hi, 1.0), (-lo, -1.0)):
                if np.isfinite(bound):
                    scale = max(1.0, abs(bound))
                    row = np.zeros(tpl.nz)
                    row[idx.start + k] = sign / scale
                    rows.append(row)
                    offs.append(bound / scale)

    for l in range(tpl.N):
        box(tpl.iu(l), model.input_bounds)
    for l in range(1, tpl.N + 1):
        box(tpl.ix(l), model.state_bounds)
    if problem.setpoint_region is not None:
        A, b = problem.setpoint_region.half_planes()
        for a_row, b_val in zip(A, b):
            scale = max(1.0, abs(b_val))
            row = np.zeros(tpl.nz)
            row[tpl.ith] = a_row / scale
            rows.append(row)
            offs.append(b_val / scale)
    return np.vstack(rows), np.asarray(offs)


def _loop_eq_jacobian(tpl, u_seq, x_seq):
    """Stage-by-stage assembly of the equality Jacobian, one `jacobians`
    call per stage; theta enters no dynamics row."""
    nx, N = tpl.nx, tpl.N
    J = np.zeros((tpl.n_eq, tpl.nz))
    for l in range(N):
        A, B = tpl.model.jacobians(x_seq[l], u_seq[l])
        r = slice(l * nx, (l + 1) * nx)
        J[r, tpl.ix(l + 1)] = np.eye(nx)
        if l >= 1:
            J[r, tpl.ix(l)] = -A
        J[r, tpl.iu(l)] = -B
    return J


def _loop_cost_rows(problem):
    """Stage-by-stage construction of the structural cost rows M_struct; the
    steady pair is xbar = C' theta (at rest at theta) and ubar = 0."""
    tpl = mpc._workspace(problem).tpl
    w, N, nx, nu = problem.weights, tpl.N, tpl.nx, tpl.nu
    L_Q, L_R, L_P = (mpc._psd_sqrt(Q) for Q in (w.Q, w.R, problem.terminal.P))
    E = problem.model.C.T
    M = np.zeros_like(tpl.M_struct)
    M[:nx, tpl.ith] = -L_Q @ E
    for l in range(1, N):
        M[l * nx : (l + 1) * nx, tpl.ix(l)] = L_Q
        M[l * nx : (l + 1) * nx, tpl.ith] = -L_Q @ E
    for l in range(N):
        r = N * nx + l * nu
        M[r : r + nu, tpl.iu(l)] = L_R
    r = N * (nx + nu)
    M[r : r + nx, tpl.ix(N)] = L_P
    M[r : r + nx, tpl.ith] = -L_P @ E
    M[r + nx :, tpl.ith] = np.sqrt(w.mu) * mpc._psd_sqrt(w.S_r)
    return M


def _loop_residual(problem):
    """The whole cost residual M z + f0 as one matrix: the structural rows
    of `_loop_cost_rows` and their offsets, then d rows per bearing."""
    tpl = mpc._workspace(problem).tpl
    w, nx, d = problem.weights, tpl.nx, tpl.d
    rows = [_loop_cost_rows(problem)]
    f0 = np.zeros(len(rows[0]))
    f0[:nx] = mpc._psd_sqrt(w.Q) @ problem.x0
    f0[-d:] = -np.sqrt(w.mu) * (mpc._psd_sqrt(w.S_r) @ problem.r_ref)
    offsets = [f0]
    s_b = np.sqrt((1.0 - w.mu) * w.w_b)
    for j, g in problem.desired_bearings:
        block = np.zeros((d, tpl.nz))
        block[:, tpl.ith] = s_b * bearing_projector(g)
        rows.append(block)
        offsets.append(-s_b * bearing_projector(g) @ problem.neighbor_anchors[j])
    return np.vstack(rows), np.concatenate(offsets)


def _cost_hessian(ws):
    """The cost Hessian as one matrix, scattered stage by stage from the
    template's blocks and the instance's theta-theta block; zero elsewhere."""
    tpl = ws.tpl
    H = np.zeros((tpl.nz, tpl.nz))
    for l in range(tpl.N):
        H[tpl.iu(l), tpl.iu(l)] = tpl.H_uu[l]
        x = tpl.ix(l + 1)
        H[x, x] = tpl.H_xx[l]
        H[x, tpl.ith] = tpl.H_xth[l]
        H[tpl.ith, x] = tpl.H_thx[:, l * tpl.nx : (l + 1) * tpl.nx]
    H[tpl.ith, tpl.ith] = ws.H_thth
    return H


class TestClosedFormCost:
    """The workspace's cost Hessian is the template's stage blocks plus a
    small block on theta for the bearings; no residual matrix is built per
    problem."""

    @staticmethod
    def _problem(model, ts, horizon, n_bearings, mu=0.7):
        angles = {1: 0.3, 3: 2.0, 4: -1.1}
        anchors = {1: np.array([0.4, 0.7]), 3: np.array([0.8, 0.45]), 4: np.array([0.1, 0.9])}
        bearings = tuple((j, np.array([np.cos(a), np.sin(a)])) for j, a in angles.items())[:n_bearings]
        return make_problem(model, ts, [0.2, 0.3, 0.1, -0.2], [0.6, 0.5], mu=mu, bearings=bearings,
                            anchors=anchors, region=square_region(), horizon=horizon)

    @pytest.mark.parametrize("n_bearings", [0, 1, 3])
    @pytest.mark.parametrize("horizon", [1, 2, 10, 40])
    @pytest.mark.parametrize("linear", [True, False])
    def test_matches_the_whole_residual_matrix(
        self, linear, horizon, n_bearings, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = self._problem(model, ts, horizon, n_bearings)
        ws = mpc._workspace(prob)
        M, f0 = _loop_residual(prob)
        assert len(M) == len(ws.tpl.M_struct) + 2 * n_bearings

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

        H = 2.0 * M.T @ M
        assert close(_cost_hessian(ws), H)
        assert ws.H_max == np.max(np.abs(_cost_hessian(ws)))
        for z in np.random.default_rng(horizon).uniform(-0.5, 0.5, (3, ws.tpl.nz)):
            res = M @ z + f0
            assert abs(ws.cost(z) - res @ res) <= 1e-13 * (res @ res)
            assert close(ws.cost_grad(z), 2.0 * M.T @ res)
        if n_bearings:
            assert ws.H_thth is not ws.tpl.H_thth
            assert not np.array_equal(ws.H_thth, ws.tpl.H_thth)

    @pytest.mark.parametrize("n_bearings", [0, 1, 2, 3])
    @pytest.mark.parametrize("linear", [True, False])
    def test_the_bearing_rows_match_a_loop_over_the_bearings(
        self, linear, n_bearings, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        # the instance builds every bearing's rows at once, to the bits of one bearing at a time
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = self._problem(model, ts, 10, n_bearings)
        ws = mpc._workspace(prob)
        tpl, d = ws.tpl, ws.tpl.d
        Mb, fb = np.empty((n_bearings * d, d)), np.empty(n_bearings * d)
        for k, (j, g) in enumerate(prob.desired_bearings):
            Pg = tpl.s_b * (np.eye(d) - np.outer(g, g))
            Mb[k * d : (k + 1) * d] = Pg
            fb[k * d : (k + 1) * d] = -(Pg @ prob.neighbor_anchors[j])
        assert np.array_equal(ws.Mb, Mb)
        assert np.array_equal(ws.fb, fb)
        assert np.array_equal(ws.H_thth, tpl.H_thth + 2.0 * Mb.T @ Mb if n_bearings else tpl.H_thth)

    @pytest.mark.parametrize("horizon", [1, 10, 40])
    @pytest.mark.parametrize("linear", [True, False])
    def test_a_bearing_free_problem_keeps_the_bits_of_the_residual_matrix(
        self, monkeypatch, linear, horizon, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        # Without bearings the closed form runs the arithmetic of the
        # residual matrix bit for bit
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = self._problem(model, ts, horizon, 0)
        ws = mpc._workspace(prob)
        M, f0 = _loop_residual(prob)
        assert np.array_equal(ws.f0, f0)
        H = 2.0 * M.T @ M
        assert np.array_equal(_cost_hessian(ws), H)
        assert ws.H_thth is ws.tpl.H_thth  # shared, not copied
        for z in np.random.default_rng(horizon).uniform(-0.5, 0.5, (3, ws.tpl.nz)):
            assert ws.cost(z) == float((M @ z + f0) @ (M @ z + f0))
            assert np.array_equal(ws.cost_grad(z), 2.0 * M.T @ (M @ z + f0))
        h_max = []
        active_set = mpc._active_set
        monkeypatch.setattr(mpc, "_active_set", lambda ws, z, c, g, opts: h_max.append(ws.H_max)
                            or active_set(ws, z, c, g, opts))
        solve_ocp(prob)
        assert h_max == [float(np.max(np.abs(H)))]


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

    @pytest.fixture(params=[("linear", None, 10), ("linear", 0.02, 1), ("drag", 0.02, 10),
                            ("drag", None, 3), ("skewed", 0.02, 4)])
    def problem(self, request, double_integrator, drag_model, terminal_double, terminal_drag):
        kind, region_margin, horizon = request.param
        model, ts = {
            "linear": (double_integrator, terminal_double),
            "drag": (drag_model, terminal_drag),
            "skewed": (_SkewedBoxes(), terminal_double),
        }[kind]
        region = None if region_margin is None else square_region(region_margin)
        return make_problem(model, ts, [0.2, 0.3, 0.1, -0.2], [0.6, 0.5], region=region, horizon=horizon)

    def test_inequality_rows_match_the_loop(self, problem):
        G, h = _loop_linear_ineq(problem)
        tpl = mpc._workspace(problem).tpl
        assert np.array_equal(tpl.G, G)
        assert np.array_equal(tpl.h, h)

    def test_cost_rows_match_the_loop(self, problem):
        assert np.array_equal(mpc._workspace(problem).tpl.M_struct, _loop_cost_rows(problem))

    @pytest.mark.parametrize("horizon", [1, 2, 10, 40])
    @pytest.mark.parametrize("linear", [True, False])
    def test_equality_jacobian_matches_the_stage_loop(
        self, horizon, linear, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        ws = mpc._workspace(make_problem(model, ts, [0.2, 0.2, 0.1, -0.05], [0.6, 0.5], horizon=horizon))
        z = np.random.default_rng(horizon).uniform(-0.4, 0.4, ws.tpl.nz)
        z[ws.tpl.ix(1)][2:] = 0.0  # a stage at rest
        import penalty_sqp_reference as reference

        J = reference.eq_jacobian(ws.tpl, *ws.stage_jacobians(z))
        np.testing.assert_allclose(J, _loop_eq_jacobian(ws.tpl, *ws.unpack(z)[:2]), rtol=1e-15, atol=0.0)

    def test_pack_unpack_and_dynamics_gaps_match_the_loop(self, problem):
        ws = mpc._workspace(problem)
        tpl, model, N = ws.tpl, problem.model, problem.horizon
        rng = np.random.default_rng(7)
        z = rng.uniform(-0.5, 0.5, tpl.nz)
        u_seq, x_seq, xbar, ubar = ws.unpack(z)
        assert np.array_equal(u_seq, np.stack([z[tpl.iu(l)] for l in range(N)]))
        assert np.array_equal(x_seq, np.vstack([problem.x0] + [z[tpl.ix(l)] for l in range(1, N + 1)]))
        # the steady pair at rest at theta
        assert np.array_equal(xbar, np.r_[z[tpl.ith], 0.0, 0.0]) and np.array_equal(ubar, np.zeros(2))
        assert np.array_equal(model.step(xbar, ubar), xbar)
        assert np.array_equal(tpl.pack(u_seq, x_seq, xbar, ubar), z)
        gaps = [x_seq[l + 1] - model.step(x_seq[l], u_seq[l]) for l in range(N)]
        assert np.array_equal(ws.eq_constraints(z), np.concatenate(gaps))


class TestConstantJacobian:
    def test_flag_is_set_on_the_linear_model_only(self):
        assert DoubleIntegrator.constant_jacobians
        assert not DragDoubleIntegrator.constant_jacobians

    @pytest.mark.parametrize("linear", [True, False])
    def test_stage_jacobians_move_with_z_only_when_nonlinear(
        self, linear, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = make_problem(model, ts, [0.2, 0.2, 0.1, -0.05], [0.6, 0.5])
        ws = mpc._workspace(prob)
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-0.4, 0.4, ws.tpl.nz)
        z2 = rng.uniform(-0.4, 0.4, ws.tpl.nz)
        (A1, B1), (A2, B2) = ws.stage_jacobians(z1), ws.stage_jacobians(z2)
        # the Jacobians of linearize at the stages of z are what either path returns
        for z, A, B in ((z1, A1, B1), (z2, A2, B2)):
            u_seq, x_seq = ws.unpack(z)[:2]
            A_ref, B_ref = model.jacobians(x_seq[:-1], u_seq)
            assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
        if linear:
            assert A1 is A2 is ws.tpl.A and B1 is B2 is ws.tpl.B
        else:
            assert ws.tpl.A is None and ws.tpl.Cx_inv is None
            assert not np.array_equal(A1, A2)

    def test_drag_solve_linearises_each_iterate_once(self, monkeypatch, drag_model, terminal_drag):
        builds, calls = [], []
        build, linearize = mpc._Workspace.stage_jacobians, mpc.linearize

        def recorded_build(ws, z):
            builds.append(z.tobytes())
            return build(ws, z)

        def counted_linearize(*args):
            calls.append(1)
            return linearize(*args)

        monkeypatch.setattr(mpc._Workspace, "stage_jacobians", recorded_build)
        monkeypatch.setattr(mpc, "linearize", counted_linearize)
        prob = make_problem(drag_model, terminal_drag, [0.2, 0.2, 0.3, -0.2], [0.7, 0.5], mu=0.7,
                            region=square_region())
        sol = solve_ocp(prob)
        assert sol.status == "solved" and sol.iterations >= 3
        assert len(builds) >= sol.iterations
        assert len(set(builds)) == len(builds)
        assert len(calls) == len(builds)

    def test_template_arrays_are_read_only(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double, np.zeros(4), [0.5, 0.5],
                            region=square_region())
        tpl = mpc._workspace(prob).tpl
        arrays = {name: v for name, v in vars(tpl).items() if isinstance(v, np.ndarray)}
        blocks = {"H_xx", "H_uu", "H_xth", "H_thx", "H_thth", "W_term", "A", "B", "Cx_inv", "S"}
        assert {"G", "h", "M_struct", "T_term"} | blocks <= set(arrays)
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            tpl.G[0, 0] = 1.0
        with pytest.raises(ValueError):
            tpl.A += 1.0

    @pytest.mark.parametrize("linear", [True, False])
    def test_no_template_or_instance_keeps_a_z_wide_hessian_or_jacobian(
        self, linear, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = make_problem(model, ts, [0.2, 0.2, 0.1, -0.05], [0.6, 0.5], mu=0.7,
                            bearings=((1, np.array([0.6, 0.8])),), anchors={1: np.array([0.3, 0.4])}, horizon=40)
        ws = mpc._workspace(prob)
        tpl = ws.tpl
        for name, value in [*vars(tpl).items(), *vars(ws).items()]:
            assert np.shape(value) not in {(tpl.nz, tpl.nz), (tpl.n_eq, tpl.nz)}, name


def _drag_chain(model, ts, horizon, x, r_ref, steps=5):
    """Solves of a short closed loop, each warm-started from the last one's shift."""
    sols, prev = [], None
    for _ in range(steps):
        prob = make_problem(model, ts, x, r_ref, mu=0.7, region=square_region(), horizon=horizon)
        sol = solve_ocp(prob, warm=shift_warm_start(prob, prev) if prev is not None else None)
        sols.append(sol)
        x, prev = model.step(x, sol.u_seq[0]), sol
    return sols


class TestExactHessian:
    """The active-set passes use the Hessian of the Lagrangian, with the
    dynamics' curvature weighted by their multipliers: Newton, not
    Gauss-Newton, steps on a nonlinear model."""

    def test_pass_curvature_matches_finite_differences(self, drag_model, terminal_drag):
        # the curvature of the dense pass Hessian that TestCondensedKkt's
        # full KKT solve uses, and the condensed solve must match
        prob = make_problem(drag_model, terminal_drag, [0.2, 0.2, 0.3, -0.2], [0.7, 0.5], horizon=3)
        ws = mpc._workspace(prob)
        tpl = ws.tpl
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.5, 0.5, tpl.nz)
        # speeds of 0.1-0.45 keep the second differences clear of v = 0
        for l in (1, 2, 3):
            v = rng.normal(size=2)
            z[tpl.ix(l)][2:] = rng.uniform(0.1, 0.45) * v / np.linalg.norm(v)
        nu = rng.uniform(-3.0, 3.0, tpl.n_eq)
        H = _dense_pass_hessian(prob, z, nu, 0.0)
        H_cost = _dense_pass_hessian(prob, z, np.zeros(tpl.n_eq), 0.0)

        def phi(z):
            return float(nu @ ws.eq_constraints(z))

        step = 1e-4
        E = step * np.eye(tpl.nz)
        fd = np.empty((tpl.nz, tpl.nz))
        for j in range(tpl.nz):
            for k in range(tpl.nz):
                fd[j, k] = (
                    phi(z + E[j] + E[k]) - phi(z + E[j] - E[k]) - phi(z - E[j] + E[k]) + phi(z - E[j] - E[k])
                ) / (4 * step * step)
        assert np.max(np.abs(fd)) > 0.1  # the curvature is there to be found
        np.testing.assert_allclose(H - H_cost, fd, rtol=0.0, atol=1e-6)

    def test_a_warm_drag_pass_cuts_the_residual_quadratically(self, monkeypatch, drag_model, terminal_drag):
        residuals = []
        kkt_residual = mpc._kkt_residual
        monkeypatch.setattr(mpc, "_kkt_residual", lambda *a: residuals.append(kkt_residual(*a)) or residuals[-1])
        x = np.array([0.2, 0.2, 0.3, -0.2])
        first = solve_ocp(make_problem(drag_model, terminal_drag, x, [0.7, 0.5], mu=0.7,
                                       region=square_region()))
        prob = make_problem(drag_model, terminal_drag, drag_model.step(x, first.u_seq[0]), [0.7, 0.5], mu=0.7,
                            region=square_region())
        residuals.clear()
        sol = solve_ocp(prob, warm=shift_warm_start(prob, first))
        assert sol.status == "solved"
        # no pass stopped on a blocking row, so the residuals are of consecutive passes
        assert len(residuals) == sol.iterations
        assert residuals[0] > 1e-5
        # Gauss-Newton passes cut it about 100-fold here
        assert residuals[1] <= 1e-4 * residuals[0]

    @pytest.mark.parametrize("horizon", [10, 40])
    @pytest.mark.parametrize("drag", [0.5, 2.0, 8.0])
    def test_drag_chains_agree_with_gauss_newton_in_fewer_passes(self, monkeypatch, drag, horizon):
        model = DragDoubleIntegrator(drag=drag)
        ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
        options = SqpOptions()
        starts = [([0.2, 0.2, 0.3, -0.2], [0.7, 0.5]), ([0.5, 0.6, 0.0, 0.0], [0.3, 0.2]),
                  ([0.4, 0.7, 0.45, 0.1], [1.2, -0.3])]
        newton = [_drag_chain(model, ts, horizon, np.array(x0), r_ref) for x0, r_ref in starts]
        # Gauss-Newton: the Q-blocks without the dynamics' curvature
        monkeypatch.setattr(DragDoubleIntegrator, "state_curvature", SecondOrderModel.state_curvature)
        gauss_newton = [_drag_chain(model, ts, horizon, np.array(x0), r_ref) for x0, r_ref in starts]
        for chain, reference in zip(newton, gauss_newton):
            for sol, ref in zip(chain, reference):
                assert sol.status == "solved" and sol.kkt_residual <= options.tol_stationarity
                # either path may stop anywhere under tol_stationarity: on drag 8
                # Gauss-Newton stops at residuals of 1e-7 and more
                assert sol.cost == pytest.approx(ref.cost, rel=options.tol_stationarity)
                # a row near its bound may end held at -backoff on one path
                # and just inside it on the other (drag 8, N = 10, third start)
                for name in ("u_seq", "x_seq", "xbar", "ubar"):
                    assert np.allclose(getattr(sol, name), getattr(ref, name), rtol=0.0, atol=options.backoff), name
            assert sum(s.iterations for s in chain) <= sum(s.iterations for s in reference)
        assert sum(s.iterations for c in newton for s in c) < sum(s.iterations for c in gauss_newton for s in c)

    def test_start_gauss_newton_ran_out_on_is_solved(self):
        # Gauss-Newton passes spend all 150 on this cold solve and leave a
        # dynamics gap of 1.3e-2 (OcpInfeasibleError)
        model = DragDoubleIntegrator(drag=2.0)
        ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
        chain = _drag_chain(model, ts, 10, np.array([0.8, 0.3, -0.4, 0.4]), [0.1, 1.2])
        assert all(sol.status == "solved" for sol in chain)
        assert chain[0].iterations < 20


def _dense_pass_hessian(problem, z, nu, lam_term):
    """The Hessian of an active-set pass as one matrix: the whole residual
    matrix's 2 M'M, lam_term times the terminal row's curvature on
    T_term, and nu . d2c/dz2 of the dynamics rows, c_l = x_{l+1} - f(x_l,
    u_l), from the model's curvature at x_1 .. x_{N-1}."""
    tpl = mpc._workspace(problem).tpl
    M, _ = _loop_residual(problem)
    T = tpl.T_term
    H = 2.0 * M.T @ M + lam_term * T.T @ (2.0 * problem.terminal.P / tpl.zeta_scale) @ T
    nu = nu.reshape(tpl.N, tpl.nx)
    for l in range(1, tpl.N):
        H[tpl.ix(l), tpl.ix(l)] -= problem.model.state_curvature(z[tpl.ix(l)], nu[l])
    return H


PASS_LAM_TERM = 0.7


def _pass(model, ts, horizon, seed):
    """A problem with a bearing, at a random point, random dynamics
    multipliers nu, and the dense Hessian of an active-set pass there with
    PASS_LAM_TERM."""
    prob = make_problem(model, ts, [0.2, 0.2, 0.3, -0.2], [0.7, 0.5], mu=0.7,
                        bearings=((1, np.array([0.6, 0.8])),), anchors={1: np.array([0.3, 0.4])},
                        region=square_region(), horizon=horizon)
    ws = mpc._workspace(prob)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.4, 0.4, ws.tpl.nz)
    nu = rng.uniform(-3.0, 3.0, ws.tpl.n_eq)
    return ws, z, nu, _dense_pass_hessian(prob, z, nu, PASS_LAM_TERM), rng


def _box_row(tpl, col, upper):
    """The box row of G on column col of z, its upper or its lower face."""
    (row,) = np.flatnonzero(tpl.G[:, col] > 0 if upper else tpl.G[:, col] < 0)
    return row


def _dependent_start(model, ts):
    """A warm start holding u_0,y and v_1,y both backoff/2 below their
    upper bounds: the dynamics tie the two rows, dv_1,y = h du_0,y."""
    N, slack = 11, 1e-4
    # v_1,y = v + h (u_max - slack - drag v^2) = v_max - slack, a quadratic in v (linear without drag)
    a, c = -model.h * model.drag, model.h * (model.u_max - slack) - (model.v_max - slack)
    x0 = np.array([0.5, 0.2, 0.0, -2.0 * c / (1.0 + np.sqrt(1.0 - 4.0 * a * c))])
    prob = make_problem(model, ts, x0, [0.5, 1.5], mu=0.75, region=square_region(), horizon=N)
    steady = ts.translated_steady(model, np.array([0.5, 0.5]))
    u_seq, x_seq = np.zeros((N, 2)), np.zeros((N + 1, 4))
    x_seq[0] = x0
    for l in range(N):
        u = steady.u + ts.K @ (x_seq[l] - steady.x)
        u_seq[l] = [0.0, model.u_max - slack] if l == 0 else np.clip(u, -model.u_max, model.u_max)
        x_seq[l + 1] = model.step(x_seq[l], u_seq[l])
    assert x_seq[1, 3] == pytest.approx(model.v_max - slack, abs=1e-12)
    warm = OcpSolution(u_seq, x_seq, steady.x, steady.u, steady.r, 0.0, "candidate")
    assert solution_feasibility(prob, warm)["inequality"] < 0.0
    return prob, warm


def _strict_solve(monkeypatch):
    """Make np.linalg.solve refuse a rank-deficient matrix even where round-off hides the singularity."""
    solve = np.linalg.solve

    def strict_solve(a, b):
        if np.linalg.matrix_rank(a) < len(a):
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", strict_solve)


class TestCondensedKkt:
    """Both models solve each pass's KKT system with the shooting states
    eliminated (`_kkt_solver`); the (step, nu, lam) it returns is the full
    system's."""

    @pytest.fixture(params=["linear", "drag"])
    def model_and_terminal(self, request, double_integrator, drag_model, terminal_double, terminal_drag):
        return (double_integrator, terminal_double) if request.param == "linear" else (drag_model, terminal_drag)

    @pytest.mark.parametrize("horizon", [1, 2, 10, 40])
    def test_the_blocks_the_elimination_relies_on(self, horizon, model_and_terminal):
        ws, z, _, H, _ = _pass(*model_and_terminal, horizon, seed=horizon)
        tpl = ws.tpl
        N, nx, x = tpl.N, tpl.nx, tpl.ix_all
        # H: no u-x or u-theta block, H_xx and H_uu block-diagonal, theta coupled to x
        assert not np.any(H[tpl.iu_all, x]) and not np.any(H[tpl.iu_all, tpl.ith])
        for n, idx in ((nx, x), (tpl.nu, tpl.iu_all)):
            diagonal = mpc._diagonal_blocks(N, 0, 0, n, n)
            H_diag = np.zeros((N * n, N * n))
            H_diag[diagonal] = H[idx, idx][diagonal]
            assert np.array_equal(H[idx, idx], H_diag)
        assert np.any(H[x, tpl.ith])
        # only shooting rows: unit block lower-bidiagonal in x, nothing on theta
        C_J = _loop_eq_jacobian(tpl, *ws.unpack(z)[:2])
        Cx_inv, S = tpl.condense(*ws.stage_jacobians(z))
        assert C_J.shape == (N * nx, tpl.nz)
        C_x = C_J[:, x].copy()
        assert np.array_equal(C_x[mpc._diagonal_blocks(N, 0, 0, nx, nx)], np.broadcast_to(np.eye(nx), (N, nx, nx)))
        assert not np.any(C_J[:, tpl.ith])
        # the condensing inverts C_x and maps du to dx
        np.testing.assert_allclose(Cx_inv @ C_x, np.eye(N * nx), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(S, -Cx_inv @ C_J[:, tpl.iu_all], rtol=0.0, atol=1e-13)
        C_x[mpc._diagonal_blocks(N, 0, 0, nx, nx)] = 0.0
        C_x[mpc._diagonal_blocks(N - 1, nx, 0, nx, nx)] = 0.0
        assert not np.any(C_x)

    @pytest.mark.parametrize("horizon", [1, 2, 10, 40])
    def test_matches_the_full_kkt_solve(self, horizon, model_and_terminal):
        ws, z, nu, H, rng = _pass(*model_and_terminal, horizon, seed=100 + horizon)
        tpl = ws.tpl
        N, nx, nz, n_eq = tpl.N, tpl.nx, tpl.nz, tpl.n_eq
        n_region = len(square_region().half_planes()[1])
        # v_1 is u_0's alone (dv_1 = h du_0), so a horizon of 1 takes no v_N,x row
        work = np.unique([
            _box_row(tpl, 0, upper=True),  # u_0,x
            _box_row(tpl, tpl.ix(1).start + 3, upper=True),  # v_1,y
            *([_box_row(tpl, tpl.ix(N).start + 2, upper=False)] if N > 1 else []),  # v_N,x
            len(tpl.G) - n_region,  # a setpoint edge
            len(tpl.h),  # the terminal ellipsoid
        ])
        lin = mpc._linearization(ws, z, work)
        c, _, _, G_A, grad = lin
        C_J = _loop_eq_jacobian(tpl, *ws.unpack(z)[:2])
        nA = len(work)
        assert np.linalg.matrix_rank(np.vstack([C_J, G_A])) == n_eq + nA
        KKT = np.block([
            [H, C_J.T, G_A.T],
            [C_J, np.zeros((n_eq, n_eq + nA))],
            [G_A, np.zeros((nA, n_eq + nA))],
        ])
        rhs_A = rng.uniform(-1e-3, 1e-3, nA)
        want = np.linalg.solve(KKT, np.concatenate([-grad, -c, rhs_A]))
        got = mpc._kkt_solver(ws, z, lin, nu, PASS_LAM_TERM)(G_A, rhs_A)
        assert got.shape == want.shape
        for part in (slice(0, nz), slice(nz, nz + n_eq), slice(nz + n_eq, None)):  # step, nu, lam
            np.testing.assert_allclose(got[part], want[part], rtol=0.0, atol=1e-10 * np.max(np.abs(want[part])))
        # the stationarity residual takes C_J' nu stage by stage
        mult = rng.uniform(-1.0, 1.0, n_eq + nA)
        res = np.linalg.norm(grad + C_J.T @ mult[:n_eq] + G_A.T @ mult[n_eq:], ord=np.inf)
        assert mpc._kkt_residual(tpl, lin, mult) == pytest.approx(res, rel=1e-12)

    @pytest.mark.parametrize("horizon", [10, 40])
    def test_a_solve_factors_no_full_kkt_matrix(self, monkeypatch, horizon, model_and_terminal):
        sizes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(a)) or solve(a, b))
        prob = make_problem(*model_and_terminal, [0.2, 0.2, 0.3, -0.2], [0.7, 0.5], mu=0.7,
                            region=square_region(), horizon=horizon)
        sol = solve_ocp(prob)
        assert sol.status == "solved"
        assert len(sizes) >= sol.iterations
        assert max(sizes) < mpc._workspace(prob).tpl.nz

    def test_a_warm_drag_solve_peaks_under_1_mb(self, drag_model, terminal_drag):
        # an nz x nz pass Hessian (242 x 242 here) and an n_eq x nz equality
        # Jacobian per pass took the peak to 2.1 MB, and two passes'
        # condensings alive at once to 1.2 MB
        kw = dict(mu=0.7, bearings=((1, np.array([0.6, 0.8])),), anchors={1: np.array([0.3, 0.4])},
                  region=square_region(), horizon=40)
        x0 = np.array([0.2, 0.2, 0.3, -0.2])
        cold = solve_ocp(make_problem(drag_model, terminal_drag, x0, [0.7, 0.5], **kw))
        prob = make_problem(drag_model, terminal_drag, drag_model.step(x0, cold.u_seq[0]), [0.7, 0.5], **kw)
        warm = shift_warm_start(prob, cold)
        tracemalloc.start()
        try:
            sol = solve_ocp(prob, warm=warm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "solved" and sol.iterations >= 2
        assert peak < 2**20

    def test_dependent_working_rows_leave_the_set_on_the_drag_model(self, monkeypatch, drag_model, terminal_drag):
        prob, warm = _dependent_start(drag_model, terminal_drag)
        plain = solve_ocp(prob, warm=warm)
        assert plain.status == "solved"
        # a solve that refuses a rank-deficient matrix: _independent_rows
        # drops the row even where round-off hides the singularity
        calls = []
        independent = mpc._independent_rows
        monkeypatch.setattr(mpc, "_independent_rows", lambda *a: calls.append(1) or independent(*a))
        _strict_solve(monkeypatch)
        sol = solve_ocp(prob, warm=warm)
        assert calls
        assert sol.status == "solved" and sol.kkt_residual <= SqpOptions().tol_stationarity
        assert solution_feasibility(prob, sol)["dynamics"] <= SqpOptions().tol_equality


def _stacked_independent_rows(C_J, rows, g):
    """The dependent-row scan as it ran before it ranked reduced rows
    (`mpc._independent_rows` then, verbatim): the nz-wide working rows
    stacked under the equality Jacobian C_J."""
    keep = []
    for k in np.argsort(-g, kind="stable"):
        if np.linalg.matrix_rank(np.vstack([C_J, rows[keep + [k]]])) > len(C_J) + len(keep):
            keep.append(k)
    return np.sort(np.array(keep, dtype=int))


class TestDependentRows:
    """A singular KKT matrix drops the working rows that depend on the
    others, ranked by their reduction to (u, theta); C_x is invertible, so
    the scan keeps the rows that the scan of the nz-wide rows stacked under
    the equality Jacobian kept."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """(rows kept, rows the stacked scan keeps) of every dependent-row scan."""
        import penalty_sqp_reference as reference

        found, last = [], {}
        kkt_solver, independent = mpc._kkt_solver, mpc._independent_rows

        def solver(ws, z, lin, nu_last, lam_term):
            solve = kkt_solver(ws, z, lin, nu_last, lam_term)

            def watched(G_A, rhs_A, soft=0.0):
                last.update(tpl=ws.tpl, lin=lin, G_A=G_A)
                return solve(G_A, rhs_A, soft)

            return watched

        def scan(rows, g):
            keep = independent(rows, g)
            C_J = reference.eq_jacobian(last["tpl"], *last["lin"][1:3])
            found.append((keep, _stacked_independent_rows(C_J, last["G_A"], g)))
            return keep

        monkeypatch.setattr(mpc, "_kkt_solver", solver)
        monkeypatch.setattr(mpc, "_independent_rows", scan)
        return found

    @pytest.mark.parametrize("linear", [True, False])
    def test_the_pinned_dependent_start(
        self, scans, monkeypatch, linear, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob, warm = _dependent_start(model, ts)
        _strict_solve(monkeypatch)
        assert solve_ocp(prob, warm=warm).status == "solved"
        assert scans
        for keep, stacked in scans:
            assert np.array_equal(keep, [0]) and np.array_equal(keep, stacked)

    def test_the_singular_solves_of_a_drag_chain(self, scans):
        # TestExactHessian's chain, whose cold solve meets singular KKT
        # matrices with numpy's own solve
        model = DragDoubleIntegrator(drag=2.0)
        ts = build_terminal_set(model, SCENARIO_Q, SCENARIO_R)
        chain = _drag_chain(model, ts, 10, np.array([0.8, 0.3, -0.4, 0.4]), [0.1, 1.2])
        assert all(sol.status == "solved" for sol in chain)
        assert scans
        for keep, stacked in scans:
            assert np.array_equal(keep, stacked)

    @pytest.mark.parametrize("plant", ["repeated box row", "repeated polygon row", "row tied by the dynamics"])
    @pytest.mark.parametrize("linear", [True, False])
    def test_planted_dependencies(
        self, scans, monkeypatch, linear, plant, double_integrator, drag_model, terminal_double, terminal_drag
    ):
        model, ts = (double_integrator, terminal_double) if linear else (drag_model, terminal_drag)
        prob = make_problem(model, ts, [0.2, 0.2, 0.3, -0.2], [0.7, 0.5], mu=0.7, region=square_region())
        ws = mpc._workspace(prob)
        tpl = ws.tpl
        z = mpc._cold_start_vector(prob, tpl)
        u0x, u0y = _box_row(tpl, 0, upper=True), _box_row(tpl, 1, upper=True)
        v1y = _box_row(tpl, tpl.ix(1).start + 3, upper=True)  # dv_1,y = h du_0,y
        edge, term = len(tpl.G) - len(square_region().half_planes()[1]), len(tpl.h)
        work = np.array({
            "repeated box row": [u0x, v1y, u0x, edge, term],
            "repeated polygon row": [edge, u0x, edge, term],
            "row tied by the dynamics": [u0x, v1y, edge, u0y, term],
        }[plant])
        lin = mpc._linearization(ws, z, work)
        g = tpl.ineq_values(z)[work]
        _strict_solve(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError) as err:
            mpc._kkt_solver(ws, z, lin, np.zeros(tpl.n_eq), 0.0)(lin[3], -(g + SqpOptions().backoff))
        keep = mpc._independent_rows(err.value.reduced_rows, g)
        assert len(keep) == len(work) - 1
        assert len(scans) == 1 and np.array_equal(*scans[0])


class TestExactNewtonSteps:
    """Nothing is added to a pass's Hessian, so a warm pass on the double
    integrator's convex problem is an exact Newton step."""

    @pytest.mark.parametrize("n_bearings", [0, 1, 2, 3])
    @pytest.mark.parametrize("horizon", [1, 10, 40])
    def test_the_condensed_cost_hessian_is_positive_definite(
        self, horizon, n_bearings, double_integrator, terminal_double
    ):
        # the pass condenses P' H P, dz = P dw on the linearised dynamics,
        # with nothing on its diagonal; its input rows and reference rows
        # alone bound it below
        prob = TestClosedFormCost._problem(double_integrator, terminal_double, horizon, n_bearings)
        ws = mpc._workspace(prob)
        tpl = ws.tpl
        n_u, nw = tpl.N * tpl.nu, len(tpl.iw)
        P = np.zeros((tpl.nz, nw))
        P[tpl.iu_all, :n_u] = np.eye(n_u)
        P[tpl.ix_all, :n_u] = tpl.S
        P[tpl.ith, n_u:] = np.eye(tpl.d)
        want = P.T @ _cost_hessian(ws) @ P
        z = np.random.default_rng(horizon).uniform(-0.4, 0.4, tpl.nz)
        solve = mpc._kkt_solver(ws, z, mpc._linearization(ws, z, np.zeros(0, dtype=int)), np.zeros(tpl.n_eq), 0.0)
        K = solve.__closure__[solve.__code__.co_freevars.index("K")].cell_contents[:, :nw]
        np.testing.assert_allclose(K, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        w = prob.weights
        bound = 2.0 * min(np.linalg.eigvalsh(w.R)[0], w.mu * np.linalg.eigvalsh(w.S_r)[0])
        assert bound > 0.0
        assert np.linalg.eigvalsh(0.5 * (K + K.T))[0] >= bound

    def test_warm_solves_of_a_faulted_run_take_one_pass(self):
        from rigid_coverage import sim

        result = sim.run(config_from_dict(make_scenario(steps=30, faults=[{"at_step": 12, "robot": 2}])))
        warm = [n for record in result.records[1:] for n in record.solver_iterations]
        assert len(warm) == 6 * 11 + 5 * 18
        assert sum(n == 1 for n in warm) >= len(warm) - 1
        assert max(kkt for record in result.records for kkt in record.solver_kkt) <= 1e-12


class TestAgainstPenaltySqp:
    """The active-set solver against the penalty SQP it replaced
    (`penalty_sqp_reference`, a verbatim copy)."""

    @pytest.fixture(scope="class")
    def faulted_run_solves(self):
        """Every (problem, warm start, options) a short faulted run solves."""
        from rigid_coverage import sim

        captured = []
        solve = sim.solve_ocp

        def record(problem, warm=None, options=None):
            captured.append((problem, warm, options))
            return solve(problem, warm=warm, options=options)

        sim.solve_ocp = record
        try:
            sim.run(config_from_dict(make_scenario(steps=30, faults=[{"at_step": 12, "robot": 2}])))
        finally:
            sim.solve_ocp = solve
        return captured

    def test_unchanged_working_set_gives_the_same_solutions(self, faulted_run_solves):
        import penalty_sqp_reference as reference

        gaps = []
        for problem, warm, options in faulted_run_solves:
            assert options == SqpOptions()
            reference.np.reset()
            try:
                # unregularised, so that both solvers take exact Newton steps
                ref = reference.solve_ocp(problem, warm=warm, options=reference.SqpOptions(regularization=0.0))
            except OcpInfeasibleError:
                ref = None
            sol = solve_ocp(problem, warm=warm, options=options)
            assert sol.status == "solved"
            assert sol.kkt_residual <= options.tol_stationarity
            # the reference's first active-set pass ended the solve without
            # dropping a multiplier or crossing a row; the residuals differ,
            # since the reference refits its multipliers by least squares.
            # The reference factors the whole KKT system and the solver the
            # condensed one, so the two agree to round-off, not bitwise
            if ref is not None and ref.iterations == 1 and not (reference.np.dropped or reference.np.crossed):
                gaps.append(max(float(np.max(np.abs(np.subtract(getattr(sol, name), getattr(ref, name)))))
                                for name in SOLUTION_FIELDS))
        assert len(faulted_run_solves) == 6 * 12 + 5 * 18
        assert len(gaps) >= 0.9 * len(faulted_run_solves)
        print(f"{len(gaps)} solves, largest gap {max(gaps):.2e}, median {np.median(gaps):.2e}")
        assert max(gaps) <= 1e-12


def _unreachable_terminal_problem(terminal_double):
    # one step is not enough to stop from full speed into a point target
    tiny = TerminalSet(
        K=terminal_double.K, P=terminal_double.P, zeta=1e-10,
        c=terminal_double.c, steady=terminal_double.steady,
        Q=terminal_double.Q, R=terminal_double.R,
    )
    return OcpProblem(
        model=DoubleIntegrator(), horizon=1, weights=scenario_weights(),
        terminal=tiny, x0=np.array([0.2, 0.2, 0.5, 0.5]), r_ref=np.array([0.2, 0.2]),
    )


class TestFallbackAndSoftRows:
    def test_unreachable_terminal_is_certified_before_max_iter(self, terminal_double):
        # Gauss-Newton on the squared violation took 35 linearly converging
        # passes here
        with pytest.raises(OcpInfeasibleError) as exc_info:
            solve_ocp(_unreachable_terminal_problem(terminal_double))
        assert exc_info.value.solution.status == "infeasible"
        assert exc_info.value.solution.iterations <= 10
        assert "stalls" in str(exc_info.value)

    def test_far_from_feasible_warm_guesses_return_the_cold_solution(
        self, double_integrator, drag_model, terminal_double, terminal_drag,
    ):
        # a guess with open shooting gaps restarts cold, so the solve is the
        # cold solve, bit for bit
        for model, ts in ((double_integrator, terminal_double), (drag_model, terminal_drag)):
            for seed in range(25):
                rng = np.random.default_rng(seed)
                x0 = np.r_[rng.uniform(0.2, 0.8, 2), rng.uniform(-0.3, 0.3, 2)]
                prob = make_problem(model, ts, x0, rng.uniform(-0.2, 1.2, 2), region=square_region(),
                                    horizon=int(rng.integers(5, 15)))
                cold = solve_ocp(prob)
                scale = rng.uniform(0.5, 3.0)
                x_seq = cold.x_seq.copy()
                x_seq[1:] += scale * rng.standard_normal(x_seq[1:].shape)
                guess = replace(cold, u_seq=cold.u_seq + scale * rng.standard_normal(cold.u_seq.shape), x_seq=x_seq,
                                xbar=cold.xbar + scale * rng.standard_normal(cold.xbar.shape), status="candidate")
                sol = solve_ocp(prob, warm=guess)
                assert _solution_bytes(sol) == _solution_bytes(cold), (model, seed)

    def test_cold_starts_are_solved_or_certified_infeasible(self, double_integrator, drag_model, terminal_double,
                                                            terminal_drag):
        # cold starts that leave the velocity box or the terminal set: the
        # violated rows are held softly until they are back near their level
        options = SqpOptions()
        outcomes = []
        for i in range(300):
            rng = np.random.default_rng(1000 + i)
            model, ts = ((double_integrator, terminal_double), (drag_model, terminal_drag))[rng.integers(2)]
            horizon = int(rng.integers(2, 13))
            x0 = np.r_[rng.uniform(0.05, 0.95, 2), rng.uniform(-0.5, 0.5, 2)]
            r_ref = rng.uniform(-0.5, 1.5, 2)
            bearings, anchors = [], {}
            for j in range(1, int(rng.integers(0, 4)) + 1):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                bearings.append((j, np.array([np.cos(angle), np.sin(angle)])))
                anchors[j] = rng.uniform(0.0, 1.0, 2)
            prob = make_problem(model, ts, x0, r_ref, mu=rng.uniform(0.3, 1.0), bearings=tuple(bearings),
                                anchors=anchors, region=square_region(), horizon=horizon)
            try:
                sol = solve_ocp(prob, options=options)
            except OcpInfeasibleError as exc:
                assert "stalls" in str(exc), i
                assert exc.solution.status == "infeasible"
                assert exc.solution.iterations < options.max_iter, i
                outcomes.append("infeasible")
                continue
            assert sol.status == "solved", i
            assert sol.kkt_residual <= options.tol_stationarity, i
            report = solution_feasibility(prob, sol)
            assert report["inequality"] <= 1e-12 and report["dynamics"] <= options.tol_equality, i
            outcomes.append("solved")
        assert 0 < outcomes.count("infeasible") < 0.1 * len(outcomes)

    def test_passes_after_a_soft_solve_take_no_dynamics_curvature(self, monkeypatch, drag_model, terminal_drag):
        # the cold start leaves the terminal row far above its level, held
        # softly; its lam = 2 rho s inflated nu to 1e8-1e9, and the drag
        # model's curvature weighted by that nu made the reduced Hessian
        # indefinite: the u_y lower-bound rows left and joined with steps of
        # zero length for all 150 passes (OcpInfeasibleError)
        prob = make_problem(drag_model, terminal_drag, [0.5, 0.5, 0.4375, 0.34375], [0.0, 0.0],
                            region=square_region(), horizon=4)
        passes = []  # (nu weighting the curvature, whether each KKT solve had soft rows) per pass
        kkt_solver = mpc._kkt_solver

        def spy(ws, z, lin, nu_last, lam_term):
            solve, softs = kkt_solver(ws, z, lin, nu_last, lam_term), []
            passes.append((nu_last.copy(), softs))
            return lambda G_A, rhs_A, soft=0.0: softs.append(np.ndim(soft) > 0) or solve(G_A, rhs_A, soft)

        monkeypatch.setattr(mpc, "_kkt_solver", spy)
        sol = solve_ocp(prob)
        assert sol.status == "solved" and sol.kkt_residual <= SqpOptions().tol_stationarity
        assert solution_feasibility(prob, sol)["inequality"] <= 1e-12
        assert passes[0][1][-1] and not passes[-1][1][-1]  # soft rows at the start, none at the end
        for (_, softs), (nu, _) in zip(passes, passes[1:]):
            assert np.any(nu) != softs[-1]  # hard solves pass their nu on, soft ones pass none

    def test_infeasible_warm_guess_reaches_the_cold_start_solution(self, double_integrator, terminal_double):
        prob = make_problem(double_integrator, terminal_double, [0.3, 0.6, 0.2, -0.2], [1.25, 1.1],
                            region=square_region(), horizon=12)
        cold = solve_ocp(prob)
        # tripled inputs leave the input box and open every shooting gap
        guess = replace(cold, u_seq=np.clip(3.0 * cold.u_seq, -3.0, 3.0), status="candidate")
        assert solution_feasibility(prob, guess)["inequality"] > 1.0
        sol = solve_ocp(prob, warm=guess)
        assert sol.status == "solved"
        for name in ("u_seq", "x_seq", "xbar", "ubar"):
            assert np.allclose(getattr(sol, name), getattr(cold, name), rtol=0.0, atol=1e-8), name

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_warm_and_cold_solves_meet_whatever_the_blas_threads(self, threads):
        # the solves' round-off depends on the BLAS thread count, which BLAS
        # reads once, at import: run the warm/cold test in a process of its own
        # with each count, so that a host's default count cannot hide a miss
        package = str(Path(mpc.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")])))
        test = f"{__file__}::TestFallbackAndSoftRows::test_infeasible_warm_guess_reaches_the_cold_start_solution"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout[-2000:]
        assert "1 passed" in run.stdout

    def test_wild_warm_guess_on_the_drag_model(self, drag_model, terminal_drag):
        prob = make_problem(drag_model, terminal_drag, [0.2, 0.2, 0.0, 0.0], [0.6, 0.5],
                            region=square_region())
        cold = solve_ocp(prob)
        # inputs and speeds far outside their boxes, shooting gaps everywhere,
        # and a steady pair outside the setpoint polygon
        rng = np.random.default_rng(5)
        x_seq = rng.uniform(-2.0, 2.0, cold.x_seq.shape)
        x_seq[0] = prob.x0
        guess = replace(
            cold, u_seq=rng.uniform(-3.0, 3.0, cold.u_seq.shape), x_seq=x_seq,
            xbar=np.array([1.5, -0.5, 0.3, -0.3]), ubar=np.array([2.0, -2.0]), status="candidate",
        )
        sol = solve_ocp(prob, warm=guess)
        assert sol.status == "solved"
        for name in ("u_seq", "x_seq", "xbar", "ubar"):
            assert np.allclose(getattr(sol, name), getattr(cold, name), rtol=0.0, atol=1e-6), name

    def test_dependent_working_rows_leave_the_set(self, monkeypatch, double_integrator, terminal_double):
        # the warm start holds u_0,y and v_1,y both backoff/2 below their upper
        # bounds, and the dynamics tie the two rows: the KKT matrix of that
        # working set is singular.  A solve that refuses a rank-deficient
        # matrix makes _independent_rows drop the row even where round-off
        # hides the singularity
        prob, warm = _dependent_start(double_integrator, terminal_double)
        plain = solve_ocp(prob, warm=warm)
        calls = []
        independent = mpc._independent_rows
        monkeypatch.setattr(mpc, "_independent_rows", lambda *a: calls.append(1) or independent(*a))
        _strict_solve(monkeypatch)
        sol = solve_ocp(prob, warm=warm)
        assert calls
        for s in (plain, sol):
            assert s.status == "solved" and s.kkt_residual <= SqpOptions().tol_stationarity
            assert solution_feasibility(prob, s)["dynamics"] <= 1e-9

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_passes_running_out_at_a_feasible_point_return_it(self, max_iter, double_integrator, terminal_double):
        # the long trip saturates the inputs, so the first step from the
        # feasible cold start crosses input rows and stops on the first one
        prob = make_problem(double_integrator, terminal_double, [0.05, 0.05, 0.0, 0.0], [0.95, 0.9])
        options = SqpOptions(max_iter=max_iter)
        sol = solve_ocp(prob, options=options)
        assert sol.status == "max-iter"
        assert sol.iterations == max_iter
        report = solution_feasibility(prob, sol)
        assert report["inequality"] <= 1e-12
        assert report["dynamics"] <= options.tol_equality
        assert sol.kkt_residual > options.tol_stationarity
        # the blocking steps made progress on the cost
        assert sol.cost < cold_start(prob).cost


class TestClosedLoopProperty:
    """Every solve of a short closed loop, chained through shift_warm_start,
    is solved, stationary and feasible: both models, horizons 3-12, initial
    speeds in the velocity box, references inside and outside the setpoint
    polygon, and up to three desired bearings.

    Each speed stays within 0.9 of its bound: from the box's corners a
    3-step horizon cannot stop inside the terminal set, and the problem is
    infeasible.
    """

    @settings(max_examples=20, deadline=None)
    # blocking a step at g = -backoff while a row leaves only at g <= 1e-12
    # cycles on these two starts: both models spend all 150 passes on the
    # first solve, the double integrator with a dynamics gap left
    # (OcpInfeasibleError)
    @example(drag=False, horizon=3, position=(0.5, 0.5), velocity=(0.0, 0.375), r_ref=(0.0, 1.0), mu=1.0, bearings=[])
    @example(drag=True, horizon=3, position=(0.5, 0.5), velocity=(0.0, 0.375), r_ref=(0.0, 1.0), mu=1.0, bearings=[])
    # with one level for holding, blocking and leaving, a fixed working
    # tolerance of 1e-12 fails these four after 150 passes, and one of 1e-6
    # the last two; the growing tolerance (mpc.EXPAND_STEPS) solves them
    @example(drag=True, horizon=10, position=(0.3091, 0.6031), velocity=(0.4081, -0.2417), r_ref=(1.1633, 0.6395),
             mu=0.462, bearings=[(5.7559, (0.7977, 0.0022)), (4.1849, (0.4457, 0.2658))])
    @example(drag=False, horizon=9, position=(0.4229, 0.551), velocity=(-0.4051, -0.3226), r_ref=(-0.4114, 0.2787),
             mu=0.4418, bearings=[(0.97, (0.2036, 0.1582))])
    @example(drag=False, horizon=10, position=(0.5756, 0.6162), velocity=(-0.0299, 0.3404), r_ref=(0.9165, 1.4303),
             mu=0.6985, bearings=[])
    @example(drag=False, horizon=8, position=(0.5896, 0.576), velocity=(-0.3366, 0.1322), r_ref=(0.0213, 0.8027),
             mu=0.643, bearings=[(5.6288, (0.416, 0.0542))])
    # the soft terminal row's penalty inflated nu, and the drag curvature it
    # weighted made the reduced Hessian indefinite: the first solve cycled
    # among the u_y lower-bound rows for all 150 passes (OcpInfeasibleError)
    @example(drag=True, horizon=4, position=(0.5, 0.5), velocity=(0.4375, 0.34375), r_ref=(0.0, 0.0), mu=1.0, bearings=[])
    @given(
        drag=st.booleans(),
        horizon=st.integers(3, 12),
        position=st.tuples(st.floats(0.3, 0.7), st.floats(0.3, 0.7)),
        velocity=st.tuples(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45)),
        r_ref=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
        mu=st.floats(0.3, 1.0),
        bearings=st.lists(
            st.tuples(st.floats(0.0, 2.0 * np.pi), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
            max_size=3,
        ),
    )
    def test_chained_solves_are_solved_stationary_and_feasible(
        self, drag, horizon, position, velocity, r_ref, mu, bearings,
        double_integrator, drag_model, terminal_double, terminal_drag,
    ):
        model, ts = (drag_model, terminal_drag) if drag else (double_integrator, terminal_double)
        desired = tuple((j + 1, np.array([np.cos(angle), np.sin(angle)])) for j, (angle, _) in enumerate(bearings))
        anchors = {j + 1: np.array(anchor) for j, (_, anchor) in enumerate(bearings)}
        options = SqpOptions()
        x = np.array([*position, *velocity])
        prev = None
        for _ in range(5):
            prob = OcpProblem(
                model=model, horizon=horizon, weights=scenario_weights(mu=mu), terminal=ts,
                x0=x, r_ref=np.array(r_ref), desired_bearings=desired, neighbor_anchors=anchors,
                setpoint_region=square_region(),
            )
            warm = shift_warm_start(prob, prev) if prev is not None else None
            sol = solve_ocp(prob, warm=warm, options=options)
            assert sol.status == "solved"
            assert sol.kkt_residual <= options.tol_stationarity
            report = solution_feasibility(prob, sol)
            assert report["inequality"] <= 1e-12
            assert report["dynamics"] <= options.tol_equality
            x = model.step(x, sol.u_seq[0])
            prev = sol
