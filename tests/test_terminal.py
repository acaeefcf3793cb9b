"""Terminal ingredients: Riccati gain, Lyapunov weight, invariant set sizing."""
import numpy as np
import pytest

from rigid_coverage.dynamics import steady_state_from_position
from rigid_coverage.errors import (
    InvalidInputError,
    InvalidScalingError,
    NotStabilizableError,
    TerminalSetEmptyError,
)
from rigid_coverage.terminal import (
    build_terminal_set,
    in_terminal_set,
    lqr_gain,
    lyapunov_P,
    size_terminal_set,
    solve_riccati,
    terminal_control,
)

scipy_linalg = pytest.importorskip("scipy.linalg")

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


class TestRiccati:
    def test_scalar_closed_form(self):
        A = np.array([[1.0]])
        B = np.array([[1.0]])
        P = solve_riccati(A, B, np.array([[1.0]]), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(GOLDEN_RATIO, abs=1e-9)

    def test_matches_scipy_on_random_systems(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, m = 4, 2
            A = rng.normal(scale=0.6, size=(n, n))
            B = rng.normal(size=(n, m))
            Q = np.eye(n)
            R = np.eye(m)
            P = solve_riccati(A, B, Q, R)
            P_ref = scipy_linalg.solve_discrete_are(A, B, Q, R)
            assert np.max(np.abs(P - P_ref)) < 1e-7

    def test_gain_stabilizes_double_integrator(self, double_integrator):
        x0 = np.zeros(4)
        A, B = double_integrator.jacobians(x0, np.zeros(2))
        K = lqr_gain(A, B, np.eye(4), np.eye(2))
        rho = np.max(np.abs(np.linalg.eigvals(A + B @ K)))
        assert rho < 1.0

    def test_schur_system_without_actuation(self):
        A = 0.5 * np.eye(2)
        B = np.zeros((2, 1))
        K = lqr_gain(A, B, np.zeros((2, 2)), np.eye(1))
        assert np.allclose(K, 0.0)

    def test_unstabilizable_raises(self):
        A = 2.0 * np.eye(2)
        B = np.zeros((2, 1))
        with pytest.raises(NotStabilizableError):
            lqr_gain(A, B, np.eye(2), np.eye(1))


class TestLyapunov:
    def test_scalar_closed_form(self):
        P = lyapunov_P(np.array([[0.5]]), np.array([[1.0]]), c=0.5)
        assert P[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_scaling_condition_enforced(self):
        with pytest.raises(InvalidScalingError):
            lyapunov_P(np.array([[0.5]]), np.array([[1.0]]), c=0.8)

    def test_random_stable_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = 3
            M = rng.normal(size=(n, n))
            A_K = 0.9 * M / max(1.0, np.max(np.abs(np.linalg.eigvals(M))))
            rho = np.max(np.abs(np.linalg.eigvals(A_K)))
            c = 0.5 * (1.0 - rho**2)
            Q_star = np.eye(n)
            P = lyapunov_P(A_K, Q_star, c)
            scaled = A_K / np.sqrt(1.0 - c)
            residual = scaled.T @ P @ scaled - P + Q_star
            assert np.max(np.abs(residual)) < 1e-10
            assert np.allclose(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) > 0


class TestTerminalSet:
    def test_build_produces_positive_zeta(self, terminal_double, terminal_drag):
        assert terminal_double.zeta > 0
        assert terminal_drag.zeta > 0

    def test_membership_checks(self, terminal_double, double_integrator):
        r = np.array([0.4, 0.6])
        ss = terminal_double.translated_steady(double_integrator, r)
        assert in_terminal_set(ss.x, r, terminal_double, double_integrator)
        # inflate the quadratic form just past the boundary
        P = terminal_double.P
        direction = np.zeros(4)
        direction[0] = 1.0
        scale = np.sqrt(terminal_double.zeta * 1.01 / (direction @ P @ direction))
        x = ss.x + scale * direction
        assert not in_terminal_set(x, r, terminal_double, double_integrator)
        # mismatched reference
        assert not in_terminal_set(ss.x, r + 0.5, terminal_double, double_integrator)

    def test_zeta_monotone_in_box_size(self, double_integrator):
        from dataclasses import replace

        ss = steady_state_from_position(double_integrator, np.zeros(2))
        tight = replace(double_integrator, u_max=0.1, v_max=0.05)
        roomy = replace(double_integrator, u_max=2.0, v_max=1.0)
        K = terminal_K = None
        zetas = []
        for model in (tight, roomy):
            ts = build_terminal_set(model, np.eye(4), np.eye(2))
            zetas.append(ts.zeta)
        assert zetas[0] < zetas[1]

    def test_invariance_and_decrease_by_sampling(self, terminal_double, double_integrator):
        ts = terminal_double
        rng = np.random.default_rng(0)
        r = np.array([0.5, 0.5])
        ss = ts.translated_steady(double_integrator, r)
        L = np.linalg.cholesky(np.linalg.inv(ts.P))
        raw = rng.normal(size=(2000, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = rng.random(2000) ** 0.25
        states = ss.x + np.sqrt(ts.zeta) * (radii[:, None] * raw) @ L.T
        for x in states:
            e = x - ss.x
            assert e @ ts.P @ e <= ts.zeta * (1 + 1e-12)
            u = terminal_control(ts, x, ss)
            assert double_integrator.input_bounds.contains(u, tol=1e-9)
            x_next = double_integrator.step(x, u)
            e_next = x_next - ss.x
            assert e_next @ ts.P @ e_next <= ts.zeta + 1e-9
            stage = e @ ts.Q @ e + (u - ss.u) @ ts.R @ (u - ss.u)
            assert e_next @ ts.P @ e_next - e @ ts.P @ e <= -stage + 1e-9

    def test_empty_set_raises(self, double_integrator):
        ss = steady_state_from_position(double_integrator, np.zeros(2))
        A, B = double_integrator.jacobians(ss.x, ss.u)
        # a gain that immediately saturates any deviation: huge P, destabilizing K
        K = 100.0 * np.ones((2, 4))
        P = np.eye(4)
        with pytest.raises(TerminalSetEmptyError):
            size_terminal_set(double_integrator, ss, K, P, np.eye(4), np.eye(2))

    @pytest.mark.parametrize("n_directions", [0, -3, float("nan")])
    def test_no_sampled_direction_is_rejected(self, double_integrator, n_directions):
        # with no direction the decrease condition would never be checked
        with pytest.raises(InvalidInputError, match="n_directions must be at least 1"):
            build_terminal_set(double_integrator, np.eye(4), np.eye(2), n_directions=n_directions)
