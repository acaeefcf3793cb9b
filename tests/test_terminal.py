"""Terminal ingredients: Riccati gain, Lyapunov weight, invariant set sizing."""
import numpy as np
import pytest

from rigid_coverage.dynamics import DoubleIntegrator, DragDoubleIntegrator, steady_state_from_position
from rigid_coverage.errors import (
    InvalidInputError,
    InvalidScalingError,
    NotStabilizableError,
    TerminalSetEmptyError,
)
from rigid_coverage.terminal import (
    _constraint_zeta_bound,
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

    @pytest.mark.parametrize(
        "Q, R, message",
        [
            (np.nan, np.eye(2), "Q must be finite"),
            (np.diag([np.inf, 1.0, 1.0, 1.0]), np.eye(2), "Q must be finite"),
            (np.eye(4), np.array([[1.0, 0.5], [0.0, 1.0]]), "R must be symmetric"),
            (-np.eye(4), np.eye(2), "Q must be positive semidefinite"),
            (np.eye(4), np.zeros((2, 2)), "R must be positive definite"),
        ],
    )
    def test_bad_weights_are_named(self, double_integrator, Q, R, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            build_terminal_set(double_integrator, Q, R)

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


def paper_weights(dim):
    """The scenario's stage weights for a model in dim dimensions."""
    return np.diag([10.0] * dim + [1.0] * dim), 0.1 * np.eye(dim)


def sampled_level(model, ts):
    """The sampled sizer that the closed form replaced, kept as an oracle:
    the box cap, shrunk by 40 bisection steps while any of 512 seeded
    directions, scaled to five fractions of the boundary, misses the
    decrease by more than 1e-9."""
    steady, K, P = ts.steady, ts.K, ts.P
    dirs = np.random.default_rng(0).standard_normal((512, model.n_x))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    unit_devs = np.linalg.solve(np.linalg.cholesky(P).T, dirs.T).T

    def ok(zeta):
        for rho in (0.25, 0.5, 0.75, 0.9, 1.0):
            e = np.sqrt(zeta) * rho * unit_devs
            du = e @ K.T
            e_next = model.step(steady.x + e, steady.u + du) - steady.x
            v_now = np.einsum("ij,jk,ik->i", e, P, e)
            v_next = np.einsum("ij,jk,ik->i", e_next, P, e_next)
            stage = np.einsum("ij,jk,ik->i", e, ts.Q, e) + np.einsum("ij,jk,ik->i", du, ts.R, du)
            if np.any(v_next - v_now > -stage + 1e-9):
                return False
        return True

    cap = _constraint_zeta_bound(model, steady, K, P)
    if ok(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def worst_decrease_slack(model, ts, zeta, n_points=20_000):
    """max of V(e+) - V(e) + stage(e) over a dense sample of {e'P e <= zeta},
    a quarter of it on the boundary; asserts the inputs stay in their box."""
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n_points, model.n_x))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(size=n_points) ** (1.0 / model.n_x)
    radii[: n_points // 4] = 1.0
    E = np.sqrt(zeta) * np.linalg.solve(np.linalg.cholesky(ts.P).T, (radii[:, None] * dirs).T).T
    dU = E @ ts.K.T
    U = ts.steady.u + dU
    assert np.all(np.abs(U) <= model.u_max * (1 + 1e-12))
    En = model.step(ts.steady.x + E, U) - ts.steady.x
    V = np.einsum("ij,jk,ik->i", E, ts.P, E)
    Vn = np.einsum("ij,jk,ik->i", En, ts.P, En)
    stage = np.einsum("ij,jk,ik->i", E, ts.Q, E) + np.einsum("ij,jk,ik->i", dU, ts.R, dU)
    return float(np.max(Vn - V + stage))


class TestCertifiedLevel:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("drag", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("h", [0.1, 0.2])
    def test_level_passes_a_dense_boundary_sample(self, h, drag, dim):
        model = DragDoubleIntegrator(h=h, drag=drag, dim=dim)
        ts = build_terminal_set(model, *paper_weights(dim))
        assert worst_decrease_slack(model, ts, ts.zeta) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dense_sample_rejects_the_sampled_level(self, dim):
        # strong drag at a long step: the oracle's 512 directions miss the
        # violation that the dense sample finds
        model = DragDoubleIntegrator(h=0.2, drag=8.0, dim=dim)
        ts = build_terminal_set(model, *paper_weights(dim))
        sampled = sampled_level(model, ts)
        assert sampled > 50 * ts.zeta
        assert worst_decrease_slack(model, ts, sampled) > 1e-6

    @pytest.mark.parametrize("make_model", [DoubleIntegrator, DragDoubleIntegrator])
    def test_paper_weights_keep_the_sampled_level(self, make_model):
        model = make_model()
        ts = build_terminal_set(model, *paper_weights(2))
        assert ts.zeta == 0.49688645513070373
        assert ts.zeta == sampled_level(model, ts)

    @pytest.mark.parametrize("make_model", [DoubleIntegrator, DragDoubleIntegrator])
    def test_uncertifiable_stage_weights_raise(self, make_model):
        # a unit terminal Q cannot pay for the scenario's stage Q at any level
        Q, R = paper_weights(2)
        with pytest.raises(TerminalSetEmptyError, match="does not decrease by the stage cost"):
            build_terminal_set(make_model(), np.eye(4), R, stage_Q=Q, stage_R=R)
