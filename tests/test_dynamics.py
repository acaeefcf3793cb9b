"""Robot models: discrete dynamics, jacobians, steady states, bounds."""
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rigid_coverage.dynamics import (
    BoxBounds,
    DoubleIntegrator,
    DragDoubleIntegrator,
    fd_jacobians,
    linearize,
    position,
    position_shift,
    steady_state_from_position,
)
from rigid_coverage.errors import InvalidInputError


def _sample_box(rng, bounds: BoxBounds, fallback: float = 10.0) -> np.ndarray:
    lo = np.where(np.isfinite(bounds.lower), bounds.lower, -fallback)
    hi = np.where(np.isfinite(bounds.upper), bounds.upper, fallback)
    return rng.uniform(lo, hi)


def position_invariance_gap(model, n_samples: int, seed: int) -> float:
    """Worst |f(x + psi(dp), u) - f(x, u) - psi(dp)| over sampled x, u, dp."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = _sample_box(rng, model.state_bounds)
        u = _sample_box(rng, model.input_bounds)
        shift = position_shift(model, rng.uniform(-10, 10, model.dim))
        gap = np.linalg.norm(model.step(x + shift, u) - (model.step(x, u) + shift), ord=np.inf)
        worst = max(worst, float(gap))
    return worst


def lipschitz_estimate(model, n_samples: int, seed: int) -> float:
    """Empirical bound on ||f(x1,u) - f(x2,u)|| / ||x1 - x2|| over the box."""
    rng = np.random.default_rng(seed)
    bound = 0.0
    for _ in range(n_samples):
        x1 = _sample_box(rng, model.state_bounds, fallback=1.0)
        x2 = _sample_box(rng, model.state_bounds, fallback=1.0)
        u = _sample_box(rng, model.input_bounds)
        gap = np.linalg.norm(x1 - x2)
        if gap < 1e-12:
            continue
        bound = max(bound, float(np.linalg.norm(model.step(x1, u) - model.step(x2, u)) / gap))
    return bound


class TestDoubleIntegrator:
    def test_step_closed_form(self, double_integrator):
        x = np.array([1.0, 2.0, 0.3, -0.1])
        u = np.array([0.5, 0.5])
        nxt = double_integrator.step(x, u)
        h = double_integrator.h
        assert np.allclose(nxt, [1.0 + h * 0.3, 2.0 - h * 0.1, 0.3 + h * 0.5, -0.1 + h * 0.5])

    def test_batched_step(self, double_integrator):
        xs = np.random.default_rng(0).random((7, 4))
        us = np.random.default_rng(1).random((7, 2)) - 0.5
        batch = double_integrator.step(xs, us)
        for k in range(7):
            assert np.allclose(batch[k], double_integrator.step(xs[k], us[k]))

    def test_position_extraction(self, double_integrator):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(position(double_integrator, x), [1.0, 2.0])
        assert np.allclose(double_integrator.C @ x, [1.0, 2.0])

    def test_steady_state(self, double_integrator):
        ss = steady_state_from_position(double_integrator, np.array([3.0, -1.0]))
        assert np.allclose(ss.x, [3.0, -1.0, 0.0, 0.0])
        assert np.allclose(ss.u, [0.0, 0.0])

    def test_jacobians_exact(self, double_integrator):
        x = np.array([0.2, 0.4, 0.1, -0.3])
        u = np.array([0.6, -0.2])
        A, B = double_integrator.jacobians(x, u)
        A_fd, B_fd = fd_jacobians(double_integrator, x, u)
        assert np.max(np.abs(A - A_fd)) < 1e-6
        assert np.max(np.abs(B - B_fd)) < 1e-6


class TestDragModel:
    def test_drag_opposes_velocity(self, drag_model):
        x = np.array([0.0, 0.0, 0.4, 0.0])
        nxt = drag_model.step(x, np.zeros(2))
        # speed decays, direction preserved
        assert 0 < nxt[2] < 0.4
        assert nxt[3] == pytest.approx(0.0)

    def test_linearization_at_rest_matches_double_integrator(self, drag_model, double_integrator):
        x = np.array([0.3, 0.7, 0.0, 0.0])
        u = np.zeros(2)
        A_drag, B_drag = drag_model.jacobians(x, u)
        A_di, B_di = double_integrator.jacobians(x, u)
        assert np.allclose(A_drag, A_di)
        assert np.allclose(B_drag, B_di)

    def test_jacobians_match_finite_differences_at_speed(self, drag_model):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=4)
            u = rng.uniform(-1, 1, size=2)
            A, B = drag_model.jacobians(x, u)
            A_fd, B_fd = fd_jacobians(drag_model, x, u)
            assert np.max(np.abs(A - A_fd)) < 1e-6
            assert np.max(np.abs(B - B_fd)) < 1e-6

    def test_steady_state_is_rest(self, drag_model):
        ss = steady_state_from_position(drag_model, np.array([0.2, 0.9]))
        assert np.allclose(ss.x, [0.2, 0.9, 0.0, 0.0], atol=1e-10)
        assert np.allclose(ss.u, 0.0, atol=1e-10)


class TestSteadyState:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cls", [DoubleIntegrator, DragDoubleIntegrator])
    def test_rest_at_r_is_an_exact_fixed_point(self, cls, dim):
        model = cls(dim=dim)
        rng = np.random.default_rng(dim)
        for r in [*rng.uniform(-10, 10, (20, dim)), np.full(dim, 1e300), np.full(dim, -0.0)]:
            ss = steady_state_from_position(model, r)
            assert np.array_equal(ss.x, np.concatenate([r, np.zeros(dim)])) and np.array_equal(ss.u, np.zeros(dim))
            assert np.array_equal(model.step(ss.x, ss.u), ss.x) and np.array_equal(model.C @ ss.x, r)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_is_rejected(self, drag_model, value):
        with pytest.raises(InvalidInputError, match="^position must be finite"):
            steady_state_from_position(drag_model, np.array([0.2, value]))

    @pytest.mark.parametrize("r", [np.zeros(3), np.zeros((1, 2)), 0.5])
    def test_misshaped_position_is_rejected(self, double_integrator, r):
        with pytest.raises(InvalidInputError, match=r"^position must have shape \(2,\)"):
            steady_state_from_position(double_integrator, r)


def per_point_jacobians(model, x):
    """The one-point Jacobian formula that the batched `jacobians` replaced,
    kept as a reference."""
    d = model.dim
    v = x[d:]
    speed = float(np.linalg.norm(v))
    dvv = speed * np.eye(d) + (np.outer(v, v) / speed if speed > 0 else np.zeros((d, d)))
    A = np.eye(2 * d)
    A[:d, d:] = model.h * np.eye(d)
    A[d:, d:] = np.eye(d) - model.h * model.drag * dvv
    B = np.vstack([np.zeros((d, d)), model.h * np.eye(d)])
    return A, B


class TestBatchedJacobians:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cls", [DoubleIntegrator, DragDoubleIntegrator])
    def test_batch_matches_each_point(self, cls, dim):
        model = cls(dim=dim)
        rng = np.random.default_rng(dim)
        x = rng.uniform(-0.5, 0.5, (3, 5, 2 * dim))
        u = rng.uniform(-1.0, 1.0, (3, 5, dim))
        x[0, 1, dim:] = x[2, 4, dim:] = 0.0  # at rest the drag term vanishes
        A, B = model.jacobians(x, u)
        assert A.shape == (3, 5, 2 * dim, 2 * dim) and B.shape == (3, 5, 2 * dim, dim)
        for idx in np.ndindex(3, 5):
            A1, B1 = model.jacobians(x[idx], u[idx])
            assert A1.shape == (2 * dim, 2 * dim) and B1.shape == (2 * dim, dim)
            assert np.array_equal(A[idx], A1) and np.array_equal(B[idx], B1)
            A_ref, B_ref = per_point_jacobians(model, x[idx])
            assert np.array_equal(B1, B_ref)
            if cls is DoubleIntegrator:
                assert np.array_equal(A1, A_ref)
            else:
                np.testing.assert_allclose(A1, A_ref, rtol=1e-15, atol=0.0)
            A_fd, B_fd = fd_jacobians(model, x[idx], u[idx])
            assert np.max(np.abs(A1 - A_fd)) < 1e-6 and np.max(np.abs(B1 - B_fd)) < 1e-6

    def test_linearize_takes_a_batch(self, drag_model):
        x = np.random.default_rng(0).uniform(-0.4, 0.4, (7, 4))
        A, B = linearize(drag_model, x.tolist(), np.zeros((7, 2)).tolist())
        assert A.shape == (7, 4, 4) and B.shape == (7, 4, 2)
        assert np.array_equal(A, drag_model.jacobians(x, np.zeros((7, 2)))[0])


def fd_state_curvature(model, x, u, w):
    """Central differences of w' A(x, u) along each state: sum_i w_i
    d2 f_i / dx_j dx_k.  The step is a thousandth of the speed, so that it
    stays on one side of v = 0; at rest the differences cancel exactly."""
    speed = float(np.linalg.norm(x[model.dim :]))
    step = 1e-3 * speed if speed > 0 else 1e-6
    K = np.empty((model.n_x, model.n_x))
    for k in range(model.n_x):
        dx = np.zeros(model.n_x)
        dx[k] = step
        K[:, k] = w @ (model.jacobians(x + dx, u)[0] - model.jacobians(x - dx, u)[0]) / (2 * step)
    return K


class TestStateCurvature:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cls", [DoubleIntegrator, DragDoubleIntegrator])
    def test_batch_matches_central_differences_of_the_jacobian(self, cls, dim):
        model = cls(dim=dim) if cls is DoubleIntegrator else cls(dim=dim, drag=2.0)
        rng = np.random.default_rng(dim)
        x = rng.uniform(-0.5, 0.5, (3, 5, 2 * dim))
        u = rng.uniform(-1.0, 1.0, (3, 5, dim))
        w = rng.uniform(-3.0, 3.0, (3, 5, 2 * dim))
        x[0, 1, dim:] = x[2, 4, dim:] = 0.0  # at rest the curvature is taken as 0
        x[1, 2, dim:] *= 1e-5 / np.linalg.norm(x[1, 2, dim:])  # tiny speeds
        x[1, 3, dim:] = 0.0
        x[1, 3, dim] = -1e-5
        K = model.state_curvature(x, w)
        assert K.shape == (3, 5, 2 * dim, 2 * dim)
        if cls is DoubleIntegrator:
            assert np.array_equal(K, np.zeros_like(K))
        assert np.array_equal(K[0, 1], np.zeros((2 * dim, 2 * dim))) and np.array_equal(K[2, 4], K[0, 1])
        for idx in np.ndindex(3, 5):
            assert np.array_equal(K[idx], model.state_curvature(x[idx], w[idx]))
            assert np.array_equal(K[idx], K[idx].T)
            # the differences are accurate to about 1e-6 of the curvature, which is O(1) here
            np.testing.assert_allclose(K[idx], fd_state_curvature(model, x[idx], u[idx], w[idx]), rtol=0.0, atol=1e-6)
            # the step map is linear in u: B is constant and A does not move with u
            for du in np.eye(dim):
                A_plus, B_plus = model.jacobians(x[idx], u[idx] + du)
                A_minus, B_minus = model.jacobians(x[idx], u[idx] - du)
                assert np.array_equal(A_plus, A_minus) and np.array_equal(B_plus, B_minus)
            assert np.array_equal(model.jacobians(x[idx] + 0.1, u[idx])[1], model.jacobians(x[idx], u[idx])[1])

    @pytest.mark.parametrize("speed", [1e-300, 1e-160, 1e-20, 1e150])
    def test_extreme_speeds_stay_finite(self, drag_model, speed):
        x = np.array([0.0, 0.0, 0.6, -0.8]) * speed
        K = drag_model.state_curvature(x, np.array([0.0, 0.0, 1.0, 2.0]))
        assert np.all(np.isfinite(K))
        assert np.max(np.abs(K)) <= 4.0 * drag_model.h * drag_model.drag * np.sqrt(5.0)


class TestSharedStructure:
    @pytest.mark.parametrize("model_name", ["double_integrator", "drag_model"])
    def test_position_invariance(self, model_name, request):
        model = request.getfixturevalue(model_name)
        assert position_invariance_gap(model, n_samples=200, seed=1) <= 1e-9

    def test_position_shift_embedding(self, double_integrator):
        dp = np.array([0.5, -0.25])
        assert np.allclose(position_shift(double_integrator, dp), [0.5, -0.25, 0.0, 0.0])

    def test_linearize_helper(self, drag_model):
        x = np.array([0.1, 0.2, 0.3, -0.1])
        u = np.array([0.0, 0.4])
        A, B = linearize(drag_model, x, u)
        A2, B2 = drag_model.jacobians(x, u)
        assert np.allclose(A, A2) and np.allclose(B, B2)

    def test_bounds(self, double_integrator):
        sb = double_integrator.state_bounds
        assert sb.contains(np.array([100.0, -50.0, 0.5, -0.5]))
        assert not sb.contains(np.array([0.0, 0.0, 0.51, 0.0]))
        ib = double_integrator.input_bounds
        assert ib.contains(np.array([1.0, -1.0]))
        assert not ib.contains(np.array([1.001, 0.0]))

    @pytest.mark.parametrize("model", [DoubleIntegrator(), DragDoubleIntegrator(dim=3)])
    def test_output_map_and_boxes_built_once_and_read_only(self, model):
        fresh = type(model)(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})
        assert model.C is model.C
        assert model.state_bounds is model.state_bounds
        assert model.input_bounds is model.input_bounds
        for arr in (model.C, model.state_bounds.lower, model.state_bounds.upper,
                    model.input_bounds.lower, model.input_bounds.upper):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0
        assert np.array_equal(model.C, np.hstack([np.eye(model.dim), np.zeros((model.dim, model.dim))]))
        # the cached values stay out of equality, hashing and repr
        assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)

    def test_concurrent_first_access_agrees(self):
        # threads of a caller that share one model instance read one C and one box
        model = DoubleIntegrator(v_max=0.7)
        start = threading.Barrier(8)

        def read(_):
            start.wait(timeout=10)
            return model.C, model.state_bounds, model.input_bounds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(read, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        for C, sb, ib in seen:
            assert np.array_equal(C, model.C)
            assert np.array_equal(sb.upper, [np.inf, np.inf, 0.7, 0.7]) and np.array_equal(ib.upper, [1.0, 1.0])
        assert model.state_bounds is model.state_bounds

    def test_bad_box(self):
        with pytest.raises(InvalidInputError):
            BoxBounds(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_model_validation(self):
        with pytest.raises(InvalidInputError):
            DoubleIntegrator(h=0.0)
        with pytest.raises(InvalidInputError):
            DragDoubleIntegrator(drag=-1.0)

    def test_lipschitz_estimate_is_finite(self, drag_model):
        L = lipschitz_estimate(drag_model, n_samples=200, seed=0)
        assert np.isfinite(L) and L >= 1.0
