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
    lipschitz_estimate,
    position,
    position_invariance_check,
    position_shift,
    steady_state_from_position,
)
from rigid_coverage.errors import InvalidInputError, NoSteadyStateError


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


class TestSharedStructure:
    @pytest.mark.parametrize("model_name", ["double_integrator", "drag_model"])
    def test_position_invariance(self, model_name, request):
        model = request.getfixturevalue(model_name)
        report = position_invariance_check(model, n_samples=200, seed=1)
        assert report
        assert report.worst_violation <= 1e-9

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
        # the simulator's solver threads share one model instance
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
