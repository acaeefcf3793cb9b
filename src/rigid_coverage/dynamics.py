"""Discrete-time robot models with position-invariant dynamics.

States stack position then velocity, x = (p, v); inputs are accelerations.
Both models are invariant to position shifts: adding (dp, 0) to the state
shifts the successor by the same amount, which lets steady states and
terminal ingredients computed at the origin transfer to any setpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, NoSteadyStateError

FD_STEP = 1e-6
STEADY_TOL = 1e-9
STEADY_MAX_ITER = 50


@dataclass(frozen=True)
class BoxBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise InvalidInputError("box bounds need lower <= upper of equal shape")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


class SecondOrderModel:
    """Shared shape of the (p, v) models: size, output map, box constraints."""

    dim: int
    v_max: float
    u_max: float
    # True when jacobians(x, u) is the same at every (x, u): the MPC then
    # computes its equality Jacobian once per template instead of per iterate
    constant_jacobians: ClassVar[bool] = False

    @property
    def n_x(self) -> int:
        return 2 * self.dim

    @property
    def n_u(self) -> int:
        return self.dim

    # The output map and the boxes are built on first access and kept on
    # the (frozen) instance; they stay out of its fields, so equality and
    # hashing are unchanged.
    @cached_property
    def C(self) -> np.ndarray:
        C = np.hstack([np.eye(self.dim), np.zeros((self.dim, self.dim))])
        C.setflags(write=False)
        return C

    @cached_property
    def state_bounds(self) -> BoxBounds:
        d = self.dim
        hi = np.concatenate([np.full(d, np.inf), np.full(d, self.v_max)])
        return BoxBounds(-hi, hi)

    @cached_property
    def input_bounds(self) -> BoxBounds:
        hi = np.full(self.dim, self.u_max)
        return BoxBounds(-hi, hi)

    def _check(self):
        if self.h <= 0 or self.u_max <= 0 or self.v_max <= 0:
            raise InvalidInputError("step size and bounds must be positive")
        if self.dim not in (2, 3):
            raise InvalidInputError("dim must be 2 or 3")


@dataclass(frozen=True)
class DoubleIntegrator(SecondOrderModel):
    """p' = p + h v,  v' = v + h u."""

    constant_jacobians: ClassVar[bool] = True

    h: float = 0.1
    u_max: float = 1.0
    v_max: float = 0.5
    dim: int = 2

    def __post_init__(self):
        self._check()

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        d = self.dim
        p, v = x[..., :d], x[..., d:]
        return np.concatenate([p + self.h * v, v + self.h * u], axis=-1)

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = self.dim
        A = np.eye(2 * d)
        A[:d, d:] = self.h * np.eye(d)
        B = np.vstack([np.zeros((d, d)), self.h * np.eye(d)])
        return A, B


@dataclass(frozen=True)
class DragDoubleIntegrator(SecondOrderModel):
    """Double integrator with quadratic drag: v' = v + h (u - drag ||v|| v)."""

    h: float = 0.1
    u_max: float = 1.0
    v_max: float = 0.5
    drag: float = 0.5
    dim: int = 2

    def __post_init__(self):
        self._check()
        if self.drag < 0:
            raise InvalidInputError("drag must be non-negative")

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        d = self.dim
        p, v = x[..., :d], x[..., d:]
        speed = np.linalg.norm(v, axis=-1, keepdims=True)
        return np.concatenate([p + self.h * v, v + self.h * (u - self.drag * speed * v)], axis=-1)

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = self.dim
        x = np.asarray(x, dtype=float)
        v = x[d:]
        speed = float(np.linalg.norm(v))
        # d(||v|| v)/dv = ||v|| I + v v^T / ||v||, which vanishes at v = 0.
        dvv = speed * np.eye(d) + (np.outer(v, v) / speed if speed > 0 else np.zeros((d, d)))
        A = np.eye(2 * d)
        A[:d, d:] = self.h * np.eye(d)
        A[d:, d:] = np.eye(d) - self.h * self.drag * dvv
        B = np.vstack([np.zeros((d, d)), self.h * np.eye(d)])
        return A, B


RobotModel = DoubleIntegrator | DragDoubleIntegrator


@dataclass(frozen=True)
class SteadyState:
    x: np.ndarray
    u: np.ndarray
    r: np.ndarray


def step(model, x, u) -> np.ndarray:
    return model.step(x, u)


def position(model, x) -> np.ndarray:
    return np.asarray(x, dtype=float)[..., : model.dim]


def position_shift(model, dp: np.ndarray) -> np.ndarray:
    """State-space embedding of a position offset: psi(dp) = (dp, 0)."""
    return np.concatenate([np.asarray(dp, dtype=float), np.zeros(model.n_x - model.dim)])


def fd_jacobians(model, x, u, step_size: float = FD_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference Jacobians of the step map."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    A = np.empty((model.n_x, model.n_x))
    for k in range(model.n_x):
        dx = np.zeros(model.n_x)
        dx[k] = step_size
        A[:, k] = (model.step(x + dx, u) - model.step(x - dx, u)) / (2 * step_size)
    B = np.empty((model.n_x, model.n_u))
    for k in range(model.n_u):
        du = np.zeros(model.n_u)
        du[k] = step_size
        B[:, k] = (model.step(x, u + du) - model.step(x, u - du)) / (2 * step_size)
    return A, B


def linearize(model, x, u) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of the step map, analytic when the model provides them."""
    if hasattr(model, "jacobians"):
        return model.jacobians(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    return fd_jacobians(model, x, u)


def steady_state_from_position(
    model,
    r: np.ndarray,
    tol: float = STEADY_TOL,
    max_iter: int = STEADY_MAX_ITER,
) -> SteadyState:
    """Solve f(x, u) = x, C x = r by Newton's method from (r, 0, 0)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (model.dim,):
        raise InvalidInputError(f"position must have shape ({model.dim},)")
    C = model.C
    x = np.concatenate([r, np.zeros(model.n_x - model.dim)])
    u = np.zeros(model.n_u)
    for _ in range(max_iter):
        res = np.concatenate([model.step(x, u) - x, C @ x - r])
        if np.linalg.norm(res, ord=np.inf) < tol:
            return SteadyState(x, u, r)
        A, B = linearize(model, x, u)
        J = np.block(
            [
                [A - np.eye(model.n_x), B],
                [C, np.zeros((model.dim, model.n_u))],
            ]
        )
        try:
            delta = np.linalg.lstsq(J, -res, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NoSteadyStateError(f"Newton step failed: {exc}") from exc
        x = x + delta[: model.n_x]
        u = u + delta[model.n_x :]
    raise NoSteadyStateError(f"no steady state found at r={r} within {max_iter} iterations")


def _sample_box(rng, bounds: BoxBounds, fallback: float = 10.0) -> np.ndarray:
    lo = np.where(np.isfinite(bounds.lower), bounds.lower, -fallback)
    hi = np.where(np.isfinite(bounds.upper), bounds.upper, fallback)
    return rng.uniform(lo, hi)


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    worst_violation: float

    def __bool__(self) -> bool:
        return self.passed


def position_invariance_check(
    model,
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Empirically verify f(x + psi(dp), u) = f(x, u) + psi(dp)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = _sample_box(rng, model.state_bounds)
        u = _sample_box(rng, model.input_bounds)
        dp = rng.uniform(-10, 10, model.dim)
        shift = position_shift(model, dp)
        gap = np.linalg.norm(model.step(x + shift, u) - (model.step(x, u) + shift), ord=np.inf)
        worst = max(worst, float(gap))
    return InvarianceReport(worst < tol, worst)


def lipschitz_estimate(model, n_samples: int = 1000, seed: int = 0) -> float:
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
