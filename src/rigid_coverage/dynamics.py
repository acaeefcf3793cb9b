"""Discrete-time robot models with position-invariant dynamics.

States stack position then velocity, x = (p, v); inputs are accelerations.
Both models are invariant to position shifts: adding (dp, 0) to the state
shifts the successor by the same amount, which lets steady states and
terminal ingredients computed at the origin transfer to any setpoint.
`step`, `jacobians`, `state_curvature` and `linearize` take leading batch
axes, so the MPC linearises a whole trajectory, once per iterate, in one
call, and adds the dynamics' curvature to its Hessian in another.

Steady states are at rest (v = 0, u = 0), where the drag term and its
Jacobian vanish.  A deviation (e, du) from one therefore steps to
A e + B du + phi(e) with phi(e) = (0, -h drag |e_v| e_v); the terminal
set's decrease certificate bounds this remainder, with drag = 0 for the
plain double integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError

FD_STEP = 1e-6


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
    # keeps one set of stage Jacobians and their condensing per template
    # instead of linearising every iterate
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
        if not (self.h > 0 and self.u_max > 0 and self.v_max > 0):
            raise InvalidInputError("step size and bounds must be positive")
        if self.dim not in (2, 3):
            raise InvalidInputError("dim must be 2 or 3")

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A = df/dx and B = df/du of the integrator p' = p + h v, v' = v + h u
        at each point of a batch: (..., n_x) and (..., n_u) give
        (..., n_x, n_x) and (..., n_x, n_u)."""
        d = self.dim
        batch = np.shape(x)[:-1]
        A = np.tile(np.eye(2 * d), batch + (1, 1))
        A[..., :d, d:] = self.h * np.eye(d)
        B = np.zeros(batch + (2 * d, d))
        B[..., d:, :] = self.h * np.eye(d)
        return A, B

    def state_curvature(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_i w_i d2 f_i / dx2 at each point of a batch: (..., n_x) states
        and weights give (..., n_x, n_x).  The step map is linear in u, so
        this is its whole weighted Hessian; the integrator's is zero."""
        return np.zeros(np.shape(x) + (self.n_x,))


@dataclass(frozen=True)
class DoubleIntegrator(SecondOrderModel):
    """p' = p + h v,  v' = v + h u."""

    constant_jacobians: ClassVar[bool] = True
    drag: ClassVar[float] = 0.0

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
        if not self.drag >= 0:
            raise InvalidInputError("drag must be non-negative")

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        d = self.dim
        p, v = x[..., :d], x[..., d:]
        speed = np.linalg.norm(v, axis=-1, keepdims=True)
        return np.concatenate([p + self.h * v, v + self.h * (u - self.drag * speed * v)], axis=-1)

    def jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        A, B = super().jacobians(x, u)
        d = self.dim
        v = np.asarray(x, dtype=float)[..., d:]
        speed = np.linalg.norm(v, axis=-1)[..., None, None]
        # d(||v|| v)/dv = ||v|| I + v v^T / ||v||, which vanishes at v = 0.
        dvv = speed * np.eye(d) + v[..., :, None] * v[..., None, :] / np.where(speed > 0, speed, 1.0)
        A[..., d:, d:] -= self.h * self.drag * dvv
        return A, B

    def state_curvature(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        K = super().state_curvature(x, w)
        d = self.dim
        v = np.asarray(x, dtype=float)[..., d:]
        w = np.asarray(w, dtype=float)[..., d:]  # the position rows are linear
        speed = np.linalg.norm(v, axis=-1, keepdims=True)
        # sum_i w_i d2(||v|| v_i)/dv2 = (w.n) (I - n n') + w n' + n w' with
        # n = v / ||v||; n = 0 at rest, where ||v|| v has no second derivative
        n = v / np.where(speed > 0, speed, 1.0)
        wn = np.sum(w * n, axis=-1)[..., None, None]
        outer = w[..., :, None] * n[..., None, :]
        K[..., d:, d:] = -self.h * self.drag * (
            wn * (np.eye(d) - n[..., :, None] * n[..., None, :]) + (outer + np.swapaxes(outer, -1, -2))
        )
        return K


@dataclass(frozen=True)
class SteadyState:
    x: np.ndarray
    u: np.ndarray
    r: np.ndarray


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
    """Jacobians of the step map at one point or at each point of a batch."""
    return model.jacobians(np.asarray(x, dtype=float), np.asarray(u, dtype=float))


def steady_state_from_position(model, r: np.ndarray) -> SteadyState:
    """The steady pair with output r: rest at r, x = (r, 0) and u = 0, which
    both models hold exactly."""
    r = np.asarray(r, dtype=float)
    if r.shape != (model.dim,):
        raise InvalidInputError(f"position must have shape ({model.dim},)")
    if not np.all(np.isfinite(r)):
        raise InvalidInputError(f"position must be finite, got {r.tolist()}")
    return SteadyState(position_shift(model, r), np.zeros(model.n_u), r)
