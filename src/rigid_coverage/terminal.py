"""Terminal controller, cost and invariant set for the tracking controller.

The local controller is u = u_ss + K (x - x_ss) with K from the discrete
algebraic Riccati equation (fixed-point recursion).  The terminal cost
matrix P solves a scaled discrete Lyapunov equation so that P decreases by
at least the full stage cost along the closed loop, with slack c to absorb
nonlinear remainders.  The terminal region is the sublevel set
{x : (x - x_ss)' P (x - x_ss) <= zeta}; zeta combines the exact bound from
the box constraints with a sampled bisection for the cost-decrease
condition.  Position invariance of the models makes one (K, P, zeta) valid
at every setpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SteadyState, linearize, position_shift, steady_state_from_position
from .errors import (
    InvalidInputError,
    InvalidScalingError,
    NotStabilizableError,
    NumericalBreakdownError,
    TerminalSetEmptyError,
)

RICCATI_TOL = 1e-10
RICCATI_MAX_ITER = 10_000
LYAPUNOV_RESIDUAL_TOL = 1e-10
DECREASE_MARGIN = 1e-9


def _check_weights(Q: np.ndarray, R: np.ndarray):
    if not np.allclose(Q, Q.T) or not np.allclose(R, R.T):
        raise InvalidInputError("Q and R must be symmetric")
    if np.any(np.linalg.eigvalsh(Q) < -1e-12):
        raise InvalidInputError("Q must be positive semidefinite")
    if np.any(np.linalg.eigvalsh(R) <= 0):
        raise InvalidInputError("R must be positive definite")


def solve_riccati(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = RICCATI_TOL,
    max_iter: int = RICCATI_MAX_ITER,
) -> np.ndarray:
    """Fixed-point iteration on the DARE, started from Q."""
    _check_weights(Q, R)
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        gain_term = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ gain_term
        P_next = 0.5 * (P_next + P_next.T)
        residual = np.max(np.abs(P_next - P))
        P = P_next
        if not np.all(np.isfinite(P)) or np.max(np.abs(P)) > 1e14:
            raise NotStabilizableError("Riccati recursion diverged")
        if residual < tol:
            return P
    raise NotStabilizableError(f"Riccati recursion did not reach {tol} in {max_iter} iterations")


def lqr_gain(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = RICCATI_TOL,
    max_iter: int = RICCATI_MAX_ITER,
) -> np.ndarray:
    """Feedback gain K with closed loop A + B K Schur stable."""
    P = solve_riccati(A, B, Q, R, tol, max_iter)
    BtP = B.T @ P
    K = -np.linalg.solve(R + BtP @ B, BtP @ A)
    if B.size and np.any(np.abs(B) > 0):
        rho = np.max(np.abs(np.linalg.eigvals(A + B @ K)))
        if rho >= 1.0:
            raise NotStabilizableError(f"closed-loop spectral radius {rho:.6f} >= 1")
    return K


def lyapunov_P(A_K: np.ndarray, Q_star: np.ndarray, c: float) -> np.ndarray:
    """Solve (A_K/sqrt(1-c))' P (A_K/sqrt(1-c)) - P = -Q_star.

    Requires 0 <= c < 1 - rho(A_K)^2 so the scaled matrix stays Schur.
    Solved exactly through the Kronecker-vectorized linear system.
    """
    A_K = np.asarray(A_K, dtype=float)
    Q_star = np.asarray(Q_star, dtype=float)
    n = A_K.shape[0]
    if A_K.shape != (n, n) or Q_star.shape != (n, n):
        raise InvalidInputError("A_K and Q_star must be square of equal size")
    if np.any(np.linalg.eigvalsh(0.5 * (Q_star + Q_star.T)) <= 0):
        raise InvalidInputError("Q_star must be positive definite")
    rho = np.max(np.abs(np.linalg.eigvals(A_K)))
    if not 0.0 <= c < 1.0 - rho**2:
        raise InvalidScalingError(
            f"scaling c={c} violates 0 <= c < 1 - rho(A_K)^2 = {1.0 - rho ** 2:.6e}"
        )
    At = A_K / np.sqrt(1.0 - c)
    lhs = np.eye(n * n) - np.kron(At.T, At.T)
    P = np.linalg.solve(lhs, Q_star.reshape(-1)).reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = np.max(np.abs(At.T @ P @ At - P + Q_star))
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise NumericalBreakdownError(f"Lyapunov residual {residual:.3e} above tolerance")
    if np.any(np.linalg.eigvalsh(P) <= 0):
        raise NumericalBreakdownError("Lyapunov solution is not positive definite")
    return P


@dataclass(frozen=True)
class TerminalSet:
    """Invariant-ellipsoid ingredients anchored at one steady state."""

    K: np.ndarray
    P: np.ndarray
    zeta: float
    c: float
    steady: SteadyState
    Q: np.ndarray
    R: np.ndarray

    def translated_steady(self, model, r: np.ndarray) -> SteadyState:
        """Steady state at another position, by position invariance."""
        r = np.asarray(r, dtype=float)
        shift = position_shift(model, r - self.steady.r)
        return SteadyState(self.steady.x + shift, self.steady.u, r)


def terminal_control(ts: TerminalSet, x: np.ndarray, steady: SteadyState | None = None) -> np.ndarray:
    s = ts.steady if steady is None else steady
    return s.u + ts.K @ (np.asarray(x, dtype=float) - s.x)


def _finite_rows(bounds_lower, bounds_upper, transform):
    """Half-plane rows a'e <= b for finite box faces, e the state deviation."""
    rows = []
    for k, (lo, hi) in enumerate(zip(bounds_lower, bounds_upper)):
        row = transform[k]
        if np.isfinite(hi):
            rows.append((row, hi))
        if np.isfinite(lo):
            rows.append((-row, -lo))
    return rows


def _constraint_zeta_bound(
    model, steady: SteadyState, K: np.ndarray, P: np.ndarray, bound_margin: float = 0.0
) -> float:
    """Largest level set whose every point satisfies the box constraints
    under the terminal controller; exact for quadratic forms.

    bound_margin shrinks each face by a relative amount so that the local
    controller keeps strict headroom inside the boxes.
    """
    n_x = model.n_x
    P_inv = np.linalg.inv(P)
    rows = _finite_rows(
        model.state_bounds.lower - steady.x, model.state_bounds.upper - steady.x, np.eye(n_x)
    )
    rows += _finite_rows(
        model.input_bounds.lower - steady.u, model.input_bounds.upper - steady.u, K
    )
    bound = np.inf
    for a, b in rows:
        if b < 0:
            raise TerminalSetEmptyError("steady state violates the box constraints")
        b_eff = b * (1.0 - bound_margin)
        quad = float(a @ P_inv @ a)
        if quad > 1e-300:
            bound = min(bound, b_eff**2 / quad)
    return bound


def _sample_deviations(P: np.ndarray, n_directions: int, seed: int) -> np.ndarray:
    """Unit-level deviations e with e' P e = 1, from seeded random directions."""
    rng = np.random.default_rng(seed)
    n = P.shape[0]
    dirs = rng.standard_normal((n_directions, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    L = np.linalg.cholesky(P)
    return np.linalg.solve(L.T, dirs.T).T


def _decrease_holds(
    model,
    steady: SteadyState,
    K: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    unit_devs: np.ndarray,
    zeta: float,
    radii: np.ndarray,
    margin: float,
) -> bool:
    for rho in radii:
        e = np.sqrt(zeta) * rho * unit_devs
        x = steady.x + e
        du = e @ K.T
        u = steady.u + du
        x_next = model.step(x, u)
        e_next = x_next - steady.x
        v_now = np.einsum("ij,jk,ik->i", e, P, e)
        v_next = np.einsum("ij,jk,ik->i", e_next, P, e_next)
        stage = np.einsum("ij,jk,ik->i", e, Q, e) + np.einsum("ij,jk,ik->i", du, R, du)
        if np.any(v_next - v_now > -stage + margin):
            return False
    return True


def size_terminal_set(
    model,
    steady: SteadyState,
    K: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    n_directions: int = 512,
    radii=(0.25, 0.5, 0.75, 0.9, 1.0),
    bisect_iters: int = 40,
    seed: int = 0,
    margin: float = DECREASE_MARGIN,
    bound_margin: float = 1e-3,
) -> float:
    """Level zeta for the terminal region.

    Box constraints cap zeta in closed form; the Lyapunov decrease of the
    nonlinear closed loop is then verified on sampled directions scaled to
    the candidate boundary, shrinking by bisection when it fails.
    """
    if not n_directions >= 1:
        raise InvalidInputError(f"n_directions must be at least 1, got {n_directions}")
    radii = np.asarray(radii, dtype=float)
    cap = _constraint_zeta_bound(model, steady, K, P, bound_margin=bound_margin)
    if not np.isfinite(cap):
        cap = 1e6
    unit_devs = _sample_deviations(P, n_directions, seed)

    def ok(z: float) -> bool:
        return _decrease_holds(model, steady, K, P, Q, R, unit_devs, z, radii, margin)

    if ok(cap):
        zeta = cap
    else:
        lo, hi = 0.0, cap
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        zeta = lo
    # levels at rounding scale are useless as terminal regions
    if zeta <= 1e-12:
        raise TerminalSetEmptyError("no positive terminal level satisfies the decrease condition")
    return float(zeta)


def build_terminal_set(
    model,
    Q: np.ndarray,
    R: np.ndarray,
    c_fraction: float = 0.5,
    position=None,
    n_directions: int = 512,
    seed: int = 0,
    stage_Q: np.ndarray | None = None,
    stage_R: np.ndarray | None = None,
) -> TerminalSet:
    """Assemble K, P and zeta for a model around a steady position.

    Q, R shape the local controller and the Lyapunov recursion; stage_Q and
    stage_R (defaulting to Q, R) are the running-cost weights against which
    the decrease condition is certified.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    stage_Q = Q if stage_Q is None else np.asarray(stage_Q, dtype=float)
    stage_R = R if stage_R is None else np.asarray(stage_R, dtype=float)
    if not 0.0 < c_fraction < 1.0:
        raise InvalidInputError("c_fraction must lie in (0, 1)")
    if position is None:
        position = np.zeros(model.dim)
    steady = steady_state_from_position(model, np.asarray(position, dtype=float))
    A, B = linearize(model, steady.x, steady.u)
    K = lqr_gain(A, B, Q, R)
    A_K = A + B @ K
    rho = np.max(np.abs(np.linalg.eigvals(A_K)))
    c = c_fraction * (1.0 - rho**2)
    Q_star = Q + K.T @ R @ K
    P = lyapunov_P(A_K, Q_star, c)
    zeta = size_terminal_set(
        model, steady, K, P, stage_Q, stage_R, n_directions=n_directions, seed=seed
    )
    return TerminalSet(K, P, zeta, c, steady, stage_Q, stage_R)


def in_terminal_set(
    x: np.ndarray,
    rbar: np.ndarray,
    ts: TerminalSet,
    model,
    tol: float = 1e-9,
) -> bool:
    """Membership of (x, rbar) in the terminal region at setpoint rbar."""
    steady = ts.translated_steady(model, rbar)
    if np.linalg.norm(rbar - model.C @ steady.x) >= 1e-9:
        return False
    e = np.asarray(x, dtype=float) - steady.x
    return float(e @ ts.P @ e) <= ts.zeta + tol
