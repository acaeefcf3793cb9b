"""Terminal controller, cost and invariant set for the tracking controller.

The local controller is u = u_ss + K (x - x_ss) with K from the discrete
algebraic Riccati equation (fixed-point recursion).  The terminal cost
matrix P solves a scaled discrete Lyapunov equation so that P decreases by
at least the full stage cost along the closed loop, with slack c to absorb
nonlinear remainders.  The terminal region is the sublevel set
{x : (x - x_ss)' P (x - x_ss) <= zeta}.  zeta is the smaller of two closed
forms: the exact level at which the box constraints bind, and a certified
level for the cost decrease, from one eigenvalue test on the linear closed
loop and a bound on the drag remainder on the ellipsoid (the
quasi-infinite-horizon construction of Chen and Allgower, Automatica 1998).
Position invariance of the models makes one (K, P, zeta) valid at every
setpoint.
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
# relative headroom the terminal controller keeps inside every box face
BOUND_MARGIN = 1e-3
# decrease eigenvalues in [-DECREASE_ROUNDOFF, 0) are round-off of a semidefinite D
DECREASE_ROUNDOFF = 1e-12


def is_symmetric(M: np.ndarray) -> bool:
    """Symmetry test of every weight matrix, up to numpy's default
    tolerances: `eigh`, and so every square root of a weight, reads one
    triangle only."""
    return np.allclose(M, M.T)


def check_weight(M: np.ndarray, name: str, definite: bool):
    """Reject a weight matrix that is not finite, then one that is not
    symmetric, then one that is not positive definite (`definite`) or
    semidefinite; the error names the matrix."""
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} must be finite")
    if not is_symmetric(M):
        raise InvalidInputError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(M)
    if definite and np.any(w <= 0):
        raise InvalidInputError(f"{name} must be positive definite")
    if np.any(w < -1e-12):
        raise InvalidInputError(f"{name} must be positive semidefinite")


def solve_riccati(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = RICCATI_TOL,
    max_iter: int = RICCATI_MAX_ITER,
) -> np.ndarray:
    """Fixed-point iteration on the DARE, started from Q."""
    check_weight(Q, "Q", definite=False)
    check_weight(R, "R", definite=True)
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


def _constraint_zeta_bound(model, steady: SteadyState, K: np.ndarray, P: np.ndarray) -> float:
    """Largest level set whose every point satisfies the box constraints
    under the terminal controller; exact for quadratic forms.

    Each face is shrunk by BOUND_MARGIN (relative) so that the local
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
        b_eff = b * (1.0 - BOUND_MARGIN)
        quad = float(a @ P_inv @ a)
        if quad > 1e-300:
            bound = min(bound, b_eff**2 / quad)
    return bound


def _decrease_level(model, steady: SteadyState, K: np.ndarray, P: np.ndarray, Q, R) -> float:
    """Largest level alpha on which V(e+) - V(e) <= -(e'Q e + du'R du) is
    certified for every e with e'P e <= alpha, du = K e.

    With A_K = A + B K, D = P - A_K'P A_K - (Q + K'R K) and P = L L', the
    linear part gives e'D e >= lam e'P e with lam = lambda_min(L^-1 D L^-T).
    At rest the step remainder is phi(e) = (0, -gamma |e_v| e_v) with
    gamma = h drag, and on the level set
      |e_v|^2 <= kappa alpha,              kappa = lambda_max((P^-1)_vv),
      |2 phi'P A_K e| <= b alpha^1.5,      b = 2 gamma m kappa, m = ||(P A_K)_v L^-T||,
      phi'P phi <= a alpha^2,              a = lambda_max(P_vv) gamma^2 kappa^2,
    so the decrease holds while lam - b sqrt(alpha) - a alpha >= 0.
    """
    A, B = linearize(model, steady.x, steady.u)
    A_K = A + B @ K
    D = P - A_K.T @ P @ A_K - (Q + K.T @ R @ K)
    L = np.linalg.cholesky(P)
    L_inv = np.linalg.inv(L)
    lam = float(np.linalg.eigvalsh(L_inv @ D @ L_inv.T)[0])
    if lam < -DECREASE_ROUNDOFF:
        raise TerminalSetEmptyError(
            f"the terminal cost does not decrease by the stage cost (lambda_min {lam:.3e} < 0)"
        )
    lam = max(lam, 0.0)
    gamma = model.h * model.drag
    if gamma == 0.0:
        return np.inf
    v = slice(model.dim, model.n_x)
    kappa = np.linalg.norm(L_inv[:, v], 2) ** 2  # = lambda_max((P^-1)_vv)
    m = np.linalg.norm((P @ A_K)[v] @ L_inv.T, 2)
    p = np.linalg.norm(L[v], 2) ** 2  # = lambda_max(P_vv)
    b = 2.0 * gamma * m * kappa
    a = p * (gamma * kappa) ** 2
    return (2.0 * lam / (b + np.sqrt(b * b + 4.0 * a * lam))) ** 2


def size_terminal_set(
    model,
    steady: SteadyState,
    K: np.ndarray,
    P: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
) -> float:
    """Level zeta for the terminal region, in closed form.

    zeta is the smaller of the box cap, under which the terminal controller
    keeps every state and input in its box, and the level up to which the
    Lyapunov decrease against the stage weights Q, R is certified.
    """
    cap = _constraint_zeta_bound(model, steady, K, P)
    if not np.isfinite(cap):
        cap = 1e6
    zeta = min(cap, _decrease_level(model, steady, K, P, Q, R))
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
    stage_Q: np.ndarray | None = None,
    stage_R: np.ndarray | None = None,
) -> TerminalSet:
    """Assemble K, P and zeta for a model around a steady position.

    Q, R shape the local controller and the Lyapunov recursion; stage_Q and
    stage_R (defaulting to Q, R) are the running-cost weights against which
    the decrease condition is certified; weights the terminal cost cannot
    certify raise TerminalSetEmptyError.
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
    zeta = size_terminal_set(model, steady, K, P, stage_Q, stage_R)
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
