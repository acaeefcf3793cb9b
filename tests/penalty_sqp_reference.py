"""The penalty SQP that `mpc.solve_ocp` ran before the active-set method
replaced it, kept as a test reference.

The options, the solution record and the three solver functions below are
copied verbatim from that version of `rigid_coverage/mpc.py`, except that
`np.eye(nz)` stands for the template's identity and `_H_cost`, `_H_term` and
`_eq_jacobian` build the dense cost Hessian, terminal Hessian and equality
Jacobian, which the package keeps by stage only, with the arithmetic of the
arrays it kept then: `eq_jacobian` is the package's last dense equality
Jacobian, `_Template.eq_jacobian`, copied verbatim as a function of the
template.  They call the package's template, workspace and cold
start, so they solve the package's current layout of the problem.  Their
`np` is a recorder: `_polish` calls `np.delete` only to drop rows with a
negative multiplier and `np.union1d` only to add rows a step crossed, so
`np.dropped` and `np.crossed` tell which solves left the working set of the
first Newton pass unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy

from rigid_coverage.errors import OcpInfeasibleError
from rigid_coverage.mpc import _cold_start_vector, _diagonal_blocks, _Workspace, _workspace


class _Recorder:
    """numpy, counting the working-set changes of `_polish`."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.dropped = self.crossed = 0

    def __getattr__(self, name):
        return getattr(numpy, name)

    def delete(self, *args, **kwargs):
        self.dropped += 1
        return numpy.delete(*args, **kwargs)

    def union1d(self, *args, **kwargs):
        self.crossed += 1
        return numpy.union1d(*args, **kwargs)


np = _Recorder()


@dataclass(frozen=True)
class SqpOptions:
    max_iter: int = 150
    tol_equality: float = 1e-9
    tol_stationarity: float = 1e-6
    penalty_init: float = 1e2
    penalty_max: float = 1e8
    # inequalities are enforced at g <= -backoff; the margin absorbs the
    # residual violation lambda/(2*penalty_max) of strongly active rows,
    # so multipliers up to 2*penalty_max*backoff are tolerated
    backoff: float = 2e-4
    regularization: float = 1e-9
    armijo: float = 1e-4
    max_linesearch: int = 40


@dataclass
class OcpSolution:
    u_seq: np.ndarray  # (N, n_u)
    x_seq: np.ndarray  # (N + 1, n_x), x_seq[0] = x0
    xbar: np.ndarray
    ubar: np.ndarray
    rbar: np.ndarray
    cost: float
    status: str  # solved | max-iter | infeasible | candidate
    iterations: int = 0
    kkt_residual: float = math.nan
    penalty: float = math.nan



def _H_cost(ws: _Workspace) -> np.ndarray:
    """2 M'M of the structural rows, plus 2 Mb'Mb on theta."""
    H = 2.0 * ws.tpl.M_struct.T @ ws.tpl.M_struct
    H[ws.tpl.ith, ws.tpl.ith] += 2.0 * ws.Mb.T @ ws.Mb
    return H


def _H_term(ws: _Workspace) -> np.ndarray:
    """Curvature of the terminal-ellipsoid row in the z layout."""
    T = ws.tpl.T_term
    return T.T @ (2.0 * ws.tpl.P_term / ws.tpl.zeta_scale) @ T


def eq_jacobian(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The equality Jacobian (C_u, C_x, 0) of the stage Jacobians as dense rows, row block l
    for c_l = x_{l+1} - f(x_l, u_l); only `_independent_rows`, a rare path, builds it."""
    N, nx, nu = self.N, self.nx, self.nu
    J = np.zeros((self.n_eq, self.nz))
    J[:, self.ix_all] = np.eye(self.n_eq)
    J[_diagonal_blocks(N - 1, nx, N * nu, nx, nx)] = -A[1:]
    J[_diagonal_blocks(N, 0, 0, nx, nu)] = -B
    return J


def _eq_jacobian(ws: _Workspace, z: np.ndarray) -> np.ndarray:
    return eq_jacobian(ws.tpl, *ws.stage_jacobians(z))


def _penalty_terms(ws: _Workspace, z: np.ndarray, mu_pen: float, backoff: float):
    g = ws.tpl.ineq_values(z)
    active = g + backoff > 0.0
    viol = np.where(active, g + backoff, 0.0)
    value = mu_pen * float(viol @ viol)
    return g, active, viol, value


def _ineq_jacobian(ws: _Workspace, z: np.ndarray) -> np.ndarray:
    return np.vstack([ws.tpl.G, ws.tpl.ineq_jacobian_row_terminal(z)[None, :]])


def _polish(ws: _Workspace, z: np.ndarray, opts: SqpOptions, reg: float):
    """Terminate by pinning the working set: Newton steps with explicit
    multipliers instead of waiting for the penalty iterates to settle.

    Near-active rows are held at -backoff as equalities; rows whose
    multiplier comes out negative are released. The terminal row is the
    only curved inequality, so its multiplier-weighted Hessian joins the
    cost Hessian. Success requires strict feasibility and a small residual
    of the stationarity conditions at the stepped point, with multipliers
    refit there. Returns (z, kkt_residual) or None.
    """
    tpl = ws.tpl
    nz = tpl.nz
    n_eq = tpl.n_eq
    term_idx = tpl.G.shape[0]
    g = tpl.ineq_values(z)
    work = np.flatnonzero(g >= -opts.backoff - 1e-9)
    lam_term = 0.0
    best = None
    for _ in range(6):
        J_all = _ineq_jacobian(ws, z)
        c = ws.eq_constraints(z)
        C_J = _eq_jacobian(ws, z)
        grad = ws.cost_grad(z)
        H = _H_cost(ws) + reg * np.eye(nz) + lam_term * _H_term(ws)
        sol = lam = None
        for _drop in range(8):
            nA = len(work)
            dim = nz + n_eq + nA
            KKT = np.zeros((dim, dim))
            KKT[:nz, :nz] = H
            KKT[:nz, nz : nz + n_eq] = C_J.T
            KKT[nz : nz + n_eq, :nz] = C_J
            if nA:
                GA = J_all[work]
                KKT[:nz, nz + n_eq :] = GA.T
                KKT[nz + n_eq :, :nz] = GA
            rhs = np.concatenate([-grad, -c, -(g[work] + opts.backoff)])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                return None
            lam = sol[nz + n_eq :]
            neg = np.flatnonzero(lam < -1e-9)
            if len(neg) == 0:
                break
            work = np.delete(work, neg)
        else:
            return None
        pos = list(work).index(term_idx) if term_idx in work else -1
        lam_term = max(float(lam[pos]), 0.0) if pos >= 0 else 0.0
        z_try = z + sol[:nz]
        g_try = tpl.ineq_values(z_try)
        crossed = np.flatnonzero(g_try > 1e-12)
        new_rows = np.setdiff1d(crossed, work)
        if len(new_rows):
            work = np.union1d(work, new_rows)
            g = tpl.ineq_values(z)
            continue
        # judge the stepped point on its own multipliers, not the stale ones
        grad_try = ws.cost_grad(z_try)
        J_rows = np.vstack([_eq_jacobian(ws, z_try), _ineq_jacobian(ws, z_try)[work]])
        mult, *_ = np.linalg.lstsq(J_rows.T, -grad_try, rcond=None)
        lam_fit = mult[n_eq:]
        res = grad_try + J_rows.T @ mult
        kkt = float(np.linalg.norm(res, ord=np.inf))
        eq_try = float(np.linalg.norm(ws.eq_constraints(z_try), ord=np.inf))
        if (
            eq_try <= opts.tol_equality
            and kkt <= opts.tol_stationarity
            and (len(lam_fit) == 0 or float(np.min(lam_fit)) >= -1e-9)
        ):
            # good enough, but another pass usually reaches machine precision
            if kkt <= 1e-2 * opts.tol_stationarity:
                return z_try, kkt
            if best is None or kkt < best[1]:
                best = (z_try, kkt)
        # nonlinearity left a residual; take another Newton pass from here
        z = z_try
        g = g_try
    return best


def solve_ocp(problem: OcpProblem, warm: OcpSolution | None = None, options: SqpOptions | None = None) -> OcpSolution:
    """Solve the tracking problem; returns a strictly feasible local optimum.

    Raises OcpInfeasibleError when escalated penalties still leave some
    constraint violated at convergence.
    """
    opts = options or SqpOptions()
    ws = _workspace(problem)
    tpl = ws.tpl
    if warm is not None:
        z = tpl.pack(warm.u_seq, warm.x_seq, warm.xbar, warm.ubar)
    else:
        z = _cold_start_vector(problem, tpl)
    mu_pen = opts.penalty_init
    sigma = 1.0
    reg_base = opts.regularization * max(1.0, float(np.max(np.abs(_H_cost(ws)))))
    reg = reg_base
    iterations = 0
    status = "max-iter"
    kkt = math.nan
    viol_history: list[float] = []
    polish_cooldown = 0

    for iterations in range(1, opts.max_iter + 1):
        c = ws.eq_constraints(z)
        C_J = _eq_jacobian(ws, z)
        g, active, viol, _ = _penalty_terms(ws, z, mu_pen, opts.backoff)

        max_g = float(np.max(g)) if len(g) else -math.inf
        eq_now = float(np.linalg.norm(c, ord=np.inf))

        # once the iterate is essentially feasible, finish with an
        # active-set Newton step instead of waiting out the penalty loop
        if eq_now <= 1e-6 and max_g <= 10.0 * opts.backoff:
            if polish_cooldown == 0:
                polished = _polish(ws, z, opts, reg_base)
                if polished is not None:
                    z, kkt = polished
                    status = "solved"
                    break
                polish_cooldown = 5
            else:
                polish_cooldown -= 1

        # a violation that stopped shrinking means the iterate sits at the
        # current penalty's equilibrium; escalate without waiting for exact
        # stationarity
        if max_g > 1e-12 and eq_now <= 1e-6 and mu_pen < opts.penalty_max:
            viol_history.append(max_g)
            if len(viol_history) > 6 and max_g > 0.99 * viol_history[-7]:
                mu_pen = min(mu_pen * 10.0, opts.penalty_max)
                viol_history.clear()
                continue
        else:
            viol_history.clear()
        grad = ws.cost_grad(z)
        H = _H_cost(ws)
        if np.any(active[:-1]):
            Ga = tpl.G[active[:-1]]
            va = viol[:-1][active[:-1]]
            grad = grad + 2.0 * mu_pen * Ga.T @ va
            H += 2.0 * mu_pen * Ga.T @ Ga
        if active[-1]:
            row = tpl.ineq_jacobian_row_terminal(z)
            grad = grad + 2.0 * mu_pen * viol[-1] * row
            H += 2.0 * mu_pen * np.outer(row, row)

        nz = tpl.nz
        KKT = np.zeros((nz + tpl.n_eq, nz + tpl.n_eq))
        KKT[:nz, :nz] = H + reg * np.eye(nz)
        KKT[:nz, nz:] = C_J.T
        KKT[nz:, :nz] = C_J
        rhs = np.concatenate([-grad, -c])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            reg *= 100.0
            continue
        delta, nu = sol[:nz], sol[nz:]

        kkt = float(np.linalg.norm(grad + C_J.T @ nu, ord=np.inf))
        eq_res = float(np.linalg.norm(c, ord=np.inf))
        if kkt <= opts.tol_stationarity and eq_res <= opts.tol_equality:
            if np.all(g <= 1e-12):
                status = "solved"
                break
            if mu_pen >= opts.penalty_max:
                u_seq, x_seq, xbar, ubar = ws.unpack(z)
                partial = OcpSolution(
                    u_seq, x_seq, xbar, ubar, problem.model.C @ xbar,
                    ws.cost(z), "infeasible", iterations, kkt, mu_pen,
                )
                raise OcpInfeasibleError(
                    f"constraint violation {float(np.max(g)):.3e} persists at maximum penalty",
                    partial,
                )
            mu_pen = min(mu_pen * 10.0, opts.penalty_max)
            continue

        sigma = max(sigma, 2.0 * float(np.linalg.norm(nu, ord=np.inf)) + 1.0)
        merit0 = ws.cost(z) + _penalty_terms(ws, z, mu_pen, opts.backoff)[3] + sigma * float(np.sum(np.abs(c)))
        descent = float(grad @ delta) - sigma * float(np.sum(np.abs(c)))
        if descent > -1e-16:
            descent = -1e-16
        alpha = 1.0
        accepted = False
        for _ in range(opts.max_linesearch):
            z_try = z + alpha * delta
            merit_try = (
                ws.cost(z_try)
                + _penalty_terms(ws, z_try, mu_pen, opts.backoff)[3]
                + sigma * float(np.sum(np.abs(ws.eq_constraints(z_try))))
            )
            if merit_try <= merit0 + opts.armijo * alpha * descent:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reg = min(reg * 10.0, 1e6 * reg_base)
            alpha = 0.0
        else:
            reg = max(reg / 10.0, reg_base)
        z = z + alpha * delta
        if accepted and np.linalg.norm(alpha * delta, ord=np.inf) < 1e-14 and eq_res <= opts.tol_equality:
            # stalled at numerical floor; let the convergence test decide next pass
            continue

    u_seq, x_seq, xbar, ubar = ws.unpack(z)
    rbar = problem.model.C @ xbar
    solution = OcpSolution(u_seq, x_seq, xbar, ubar, rbar, ws.cost(z), status, iterations, kkt, mu_pen)
    if status != "solved":
        g = tpl.ineq_values(z)
        eq_res = float(np.linalg.norm(ws.eq_constraints(z), ord=np.inf))
        if eq_res > opts.tol_equality or np.any(g > 1e-12):
            solution.status = "infeasible"
            raise OcpInfeasibleError(
                f"no feasible point after {opts.max_iter} iterations "
                f"(eq {eq_res:.3e}, ineq {float(np.max(g)) if len(g) else 0.0:.3e})",
                solution,
            )
    return solution
