"""Tracking controller with artificial references and bearing maintenance.

Each robot solves a finite-horizon optimal control problem over its input
sequence, shooting states, and the setpoint theta = rbar of an artificial
steady pair (xbar, ubar) = (psi(theta), 0), at rest at theta as
`TerminalSet.translated_steady` gives (MPC for tracking, Limon et al.,
Automatica 2008).  The cost penalizes distance to the artificial steady
state along the horizon, the gap between theta and the requested
reference, and the distance of theta from the desired bearing lines
through neighbor anchor points.  The problem is solved by a primal
active-set SQP (`solve_ocp`): each pass is an exact Newton step (with no
diagonal shift) on the condensed KKT system of the Lagrangian, with the
dynamics linearised along the iterate (all stages in one `linearize` call)
and their multiplier-weighted curvature in its Hessian.  Every inequality
(box rows, setpoint polygon, terminal ellipsoid) is solved as g <= -backoff:
the working set is held there, a step stops on the first other row that
would cross it, which joins, and rows whose multiplier turns negative leave;
a working tolerance that grows every pass (EXPAND) keeps steps of positive
length at degenerate points.  A warm start far from feasible is replaced by
the cold start; a working row far above its level is held softly (elastic
mode, as in SNOPT), and its stalled violation certifies infeasibility.

A pass keeps its data by stage: the gaps c, the stage Jacobians A and B,
and the Hessian's Q-blocks, R-blocks, x-theta border and theta-theta block;
nothing builds an nz-wide Hessian or equality Jacobian, and dependent
working rows are found on the rows reduced to (u, theta).  A *template*
(`_Template`) holds everything fixed by the model, horizon, weights,
terminal set and setpoint polygon: the layout of the decision vector z, the
inequality rows G z <= h, the cost residual rows that the bearings leave
alone and the blocks of their Hessian, the terminal row's curvature and,
for a model with constant Jacobians, A, B and their condensing.  Templates
are cached by value, a bounded number at a time, and shared read-only by
every problem with the same key.  An *instance* (`_Workspace`) adds what
x0, r_ref and the bearings set (the bearing rows touch only theta); it lives
on its `OcpProblem`, so the warm-start check and the solve of one problem
share it and its values.  `team_problems` sets up the robots of one model
at a step together: it checks the stacked states, references and bearings
once each, builds the template once, takes every x0 and r_ref term by one
matrix product and each bearing's projector once per graph edge, and hands
each robot its problem with the instance attached.  A problem built alone
is checked and instanced the same way, as a team of one.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import linearize, position_shift
from .errors import (
    InvalidInputError,
    NumericalBreakdownError,
    OcpInfeasibleError,
    RecursiveFeasibilityError,
    _integer,
)
from .geometry import ConvexRegion
from .terminal import TerminalSet, check_weight

BEARING_UNIT_TOL = 1e-9
# a warm start needs dynamics gaps <= WARM_GAP and no row above SOFT_LEVEL * backoff; a working row above
# that level is held softly, with weight PENALTY * max(1, H_max), and must lose STALL of its violation a pass
WARM_GAP = 1e-6
SOFT_LEVEL = 10.0
PENALTY = 1e6
STALL = 1e-6


def _psd_sqrt(Q: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(np.asarray(Q, dtype=float))
    if np.any(w < -1e-12):
        raise InvalidInputError("weight matrix must be positive semidefinite")
    return np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T


@dataclass(frozen=True)
class CostWeights:
    """Stage, terminal-tradeoff and bearing weights of the tracking cost."""

    Q: np.ndarray
    R: np.ndarray
    S_r: np.ndarray
    w_b: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        for name in ("Q", "R", "S_r"):
            M = np.array(getattr(self, name), dtype=float)  # an own, read-only copy
            check_weight(M, name, definite=name != "Q")
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        if not 0.0 < self.mu <= 1.0:
            raise InvalidInputError(f"mu must lie in (0, 1], got {self.mu}")
        if not 0.0 <= self.w_b < math.inf:
            raise InvalidInputError(f"bearing weight must be non-negative and finite, got {self.w_b}")


def bearing_projector(g: np.ndarray) -> np.ndarray:
    """Projector onto the complement of a unit bearing direction."""
    return _projectors(1.0, _unit_rows([g], np.size(g), lambda k: "bearing"))[0]


def bearing_cost(rbar, desired_bearings, neighbor_anchors, w_b: float) -> float:
    """Distance of a candidate setpoint from the desired bearing lines.

    Sums w_b * ||P_g (rbar - anchor_j)||^2 over the desired bearings; zero
    exactly when rbar lies on every line through an anchor along its
    bearing direction.
    """
    rbar = np.asarray(rbar, dtype=float)
    total = 0.0
    for j, g in desired_bearings:
        diff = bearing_projector(g) @ (rbar - np.asarray(neighbor_anchors[j], dtype=float))
        total += float(diff @ diff)
    return w_b * total


@dataclass(frozen=True)
class OcpProblem:
    """One robot's tracking problem at one time step; `team_problems` builds a team's at once."""

    model: object
    horizon: int
    weights: CostWeights
    terminal: TerminalSet
    x0: np.ndarray
    r_ref: np.ndarray
    desired_bearings: tuple = ()
    neighbor_anchors: dict = field(default_factory=dict)
    setpoint_region: ConvexRegion | None = None

    def __post_init__(self):
        # validated as a team of one; own copies: a problem's instance is reused, so a caller's later write to an
        # array must not reach it
        d = self.model.dim
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon", least=1))
        x0 = _states(self.model, [self.x0], lambda k: "")[0]
        r_ref = _finite_rows([self.r_ref], d, lambda k: "r_ref")[0]
        js = list(self.neighbor_anchors)
        anchors = _finite_rows([self.neighbor_anchors[j] for j in js], d, lambda k: f"anchor of {js[k]}")
        anchors = dict(zip(js, anchors))
        toward = [j for j, _ in self.desired_bearings]
        g = _unit_rows([g for _, g in self.desired_bearings], d, lambda k: f"desired bearing toward {toward[k]}")
        for j in toward:
            if j not in anchors:
                raise InvalidInputError(f"missing anchor for neighbor {j}")
        bearings = tuple(sorted(((int(j), g_j) for j, g_j in zip(toward, g)), key=lambda item: item[0]))
        for name, value in dict(x0=x0, r_ref=r_ref, desired_bearings=bearings, neighbor_anchors=anchors).items():
            object.__setattr__(self, name, value)


def _finite_rows(value, width: int, name) -> np.ndarray:
    """A read-only float copy of the rows `value`, each a finite vector of
    length `width`; otherwise raises naming the first bad row k by `name(k)`."""
    rows = _float_rows(value, width)
    if rows is None:
        k = next(k for k, v in enumerate(value) if _float_rows([v], width) is None)
        raise InvalidInputError(f"{name(k)} must be a finite vector of shape ({width},)")
    rows.setflags(write=False)
    return rows


def _float_rows(value, width: int):
    """`value` as a new float array of finite rows of length `width`, or None."""
    try:
        rows = np.array(value, dtype=float) if len(value) else np.zeros((0, width))
    except (TypeError, ValueError):  # ragged, or not numbers
        return None
    return rows if rows.shape[1:] == (width,) and np.isfinite(rows).all() else None


def _unit_rows(value, width: int, name) -> np.ndarray:
    """`_finite_rows` of unit vectors, checked in one pass."""
    g = _finite_rows(value, width, name)
    off = np.flatnonzero(np.abs(np.linalg.norm(g, axis=1) - 1.0) > BEARING_UNIT_TOL)
    if len(off):
        raise InvalidInputError(f"{name(off[0])} is not unit")
    return g


def _states(model, x0, who) -> np.ndarray:
    """`_finite_rows` of initial states inside the model's state box; `who(k)` follows "x0" and "initial state"
    in the error on row k."""
    x0 = _finite_rows(x0, model.n_x, lambda k: f"x0{who(k)}")
    sb = model.state_bounds
    outside = np.flatnonzero(~((x0 >= sb.lower - 1e-9) & (x0 <= sb.upper + 1e-9)).all(axis=1))
    if len(outside):
        raise InvalidInputError(f"initial state{who(outside[0])} violates the state box")
    return x0


def team_problems(model, horizon, weights, terminal, setpoint_region, rows, x0, refs, bearings, ids) -> list:
    """The problems of the team robots `rows` (ascending indices into the team), which share `model` and so one
    template, validated and built at once.

    Robot i = rows[k] starts at x0[k] and tracks refs[i]; `bearings` maps each edge (i, j), i < j, of the team's
    graph to its desired unit bearing from i to j, so robot i holds it toward j, robot j its negation toward i, and
    each takes the other's reference as its anchor.  Each stack is checked once; an error names the robot by
    ids[i].  Every problem carries its instance, as `_workspace` would build it alone.
    """
    d = model.dim
    horizon = _integer(horizon, "horizon", least=1)
    rows = np.asarray(rows, dtype=int)
    x0 = _states(model, x0, lambda k: f" of robot {ids[rows[k]]}")
    refs = _finite_rows(refs, d, lambda i: f"r_ref of robot {ids[i]}")
    edges = np.array(list(bearings), dtype=int).reshape(-1, 2)
    if len(x0) != len(rows) or np.any(np.diff(rows) <= 0) or np.any((rows < 0) | (rows >= len(refs))):
        raise InvalidInputError("rows must be ascending robots of the team, one per row of x0")
    if np.any((edges[:, 0] < 0) | (edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= len(refs))):
        raise InvalidInputError("bearing edges must be pairs (i, j) of robots of the team with i < j")
    g = _unit_rows(list(bearings.values()), d,
                   lambda e: f"desired bearing of robot {ids[edges[e, 0]]} toward robot {ids[edges[e, 1]]}")
    # each bearing as both robots hold it, robot by robot, each robot's by neighbour
    owner, toward = np.concatenate([edges, edges[:, ::-1]]).T
    edge = np.tile(np.arange(len(edges)), 2)
    order = np.lexsort((toward, owner))
    order = order[np.isin(owner[order], rows)]
    owner, toward, edge = owner[order], toward[order], edge[order]
    g_held = np.concatenate([g, -g])[order]
    g_held.setflags(write=False)
    ends = np.cumsum(np.bincount(np.searchsorted(rows, owner), minlength=len(rows))).tolist()
    spans = list(zip([0, *ends[:-1]], ends))  # robot k's bearings are [a, b) of each held array
    toward_ids, g_rows, anchor_rows = toward.tolist(), list(g_held), list(refs)  # row views, taken once
    problems = []
    for x0_k, i, (a, b) in zip(x0, rows.tolist(), spans):
        js = toward_ids[a:b]
        problem = object.__new__(OcpProblem)  # checked above, so no __post_init__
        vars(problem).update(
            model=model, horizon=horizon, weights=weights, terminal=terminal, x0=x0_k, r_ref=anchor_rows[i],
            desired_bearings=tuple(zip(js, g_rows[a:b])), neighbor_anchors={j: anchor_rows[j] for j in js},
            setpoint_region=setpoint_region,
        )
        problems.append(problem)
    if problems:
        tpl = _template(problems[0])
        P = _projectors(tpl.s_b, g)[edge]  # P_{-g} = P_g: one projector per edge
        for problem, ws in zip(problems, _instances(tpl, x0, refs[rows], P, refs[toward], spans)):
            vars(problem)["_instance"] = ws
    return problems


@dataclass(frozen=True)
class SqpOptions:
    """Options of `solve_ocp`: its pass limit, stopping tolerances and constraint backoff."""
    max_iter: int = 150  # Newton passes of the active-set loop
    tol_equality: float = 1e-9
    tol_stationarity: float = 1e-6
    # every inequality is solved as g <= -backoff, not g <= 0: the terminal
    # ellipsoid is curved, so its linearised row lands slightly above the
    # value it was held at, and the margin keeps that point, the dynamics'
    # round-off and the working tolerance strictly inside every constraint
    backoff: float = 2e-4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                raise InvalidInputError(f"solver option {f.name} must be a finite {f.type}, got {value!r}")
            least = "positive" if f.name in ("max_iter", "tol_equality", "tol_stationarity") else "non-negative"
            if value < 0 or (value == 0 and least == "positive"):
                raise InvalidInputError(f"solver option {f.name} must be {least}, got {value!r}")


@dataclass
class OcpSolution:
    u_seq: np.ndarray  # (N, n_u)
    x_seq: np.ndarray  # (N + 1, n_x), x_seq[0] = x0
    xbar: np.ndarray
    ubar: np.ndarray
    rbar: np.ndarray
    cost: float
    status: str  # solved | max-iter | infeasible | candidate
    iterations: int = 0  # Newton passes
    kkt_residual: float = math.nan


def _diagonal_blocks(n: int, r0: int, c0: int, rows: int, cols: int) -> tuple:
    """Index of n blocks of rows x cols down a diagonal from (r0, c0):
    `M[index] = blocks` writes blocks[l] at M[r0 + l rows, c0 + l cols]."""
    l = np.arange(n)[:, None, None]
    return r0 + l * rows + np.arange(rows)[:, None], c0 + l * cols + np.arange(cols)


class _Template:
    """The part of an OCP fixed by its model, horizon, weights, terminal set
    and setpoint polygon.

    Holds the layout of the decision vector z = (u_0 .. u_{N-1}, x_1 .. x_N,
    theta), the linear inequality rows G z <= h, the structural rows of the
    cost residual and the stage blocks of their Hessian, the curvature of
    the terminal row and, for a model with constant Jacobians, the stage
    Jacobians A, B with their condensing.  The steady pair is (E theta, 0),
    E the position embedding psi: its velocity and input are 0, strictly
    inside their boxes, so it needs no dynamics or box rows of its own.  One
    template is shared by every problem with the same key, so its arrays are
    read-only.
    """

    def __init__(self, problem: OcpProblem):
        model = problem.model
        N = problem.horizon
        self.model, self.N = model, N
        self.nx, self.nu, self.d = model.n_x, model.n_u, model.dim
        self.nz = N * self.nu + N * self.nx + self.d
        self.n_eq = N * self.nx
        base = N * self.nu + N * self.nx
        self.iu_all = slice(0, N * self.nu)
        self.ix_all = slice(N * self.nu, base)
        self.ith = slice(base, self.nz)
        self.C = model.C
        self.E = np.stack([position_shift(model, e) for e in np.eye(self.d)], axis=1)  # xbar = E theta
        self.iw = np.r_[self.iu_all, self.ith]  # u, then theta: what the shooting states are eliminated onto
        self.T_term = np.zeros((self.nx, self.nz))  # x_N - xbar = T_term z
        self.T_term[:, self.ix(N)] = np.eye(self.nx)
        self.T_term[:, self.ith] = -self.E
        self._build_cost(problem)
        self._build_linear_ineq(problem)
        self.P_term = np.array(problem.terminal.P, dtype=float)
        self.zeta = problem.terminal.zeta
        self.zeta_scale = max(self.zeta, 1e-12)
        self.W_term = 2.0 * self.P_term / self.zeta_scale  # the terminal row's curvature in x_N - xbar
        self.A = self.B = self.Cx_inv = self.S = None
        if model.constant_jacobians:  # then any point will do
            A, B = linearize(model, np.zeros((N, self.nx)), np.zeros((N, self.nu)))
            self.Cx_inv, self.S = self.condense(A, B)
            self.A, self.B = A, B
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # --- layout -----------------------------------------------------------
    def iu(self, l: int) -> slice:
        return slice(l * self.nu, (l + 1) * self.nu)

    def ix(self, l: int) -> slice:
        base = self.N * self.nu
        return slice(base + (l - 1) * self.nx, base + l * self.nx)

    def check_shapes(self, u_seq, x_seq, xbar):
        """Raise InvalidInputError unless the sequences and xbar fit this horizon and model."""
        N, nu, nx = self.N, self.nu, self.nx
        for name, value, shape in (("u_seq", u_seq, (N, nu)), ("x_seq", x_seq, (N + 1, nx)), ("xbar", xbar, (nx,))):
            if np.shape(value) != shape:
                raise InvalidInputError(f"{name} must have shape {shape} for a {N}-step problem, got {np.shape(value)}")

    def pack(self, u_seq, x_seq, xbar, ubar) -> np.ndarray:  # the steady pair enters by its setpoint C xbar
        self.check_shapes(u_seq, x_seq, xbar)
        z = np.empty(self.nz)
        z[self.iu_all] = np.reshape(u_seq, -1)
        z[self.ix_all] = np.reshape(x_seq[1:], -1)
        z[self.ith] = self.C @ xbar
        return z

    # --- cost: structural rows of the affine residual -----------------------
    def _build_cost(self, problem: OcpProblem):
        """Rows of M that x0, r_ref and the bearings leave alone, and the
        stage blocks of 2 M'M; the instance fills the rows' offsets and
        appends the bearing rows."""
        w = problem.weights
        N, nx, nu, d = self.N, self.nx, self.nu, self.d
        L_Q = _psd_sqrt(w.Q)
        L_R = _psd_sqrt(w.R)
        L_P = _psd_sqrt(problem.terminal.P)
        L_S = _psd_sqrt(w.S_r)
        M = np.zeros((N * nx + N * nu + nx + d, self.nz))
        # stage state terms (x_l - xbar), l = 0 uses the parameter x0
        M[_diagonal_blocks(N - 1, nx, N * nu, nx, nx)] = L_Q
        M[: N * nx, self.ith] = np.tile(-L_Q @ self.E, (N, 1))
        # stage input terms (u_l - ubar), ubar = 0
        M[_diagonal_blocks(N, N * nx, 0, nu, nu)] = L_R
        # terminal term (x_N - xbar)
        r = N * (nx + nu)
        M[r : r + nx] = L_P @ self.T_term
        # reference offset term sqrt(mu) * (theta - r_ref)
        self.s_ref = math.sqrt(w.mu)
        M[r + nx :, self.ith] = self.s_ref * L_S
        self.M_struct = M
        # No row couples u with x or theta, or two stages' x: the blocks below
        # are all of H.  Its product need not be exactly symmetric (with one
        # BLAS thread the two sides differ by 1.4e-14 at N = 40), so the
        # border is kept as both the x rows and the theta rows read it.
        H = 2.0 * M.T @ M
        self.H_xx = H[_diagonal_blocks(N, N * nu, N * nu, nx, nx)]
        self.H_uu = H[_diagonal_blocks(N, 0, 0, nu, nu)]
        self.H_xth = H[self.ix_all, self.ith].reshape(N, nx, d).copy()
        self.H_thx = H[self.ith, self.ix_all].copy()
        self.H_thth = H[self.ith, self.ith].copy()
        H[self.ith, self.ith] = 0.0  # the one block the bearings change
        self.H_struct_max = float(np.max(np.abs(H)))
        self.L_Q = L_Q
        self.L_S = L_S
        # scale of the bearing terms sqrt((1-mu) w_b) * P_g (theta - anchor_j)
        self.s_b = math.sqrt(max(1.0 - w.mu, 0.0) * w.w_b)

    # --- inequalities -------------------------------------------------------
    def _build_linear_ineq(self, problem: OcpProblem):
        """Box rows, scaled unit selections of the inputs and states, then
        the setpoint polygon on theta.

        Per column of z in order, the upper face comes before the lower one
        and an infinite face gives no row.
        """
        N = self.N
        sb, ib = self.model.state_bounds, self.model.input_bounds
        upper = np.concatenate([np.tile(ib.upper, N), np.tile(sb.upper, N)])
        lower = np.concatenate([np.tile(ib.lower, N), np.tile(sb.lower, N)])
        # (upper, lower) face of each column, flattened column by column
        bound = np.stack([upper, -lower], axis=1).ravel()
        sign = np.tile([1.0, -1.0], len(upper))
        keep = np.isfinite(bound)
        cols = np.repeat(np.arange(len(upper)), 2)[keep]
        bound, sign = bound[keep], sign[keep]
        scale = np.maximum(1.0, np.abs(bound))
        n_box = len(cols)
        if problem.setpoint_region is not None:
            A, b = problem.setpoint_region.half_planes()
            region_scale = np.maximum(1.0, np.abs(b))
        else:
            A, b, region_scale = np.zeros((0, self.d)), np.zeros(0), np.ones(0)
        G = np.zeros((n_box + len(b), self.nz))
        G[np.arange(n_box), cols] = sign / scale
        G[n_box:, self.ith] = A / region_scale[:, None]
        self.G = G
        self.h = np.concatenate([bound / scale, b / region_scale])

    def ineq_values(self, z: np.ndarray) -> np.ndarray:
        """All inequality values g(z) <= 0, terminal ellipsoid last."""
        lin = self.G @ z - self.h
        e = self.T_term @ z
        term = (float(e @ self.P_term @ e) - self.zeta) / self.zeta_scale
        return np.append(lin, term)

    def ineq_jacobian_row_terminal(self, z: np.ndarray) -> np.ndarray:
        return self.T_term.T @ (2.0 * (self.P_term @ (self.T_term @ z)) / self.zeta_scale)

    # --- equalities ----------------------------------------------------------
    def condense(self, A: np.ndarray, B: np.ndarray) -> tuple:
        """The inverse of the unit block lower-bidiagonal C_x (-A_l below its
        diagonal) and S = -C_x^-1 C_u (C_u = diag(-B_l)): the linearised
        dynamics C_J dz = -c give dx = S du - C_x^-1 c.  One forward recursion
        over the stages gives both (multiple shooting with condensing, Bock &
        Plitt 1984); the constant Jacobians' are the template's own."""
        if A is self.A:
            return self.Cx_inv, self.S
        nx, n_dyn = self.nx, self.n_eq
        R = np.zeros((n_dyn, n_dyn + self.N * self.nu))  # C_x^-1 (I, -C_u) once the recursion has run
        np.fill_diagonal(R, 1.0)
        R[_diagonal_blocks(self.N, 0, n_dyn, nx, self.nu)] = B
        for l in range(1, self.N):
            R[l * nx : (l + 1) * nx] += A[l] @ R[(l - 1) * nx : l * nx]
        return R[:, :n_dyn], R[:, n_dyn:]


TEMPLATE_CACHE_SIZE = 8
_templates: OrderedDict = OrderedDict()
_templates_lock = threading.Lock()


def _array_key(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _template_key(problem: OcpProblem) -> tuple:
    """Everything a template depends on, by value."""
    w, region = problem.weights, problem.setpoint_region
    return (
        problem.model,
        problem.horizon,
        _array_key(w.Q), _array_key(w.R), _array_key(w.S_r), w.w_b, w.mu,
        _array_key(problem.terminal.P), problem.terminal.zeta,
        None if region is None else _array_key(region.vertices),
    )


def _template(problem: OcpProblem) -> _Template:
    """The problem's template, built on first use; the cache keeps the
    TEMPLATE_CACHE_SIZE most recently used."""
    key = _template_key(problem)
    with _templates_lock:
        template = _templates.get(key)
        if template is None:
            template = _templates[key] = _Template(problem)
            if len(_templates) > TEMPLATE_CACHE_SIZE:
                _templates.popitem(last=False)
        else:
            _templates.move_to_end(key)
        return template


class _Workspace:
    """One problem's instance of its cached template.

    Adds what x0, r_ref and the bearings set: the offset f0 of the residual
    rows M_struct z + f0, the bearing rows Mb theta + fb, the theta-theta
    block H_thth of the cost Hessian (the template's plus 2 Mb'Mb) and the
    Hessian's largest |entry| H_max.  Built by `_instances` for a team, or
    for one problem by `_workspace`, and kept on its problem.
    """

    def __init__(self, tpl: _Template, x0, f0, Mb, fb, H_thth, H_max):
        self.tpl, self.x0, self.f0, self.Mb, self.fb, self.H_thth, self.H_max = tpl, x0, f0, Mb, fb, H_thth, H_max
        self.handoff = (None, None, None, None)  # (candidate, z, c, g) of the last shift_warm_start

    def unpack(self, z: np.ndarray):
        tpl = self.tpl
        u_seq = z[tpl.iu_all].reshape(tpl.N, tpl.nu).copy()
        x_seq = np.vstack([self.x0, z[tpl.ix_all].reshape(tpl.N, tpl.nx)])
        return u_seq, x_seq, tpl.E @ z[tpl.ith], np.zeros(tpl.nu)

    def cost(self, z: np.ndarray) -> float:
        res = self.tpl.M_struct @ z + self.f0
        res_b = self.Mb @ z[self.tpl.ith] + self.fb
        return float(res @ res + res_b @ res_b)

    def cost_grad(self, z: np.ndarray) -> np.ndarray:
        M, ith = self.tpl.M_struct, self.tpl.ith
        grad = 2.0 * (M.T @ (M @ z + self.f0))  # the same bits as (2 M') (M z + f0): doubling is exact
        grad[ith] += 2.0 * (self.Mb.T @ (self.Mb @ z[ith] + self.fb))
        return grad

    def eq_constraints(self, z: np.ndarray) -> np.ndarray:
        """Shooting gaps x_{l+1} - f(x_l, u_l)."""
        tpl = self.tpl
        x_to = z[tpl.ix_all].reshape(tpl.N, tpl.nx)
        x_from = np.vstack([self.x0, x_to[:-1]])
        return (x_to - tpl.model.step(x_from, z[tpl.iu_all].reshape(tpl.N, tpl.nu))).reshape(-1)

    def stage_jacobians(self, z: np.ndarray) -> tuple:
        """A (N, nx, nx) and B (N, nx, nu) of the step map at the N stages
        (A_0 at x0 enters no row); the template's for constant Jacobians."""
        if self.tpl.A is not None:
            return self.tpl.A, self.tpl.B
        u_seq, x_seq = self.unpack(z)[:2]
        return linearize(self.tpl.model, x_seq[:-1], u_seq)


def _projectors(s_b: float, g: np.ndarray) -> np.ndarray:
    """s_b P_g (k, d, d) of unit bearings g (k, d)."""
    return s_b * (np.eye(g.shape[1]) - g[:, :, None] * g[:, None, :])


def _instances(tpl: _Template, x0: np.ndarray, r_ref: np.ndarray, P: np.ndarray, anchors: np.ndarray, spans) -> list:
    """The instances of n problems of `tpl`, from their x0 (n, nx) and
    r_ref (n, d) and their bearings' s_b P_g (K, d, d) and anchors (K, d),
    problem i's the rows [a, b) of spans[i]."""
    d = tpl.d
    f0 = np.zeros((len(x0), len(tpl.M_struct)))
    f0[:, : tpl.nx] = x0 @ tpl.L_Q.T
    f0[:, -d:] = -tpl.s_ref * (r_ref @ tpl.L_S.T)
    fb = -(P @ anchors.reshape(-1, d, 1)).reshape(-1, d)
    Mb = [P[a:b].reshape(-1, d) for a, b in spans]
    H_thth = [tpl.H_thth + 2.0 * M.T @ M if len(M) else tpl.H_thth for M in Mb]  # shared if no bearing
    H_max = np.maximum(tpl.H_struct_max, np.abs(np.array(H_thth)).max(axis=(1, 2)))
    return [
        _Workspace(tpl, x0[i], f0[i], Mb[i], fb[a:b].reshape(-1), H_thth[i], float(H_max[i]))
        for i, (a, b) in enumerate(spans)
    ]


def _workspace(problem: OcpProblem) -> _Workspace:
    """The instance of a problem, built as a team of one on first use unless `team_problems` attached it, and kept
    on the problem (outside its fields): it lives as long as the problem, and every call on the problem shares it."""
    ws = vars(problem).get("_instance")
    if ws is None:
        tpl = _template(problem)
        g = np.reshape([g for _, g in problem.desired_bearings], (-1, tpl.d))
        anchors = np.reshape([problem.neighbor_anchors[j] for j, _ in problem.desired_bearings], (-1, tpl.d))
        ws = _instances(tpl, problem.x0[None], problem.r_ref[None], _projectors(tpl.s_b, g), anchors, [(0, len(g))])[0]
        object.__setattr__(problem, "_instance", ws)
    return ws


def _linearization(ws: _Workspace, z: np.ndarray, work: np.ndarray, c: np.ndarray | None = None) -> tuple:
    """Dynamics gaps c (unless given), stage Jacobians A and B, the sorted working set's rows (terminal last) and
    cost gradient at z."""
    G_A = ws.tpl.G[work[work < len(ws.tpl.h)]]
    if len(G_A) < len(work):
        G_A = np.vstack([G_A, ws.tpl.ineq_jacobian_row_terminal(z)])
    return (ws.eq_constraints(z) if c is None else c), *ws.stage_jacobians(z), G_A, ws.cost_grad(z)


def _solution(ws: _Workspace, z: np.ndarray, status: str, iterations: int = 0, kkt: float = math.nan) -> OcpSolution:
    u_seq, x_seq, xbar, ubar = ws.unpack(z)
    return OcpSolution(u_seq, x_seq, xbar, ubar, ws.tpl.C @ xbar, ws.cost(z), status, iterations, kkt)


def _residuals(ws: _Workspace, z: np.ndarray):
    """Largest dynamics gap and largest inequality value at z."""
    return float(np.linalg.norm(ws.eq_constraints(z), ord=np.inf)), float(np.max(ws.tpl.ineq_values(z)))


def _blocking_step(tpl: _Template, z: np.ndarray, step: np.ndarray, g: np.ndarray, g_try: np.ndarray, rows, level):
    """The fraction of `step` at which the first of `rows` reaches g = level,
    and that row.  Exact for the linear rows; along the step the terminal
    ellipsoid is a quadratic in the fraction, and its root is taken."""
    g0 = g[rows] - level
    alpha = np.zeros(len(rows))
    inside = g0 < 0.0  # a row already at or past the level blocks at once
    alpha[inside] = g0[inside] / (g0[inside] - (g_try[rows][inside] - level))
    term = np.flatnonzero(rows == len(tpl.h))
    if len(term) and inside[term[0]]:
        e, de = tpl.T_term @ z, tpl.T_term @ step
        a = float(de @ tpl.P_term @ de) / tpl.zeta_scale
        b = 2.0 * float(e @ tpl.P_term @ de) / tpl.zeta_scale
        disc = math.sqrt(b * b - 4.0 * a * g0[term[0]])
        alpha[term[0]] = -2.0 * g0[term[0]] / (b + disc) if b >= 0.0 else (disc - b) / (2.0 * a)
    k = int(np.argmin(alpha))
    return min(max(float(alpha[k]), 0.0), 1.0), int(rows[k])


def _independent_rows(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Indices of the working rows a greedy scan keeps, most active first: a
    row stays when it raises the rank of the rows kept before it.  The rows
    are the working rows reduced to w = (u, theta) on the linearised
    dynamics (`_kkt_solver`): C_x is unit block lower-bidiagonal, so
    invertible, and a reduced row raises their rank exactly when the row
    raises the rank of the equality Jacobian stacked with the kept rows."""
    keep = []
    for k in np.argsort(-g, kind="stable"):
        if np.linalg.matrix_rank(rows[keep + [k]]) > len(keep):
            keep.append(k)
    return np.sort(np.array(keep, dtype=int))


def _kkt_solver(ws: _Workspace, z: np.ndarray, lin: tuple, nu_last: np.ndarray, lam_term: float):
    """Solver of one pass's KKT system for working rows G_A step = rhs_A;
    returns (step, nu, lam) in one vector; a singular system raises LinAlgError carrying the working rows reduced to w
    as `reduced_rows`.  `soft` (0 when every row is hard) is 1/(2 rho) on each soft row, whose linearised violation
    s_i = lam_i / (2 rho) in G_i step - s_i = rhs_i bears the penalty rho s_i^2.

    The Hessian is the Lagrangian's by blocks (the cost's, then lam_term and
    nu_last times the terminal row's and the dynamics' curvature), with no u-x
    block and H_xx block-diagonal.  The shooting states are eliminated: the
    dynamics rows give dx = S du + s0 with s0 = -C_x^-1 c (`_Template.condense`),
    and theta does not enter them, so the reduced Hessian in w = (u, theta) is
    H_ww + S' H_xx S plus border terms; the factored system holds w and the
    working rows only, and the dynamics multipliers follow from
    C_x' nu = -(grad_x + H[x, :] dz + G_x' lam).

    Nothing is added to the diagonal, so each step is an exact Newton step.  None is needed: the rows L_R u_l and
    sqrt(mu) L_S theta alone make the cost's reduced Hessian >= 2 min(lambda_min(R), mu lambda_min(S_r)) I > 0 (R, S_r
    definite by CostWeights, mu > 0), lam_term >= 0 adds to it, and no small shift mends the drag model's curvature."""
    tpl = ws.tpl
    c, A, B, _, grad = lin
    Cx_inv, S = tpl.condense(A, B)
    N, nx, n_dyn, n_u, ix, w = tpl.N, tpl.nx, tpl.n_eq, tpl.N * tpl.nu, tpl.ix_all, tpl.iw
    nw = len(w)
    # K = (the reduced Hessian, its gradient) as a map of (dw, 1), from H_ww
    K = np.zeros((nw, nw + 1))
    l = np.arange(N)
    K[:n_u, :n_u].reshape(N, tpl.nu, N, tpl.nu)[l, :, l] = tpl.H_uu  # a view: H_uu[l] at (u_l, u_l)
    K[n_u:, n_u:nw] = ws.H_thth
    H_xx, H_xth, H_thx = tpl.H_xx.copy(), tpl.H_xth.reshape(n_dyn, -1), tpl.H_thx
    if lam_term:  # the terminal row's curvature, on x_N - xbar = x_N - E theta
        W, E = lam_term * tpl.W_term, tpl.E
        H_xth, H_thx = H_xth.copy(), H_thx.copy()
        H_xx[-1] += W
        H_xth[-nx:] -= W @ E
        H_thx[:, -nx:] -= E.T @ W
        K[n_u:, n_u:nw] += E.T @ W @ E
    if not tpl.model.constant_jacobians:
        # row block l is c = x_{l+1} - f(x_l, u_l): nu . d2c/dz2 is minus the model's
        # nu-weighted curvature at x_1 .. x_{N-1} (x_0 is a parameter, x_N enters linearly)
        H_xx[:-1] -= tpl.model.state_curvature(z[ix].reshape(N, nx)[:-1], nu_last.reshape(N, nx)[1:])
    T = np.zeros((n_dyn, nw + 1))  # dx = T (dw, 1)
    T[:, :n_u] = S
    T[:, nw] = -(Cx_inv @ c)
    HT = (H_xx @ T.reshape(N, nx, -1)).reshape(n_dyn, -1)  # (H[x, :] dz, grad_x) as a map of (dw, 1)
    HT[:, n_u:nw] += H_xth
    HT[:, nw] += grad[ix]
    K[:, nw] = grad[w]
    K[:n_u] += S.T @ HT
    K[n_u:] += H_thx @ T

    def solve(G_A, rhs_A, soft=0.0):
        G_r = G_A[:, ix] @ T
        G_r[:, :nw] += G_A[:, w]
        m = nw + len(G_A)
        KKT = np.zeros((m, m))
        KKT[:nw, :nw], KKT[:nw, nw:], KKT[nw:, :nw] = K[:, :nw], G_r[:, :nw].T, G_r[:, :nw]
        if np.ndim(soft):
            KKT[nw:, nw:][np.diag_indices(len(G_A))] = -soft
        try:
            red = np.linalg.solve(KKT, np.concatenate([-K[:, nw], rhs_A - G_r[:, nw]]))
        except np.linalg.LinAlgError as err:
            err.reduced_rows = G_r[:, :nw]  # what `_independent_rows` ranks
            raise
        dw1 = np.append(red[:nw], 1.0)
        nu = -(Cx_inv.T @ (HT @ dw1 + G_A[:, ix].T @ red[nw:]))
        return np.concatenate([red[:n_u], T @ dw1, red[n_u:nw], nu, red[nw:]])

    return solve


def _kkt_residual(tpl: _Template, lin: tuple, mult: np.ndarray) -> float:
    """||grad f + C_J' nu + G_A' lam||_inf at a linearised point; mult = (nu, lam).
    C_J' nu is taken by stage: -B_l' nu_l on u_l, and nu_{l-1} - A_l' nu_l on x_l."""
    _, A, B, G_A, grad = lin
    nu = mult[: tpl.n_eq].reshape(tpl.N, tpl.nx)
    res = grad + G_A.T @ mult[tpl.n_eq :]
    res[tpl.iu_all] -= (nu[:, None] @ B).reshape(-1)
    res_x = res[tpl.ix_all].reshape(tpl.N, tpl.nx)
    res_x += nu
    res_x[:-1] -= (nu[1:, None] @ A[1:])[:, 0]
    return float(np.linalg.norm(res, ord=np.inf))


# passes a working set is held, once a point has passed, before the best
# passing point is taken instead of waiting for machine precision
REFINE_PASSES = 6
# the working tolerance of the active set (EXPAND: Gill, Murray, Saunders &
# Wright, Math. Programming 1989), as fractions of the backoff taken in turn,
# one per pass: it doubles while below one half, then starts again
EXPAND_STEPS = (0.05, 0.1, 0.2, 0.4)


def _active_set(ws: _Workspace, z: np.ndarray, c: np.ndarray, g: np.ndarray, opts: SqpOptions):
    """Primal active-set SQP from z, its gaps c and values g.

    Each pass is one Newton step, with multipliers (nu, lam), on the KKT
    system of the cost, the linearised dynamics and the working set, whose
    rows are held at g = -backoff.  A row whose lam is negative leaves the
    set once it is within the working tolerance delta of -backoff, and so
    does a row that the dynamics and the other rows already fix; the step
    is then solved again.  A step that would raise a row outside the set past
    -backoff + delta stops where the first such row reaches that level, and
    the row joins; a row already above the level (one that a restart of
    delta or a dependent pair left there) blocks at once, but only when the
    step raises it.  delta grows every pass (EXPAND_STEPS), so a row that
    left stays clear of the level for the next step, and no step is cut to
    zero length over and over at a degenerate point; every delta stays below
    backoff / 2, so each accepted point is strictly feasible.  The Hessian is
    the Lagrangian's: the terminal row (the only curved inequality) and the
    dynamics add their curvature, weighted by the last KKT solve's lam and
    nu, but a solve with soft rows passes on no dynamics curvature (their
    penalty inflates nu).  Each KKT system is condensed (`_kkt_solver`).  A
    working row above SOFT_LEVEL * backoff is held softly, by a penalty
    rho s^2 on its linearised violation s (curvature weight
    2 rho (g_term + backoff) on the terminal row); a step that leaves more
    than 1 - STALL of the soft rows' violation raises OcpInfeasibleError.

    A stepped point passes when it is feasible, its dynamics gap is small,
    no lam is negative and its stationarity residual with (nu, lam) is
    small; the next pass reuses its linearisation.  Passing at 1e-2 of the
    tolerance ends the loop; otherwise passes go on, and the best passing
    point is taken once the working set has been held for REFINE_PASSES.
    Passes that run out report the residual at the last point.  Returns
    (z, kkt_residual, passes, solved).
    """
    tpl = ws.tpl
    nz = tpl.nz
    n_eq = tpl.n_eq
    term_idx = tpl.G.shape[0]
    soft_level = SOFT_LEVEL * opts.backoff
    rho = PENALTY * max(1.0, ws.H_max)
    work = np.flatnonzero(g >= -opts.backoff - 1e-9)
    mult = np.zeros(n_eq + len(work))  # (nu, lam) of the last KKT solve
    nu_curv = mult[:n_eq]  # the nu that weights the dynamics' curvature
    lam_term = 0.0
    best = None
    held = 0
    lin = _linearization(ws, z, work, c)
    for passes in range(1, opts.max_iter + 1):
        delta = EXPAND_STEPS[(passes - 1) % len(EXPAND_STEPS)] * opts.backoff
        G_A = lin[3]
        if len(work) and work[-1] == term_idx and g[-1] > soft_level:
            lam_term = 2.0 * rho * (g[-1] + opts.backoff)
        kkt_solve = None  # the last pass's condensing goes before this one's is built
        kkt_solve = _kkt_solver(ws, z, lin, nu_curv, lam_term)
        any_soft = float(np.max(g)) > soft_level
        while True:
            nA = len(work)
            soft = np.where(g[work] > soft_level, 0.5 / rho, 0.0) if any_soft else 0.0
            try:
                sol = kkt_solve(G_A, -(g[work] + opts.backoff), soft)
                lam = sol[nz + n_eq :]
                keep = np.flatnonzero(~((lam < -1e-9) & (g[work] + opts.backoff <= delta)))
            except np.linalg.LinAlgError as err:
                # a singular KKT matrix: some working rows depend on the others
                keep = _independent_rows(err.reduced_rows, g[work])
                if len(keep) == nA:
                    raise NumericalBreakdownError("singular KKT matrix with independent working rows") from None
            if len(keep) == nA:
                break
            work, G_A = work[keep], G_A[keep]
            held = 0
        if np.ndim(soft):
            violation = float(np.sum(g[work][soft > 0.0] + opts.backoff))
            if float(soft @ lam) > (1.0 - STALL) * violation:
                raise OcpInfeasibleError(f"constraint violation stalls at {violation:.3e} after {passes} passes",
                                         _solution(ws, z, "infeasible", passes))
        mult = sol[nz:]
        # a soft row's lam = 2 rho s inflates nu by up to rho, and that nu times the drag model's curvature makes the
        # reduced Hessian indefinite, so that working rows leave and join over and over with steps of zero length:
        # a pass after a solve with soft rows takes no dynamics curvature (a Gauss-Newton step)
        nu_curv = np.zeros(n_eq) if any_soft else mult[:n_eq]
        # the working rows stay sorted, so the terminal row is the last one
        lam_term = max(float(lam[-1]), 0.0) if nA and work[-1] == term_idx else 0.0
        step = sol[:nz]
        z_try = z + step
        g_try = tpl.ineq_values(z_try)
        level = delta - opts.backoff
        rising = (g_try > level) & (g_try > g)
        rising[work] = False  # only rows outside the working set block
        blocking = np.flatnonzero(rising)
        if len(blocking):
            alpha, row = _blocking_step(tpl, z, step, g, g_try, blocking, level)
            z = z + alpha * step
            g = tpl.ineq_values(z)
            work = np.union1d(work, [row])
            lin = _linearization(ws, z, work)
            mult = np.insert(mult, n_eq + int(np.searchsorted(work, row)), 0.0)  # it joins at lam = 0
            held = 0
            continue
        # judge the stepped point with the multipliers that stepped there;
        # the next pass starts from the same linearisation
        lin = _linearization(ws, z_try, work)
        kkt = _kkt_residual(tpl, lin, mult)
        eq_try = float(np.linalg.norm(lin[0], ord=np.inf))
        if (
            eq_try <= opts.tol_equality
            and kkt <= opts.tol_stationarity
            and bool(np.all(lam >= -1e-9))
            and float(np.max(g_try)) <= 1e-12
        ):
            # good enough, but another pass usually reaches machine precision
            if kkt <= 1e-2 * opts.tol_stationarity:
                return z_try, kkt, passes, True
            if best is None or kkt < best[1]:
                best = (z_try, kkt)
        # nonlinearity left a residual; take another Newton pass from here
        z = z_try
        g = g_try
        held += 1
        if best is not None and held >= REFINE_PASSES:
            break
    if best is not None:
        return best[0], best[1], passes, True
    return z, _kkt_residual(tpl, lin, mult), passes, False


def solve_ocp(problem: OcpProblem, warm: OcpSolution | None = None, options: SqpOptions | None = None) -> OcpSolution:
    """Solve the tracking problem; returns a strictly feasible local optimum.

    Starts from `warm` when it is near-feasible (dynamics gaps at most
    WARM_GAP, no row above SOFT_LEVEL * backoff), and otherwise from a cold
    start that holds position; the primal active-set SQP (`_active_set`)
    solves from there.  The status is "solved" when a point passed its
    stopping test and "max-iter" when the passes ran out at a feasible
    point; `iterations` counts the Newton passes.

    Raises OcpInfeasibleError when the soft rows' violation stalls, or when
    the passes run out at an infeasible point.
    """
    opts = options or SqpOptions()
    ws = _workspace(problem)
    tpl = ws.tpl
    if warm is not None and ws.handoff[0] is warm:  # shift_warm_start's candidate: its check evaluated it
        z, c, g = ws.handoff[1:]
    else:
        z = _cold_start_vector(problem, tpl) if warm is None else tpl.pack(warm.u_seq, warm.x_seq, warm.xbar, warm.ubar)
        c, g = ws.eq_constraints(z), tpl.ineq_values(z)
    if warm is not None and not (np.linalg.norm(c, ord=np.inf) <= WARM_GAP and np.max(g) <= SOFT_LEVEL * opts.backoff):
        z = _cold_start_vector(problem, tpl)
        c, g = ws.eq_constraints(z), tpl.ineq_values(z)
    z, kkt, passes, solved = _active_set(ws, z, c, g, opts)
    solution = _solution(ws, z, "solved" if solved else "max-iter", passes, kkt)
    if not solved:
        eq_res, max_g = _residuals(ws, z)
        if eq_res > opts.tol_equality or max_g > 1e-12:
            solution.status = "infeasible"
            raise OcpInfeasibleError(
                f"no feasible point after {passes} passes (eq {eq_res:.3e}, ineq {max_g:.3e})", solution
            )
    return solution


def _cold_start_vector(problem: OcpProblem, tpl: _Template) -> np.ndarray:
    """Hold at the current position: steady pair there, local controller rollout."""
    model = problem.model
    ts = problem.terminal
    p0 = model.C @ problem.x0
    steady = ts.translated_steady(model, p0)
    u_seq = np.zeros((tpl.N, tpl.nu))
    x_seq = np.zeros((tpl.N + 1, tpl.nx))
    x_seq[0] = problem.x0
    lo, hi = model.input_bounds.lower, model.input_bounds.upper
    for l in range(tpl.N):
        u = steady.u + ts.K @ (x_seq[l] - steady.x)
        u_seq[l] = np.clip(u, lo, hi)
        x_seq[l + 1] = model.step(x_seq[l], u_seq[l])
    return tpl.pack(u_seq, x_seq, steady.x, steady.u)


def cold_start(problem: OcpProblem) -> OcpSolution:
    """Initial guess holding position; not verified against constraints."""
    ws = _workspace(problem)
    return _solution(ws, _cold_start_vector(problem, ws.tpl), "candidate")


def shift_warm_start(problem: OcpProblem, prev: OcpSolution) -> OcpSolution:
    """One-step shifted candidate, with the terminal controller appended.

    The candidate must satisfy every constraint of the new problem; a
    violation is raised, since with unchanged dynamics it certifies loss of
    recursive feasibility.  The check's point, gaps and inequality values stay on the problem's
    instance for `solve_ocp`; they and the candidate's arrays are read-only, so they cannot go stale.
    """
    ws = _workspace(problem)
    ws.tpl.check_shapes(prev.u_seq, prev.x_seq, prev.xbar)
    N = problem.horizon
    kappa = prev.ubar + problem.terminal.K @ (prev.x_seq[N] - prev.xbar)
    x_last = problem.model.step(prev.x_seq[N], kappa)
    z = ws.tpl.pack(np.vstack([prev.u_seq[1:], kappa]), np.vstack([prev.x_seq[1:], x_last]), prev.xbar, prev.ubar)
    c, g = ws.eq_constraints(z), ws.tpl.ineq_values(z)
    eq_res, max_g = float(np.linalg.norm(c, ord=np.inf)), float(np.max(g))
    if eq_res > 1e-7:
        raise RecursiveFeasibilityError(f"candidate dynamics residual {eq_res:.3e}")
    if max_g > 1e-9:
        raise RecursiveFeasibilityError(f"candidate constraint violation {max_g:.3e}")
    candidate = _solution(ws, z, "candidate")
    for a in (candidate.u_seq, candidate.x_seq, candidate.xbar, candidate.ubar, z, c, g):
        a.setflags(write=False)
    ws.handoff = (candidate, z, c, g)
    return candidate


def solution_feasibility(problem: OcpProblem, sol: OcpSolution) -> dict:
    """Residual summary used by tests and the simulation harness."""
    ws = _workspace(problem)
    eq_res, max_g = _residuals(ws, ws.tpl.pack(sol.u_seq, sol.x_seq, sol.xbar, sol.ubar))
    return {
        "dynamics": eq_res,
        "inequality": max_g,
        "setpoint": float(np.linalg.norm(sol.rbar - problem.model.C @ sol.xbar)),
    }


def offset_optimum(problem: OcpProblem) -> np.ndarray:
    """Minimizer of the steady-state cost over the feasible setpoints.

    The reduced cost mu*(r - r_ref)'S_r(r - r_ref) + (1-mu)*bearing_cost(r)
    is a positive definite quadratic in the plane, so the optimum is either
    its unconstrained minimum or lies on an edge of the setpoint polygon;
    both cases are solved in closed form.
    """
    w = problem.weights
    mu = w.mu
    W = mu * w.S_r
    q = mu * w.S_r @ problem.r_ref
    coef = (1.0 - mu) * w.w_b
    for j, g in problem.desired_bearings:
        Pg = bearing_projector(g)
        W = W + coef * Pg
        q = q + coef * Pg @ np.asarray(problem.neighbor_anchors[j], dtype=float)
    r_free = np.linalg.solve(W, q)
    region = problem.setpoint_region
    if region is None or region.contains(r_free, tol=1e-12):
        return r_free

    def value(r):
        return float(r @ W @ r - 2.0 * q @ r)

    verts = region.vertices
    k = len(verts)
    best, best_val = None, np.inf
    for idx in range(k):
        a, b = verts[idx], verts[(idx + 1) % k]
        d = b - a
        denom = float(d @ W @ d)
        if denom > 1e-300:
            t = float(q @ d - a @ W @ d) / denom
            t = min(max(t, 0.0), 1.0)
        else:
            t = 0.0
        for cand in (a + t * d, a, b):
            val = value(cand)
            if val < best_val:
                best, best_val = cand, val
    return np.asarray(best)


def mpc_step(problem: OcpProblem, warm: OcpSolution | None = None, options: SqpOptions | None = None):
    """Solve and return the first input with the full solution."""
    sol = solve_ocp(problem, warm=warm, options=options)
    return sol.u_seq[0].copy(), sol
