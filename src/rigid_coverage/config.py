"""Simulation configuration: JSON schema, parsing, validation.

A config file is a single JSON object:

  region    list of CCW vertices of a convex polygon
  density   {"type": "uniform"}
            {"type": "gaussian", "components": [{"mean", "cov_diag", "weight"}]}
            {"type": "grid", "values": [[...]], "lo": [x,y], "hi": [x,y]}
  robots    {"model": "double_integrator" | "drag_double_integrator",
             "h", "u_max", "v_max", ["drag"],
             "initial_positions": [[x,y], ...],
             ["initial_velocities": [[vx,vy], ...]]}
            or a list of per-robot {"model", "h", ..., "position", ["velocity"]}
  graph     {"n", "edges": [[i,j], ...]}  or  {"generate": {"n", ["seed"], ["split_prob"]}}
  mpc       {"horizon", ["solver": {...}], and either a nested
             "weights": {"Q", "R", "S_r", "w_b", "mu"} block or the same
             keys inline}
  terminal  {["Q"], ["R"], ["c_fraction"]}
  faults    [{"at_step", "robot"}, ...]
  steps     number of control steps
  seed      global seed (graph generation)
  epsilon   inward shrink margin for the feasible-setpoint polygon

Matrix-valued entries (Q, R, S_r) accept a scalar (multiple of identity),
a list (diagonal), or a nested list (full matrix, which must be symmetric).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coverage import (
    GaussianComponent,
    GaussianMixtureDensity,
    GridDensity,
    UniformDensity,
)
from .dynamics import DoubleIntegrator, DragDoubleIntegrator
from .errors import InvalidInputError, _integer
from .geometry import ConvexRegion, parse_points
from .graphs import Graph, graph_from_dict, henneberg_generate, laman_check
from .mpc import CostWeights, SqpOptions

MIN_INITIAL_SEPARATION = 1e-7


@dataclass(frozen=True)
class FaultEvent:
    at_step: int
    robot: int

    def __post_init__(self):
        if self.at_step < 0:
            raise InvalidInputError("fault step must be non-negative")
        if self.robot < 0:
            raise InvalidInputError("fault robot id must be non-negative")


@dataclass(frozen=True)
class TerminalOptions:
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    c_fraction: float = 0.5


@dataclass(frozen=True)
class SimConfig:
    region: ConvexRegion
    density: object
    models: tuple
    initial_states: np.ndarray  # (n, n_x)
    graph: Graph
    horizon: int
    weights: CostWeights
    epsilon: float
    terminal: TerminalOptions
    steps: int
    faults: tuple = ()
    seed: int = 0
    solver: SqpOptions = field(default_factory=SqpOptions)

    @property
    def n_robots(self) -> int:
        return len(self.models)


def _number(value, name: str) -> float:
    """A real scalar config entry; booleans and strings are rejected, not
    converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


def _floats(value, name: str) -> np.ndarray:
    """A float array from a config entry; InvalidInputError if not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be numeric: {exc}") from exc


def _block(data: dict, key: str, where: str = "") -> dict:
    """The optional object entry data[key]; {} when it is absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise InvalidInputError(f"{where}{key} must be an object, got {value!r}")
    return value


def _check_keys(block: dict, allowed, what: str):
    """Reject the keys of block that name no field in allowed."""
    unknown = set(block) - set(allowed)
    if unknown:
        raise InvalidInputError(f"unknown {what} {sorted(unknown)}")


def _array(block, key: str, where: str) -> np.ndarray:
    """The required entry block[key] as a float array."""
    if not isinstance(block, dict) or key not in block:
        raise InvalidInputError(f"{where} needs a {key!r} field")
    return _floats(block[key], f"{where} {key}")


def _parse_region(value) -> ConvexRegion:
    """The workspace polygon of a config's "region" entry."""
    try:
        vertices = parse_points(value)
    except InvalidInputError as exc:
        raise InvalidInputError(f"region: {exc}") from exc
    return ConvexRegion(vertices)


def _as_matrix(value, size: int, name: str) -> np.ndarray:
    arr = _floats(value, name)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    if arr.ndim == 0:
        return float(arr) * np.eye(size)
    if arr.ndim == 1:
        if arr.shape != (size,):
            raise InvalidInputError(f"{name} diagonal must have length {size}")
        return np.diag(arr)
    if arr.shape != (size, size):
        raise InvalidInputError(f"{name} must be {size}x{size}")
    return arr


def _parse_density(block) -> object:
    if block is None:
        return UniformDensity()
    if not isinstance(block, dict) or "type" not in block:
        raise InvalidInputError("density must be an object with a 'type' field")
    kind = block["type"]
    if kind == "uniform":
        return UniformDensity()
    if kind == "gaussian":
        comps = block.get("components")
        if comps is None:
            comps = [block]
        if not isinstance(comps, list):
            raise InvalidInputError("gaussian density components must be a list")
        parsed = []
        for comp in comps:
            parsed.append(
                GaussianComponent(
                    mean=_array(comp, "mean", "gaussian density"),
                    cov_diag=_array(comp, "cov_diag", "gaussian density"),
                    weight=_number(comp.get("weight", 1.0), "gaussian density weight"),
                )
            )
        return GaussianMixtureDensity(tuple(parsed))
    if kind == "grid":
        return GridDensity(
            values=_array(block, "values", "grid density"),
            lo=_array(block, "lo", "grid density"),
            hi=_array(block, "hi", "grid density"),
        )
    raise InvalidInputError(f"unknown density type {kind!r}")


def _build_model(kind, params: dict):
    if isinstance(kind, dict):
        # nested form: "model": {"type": ..., "h": ..., ...}
        params = kind
        kind = params.get("type", "double_integrator")
    common = dict(
        h=_number(params.get("h", 0.1), "h"),
        u_max=_number(params.get("u_max", 1.0), "u_max"),
        v_max=_number(params.get("v_max", 0.5), "v_max"),
    )
    if kind == "double_integrator":
        return DoubleIntegrator(**common)
    if kind == "drag_double_integrator":
        return DragDoubleIntegrator(drag=_number(params.get("drag", 0.5), "drag"), **common)
    raise InvalidInputError(f"unknown robot model {kind!r}")


def _parse_robots(block):
    if isinstance(block, dict):
        positions = _floats(block.get("initial_positions", []), "robots.initial_positions")
        if positions.ndim != 2 or positions.shape[0] < 1 or positions.shape[1] != 2:
            raise InvalidInputError("robots.initial_positions must be a non-empty list of [x, y]")
        n = positions.shape[0]
        velocities = block.get("initial_velocities")
        if velocities is None:
            velocities = np.zeros_like(positions)
        else:
            velocities = _floats(velocities, "robots.initial_velocities")
            if velocities.shape != positions.shape:
                raise InvalidInputError("initial_velocities must match initial_positions in shape")
        model = _build_model(block.get("model", "double_integrator"), block)
        models = tuple(model for _ in range(n))
    elif isinstance(block, list) and block:
        models, pos_rows, vel_rows = [], [], []
        for k, entry in enumerate(block):
            position = _array(entry, "position", "each robot")
            velocity = _floats(entry.get("velocity", [0.0, 0.0]), "robot velocity")
            for name, value in (("position", position), ("velocity", velocity)):
                if value.shape != (2,):
                    raise InvalidInputError(f"robot {k} {name} must be [x, y], got shape {value.shape}")
            pos_rows.append(position)
            vel_rows.append(velocity)
            models.append(_build_model(entry.get("model", "double_integrator"), entry))
        positions = np.vstack(pos_rows)
        velocities = np.vstack(vel_rows)
        models = tuple(models)
    else:
        raise InvalidInputError("robots must be an object or a non-empty list")
    for name, values in (("position", positions), ("velocity", velocities)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            raise InvalidInputError(f"initial {name} of robot {bad[0]} is not finite: {values[bad[0]].tolist()}")
    steps = {m.h for m in models}
    if len(steps) > 1:
        raise InvalidInputError("all robots must share the same sampling time h")
    states = np.hstack([positions, velocities])
    return models, states


def _parse_graph(block, n: int, fallback_seed: int) -> Graph:
    if not isinstance(block, dict):
        raise InvalidInputError("graph must be an object")
    if "generate" in block:
        gen = block["generate"]
        if not isinstance(gen, dict):
            raise InvalidInputError("graph.generate must be an object")
        g_n = _integer(gen.get("n", n), "graph.generate.n")
        if g_n != n:
            raise InvalidInputError(f"graph.generate.n = {g_n} does not match robot count {n}")
        seed = _integer(gen.get("seed", fallback_seed), "graph.generate.seed")
        split = _number(gen.get("split_prob", 0.5), "graph.generate.split_prob")
        return henneberg_generate(g_n, seed, split_probability=split).graph
    return graph_from_dict(block)


def config_from_dict(data: dict) -> SimConfig:
    """Parse and validate a config dictionary; raises InvalidInputError."""
    if not isinstance(data, dict):
        raise InvalidInputError("config root must be a JSON object")
    for key in ("region", "robots", "steps"):
        if key not in data:
            raise InvalidInputError(f"config is missing required field {key!r}")

    region = _parse_region(data["region"])
    density = _parse_density(data.get("density"))
    models, states = _parse_robots(data["robots"])
    n = len(models)
    seed = _integer(data.get("seed", 0), "seed")

    positions = states[:, :2]
    for i, p in enumerate(positions):
        if not region.contains(p, tol=1e-9):
            raise InvalidInputError(f"initial position of robot {i} lies outside the region")
    gaps = np.linalg.norm(positions[:, None] - positions[None], axis=2)
    close_i, close_j = np.nonzero(np.triu(gaps < MIN_INITIAL_SEPARATION, k=1))
    if len(close_i):  # nonzero lists pairs in lexicographic order
        raise InvalidInputError(f"robots {close_i[0]} and {close_j[0]} start at coincident positions")
    for i, (model, x) in enumerate(zip(models, states)):
        if not model.state_bounds.contains(x, tol=1e-9):
            raise InvalidInputError(f"initial velocity of robot {i} violates its bounds")

    graph_block = data.get("graph")
    if graph_block is None:
        if n == 1:
            graph = Graph(1, frozenset())
        else:
            raise InvalidInputError("config is missing required field 'graph'")
    else:
        graph = _parse_graph(graph_block, n, seed)
    if graph.n != n:
        raise InvalidInputError(f"graph has {graph.n} vertices but there are {n} robots")
    if n >= 2:
        verdict = laman_check(graph)
        if not verdict:
            detail = ""
            if verdict.violating_subset is not None:
                detail = f" (violating subset {sorted(verdict.violating_subset)})"
            raise InvalidInputError("graph is not minimally rigid" + detail)

    mpc_block = _block(data, "mpc")
    horizon = _integer(mpc_block.get("horizon", 10), "mpc.horizon", least=1)
    n_x = models[0].n_x
    n_u = models[0].n_u
    # weight entries live either in a nested "weights" block or flat in "mpc"
    w_block = _block(mpc_block, "weights", "mpc.") if "weights" in mpc_block else mpc_block
    weights = CostWeights(
        Q=_as_matrix(w_block.get("Q", 1.0), n_x, "Q"),
        R=_as_matrix(w_block.get("R", 1.0), n_u, "R"),
        S_r=_as_matrix(w_block.get("S_r", 1.0), models[0].dim, "S_r"),
        w_b=_number(w_block.get("w_b", 1.0), "w_b"),
        mu=_number(w_block.get("mu", 1.0), "mu"),
    )
    solver_block = _block(mpc_block, "solver", "mpc.")
    _check_keys(solver_block, SqpOptions.__dataclass_fields__, "solver options")
    solver = SqpOptions(**solver_block)

    term_block = _block(data, "terminal")
    _check_keys(term_block, TerminalOptions.__dataclass_fields__, "terminal options")
    terminal = TerminalOptions(
        Q=None if "Q" not in term_block else _as_matrix(term_block["Q"], n_x, "terminal Q"),
        R=None if "R" not in term_block else _as_matrix(term_block["R"], n_u, "terminal R"),
        c_fraction=_number(term_block.get("c_fraction", 0.5), "terminal.c_fraction"),
    )
    if not 0.0 < terminal.c_fraction < 1.0:
        raise InvalidInputError(f"terminal.c_fraction must lie in (0, 1), got {terminal.c_fraction}")

    steps = _integer(data["steps"], "steps", least=1)

    epsilon = _number(data.get("epsilon", 0.02), "epsilon")
    if not epsilon >= 0:
        raise InvalidInputError("epsilon must be non-negative")
    try:
        region.shrink(epsilon)
    except InvalidInputError as exc:
        raise InvalidInputError(f"epsilon {epsilon} leaves an empty setpoint region") from exc

    faults = []
    for entry in data.get("faults", []):
        if not isinstance(entry, dict) or "at_step" not in entry or "robot" not in entry:
            raise InvalidInputError("each fault needs 'at_step' and 'robot' fields")
        faults.append(
            FaultEvent(at_step=_integer(entry["at_step"], "at_step"), robot=_integer(entry["robot"], "robot"))
        )
    faults.sort(key=lambda f: f.at_step)
    seen_steps = [f.at_step for f in faults]
    if len(set(seen_steps)) != len(seen_steps):
        raise InvalidInputError("at most one fault per step is supported")
    alive = set(range(n))
    for f in faults:
        if f.at_step >= steps:
            raise InvalidInputError(f"fault at step {f.at_step} is beyond the run of {steps} steps")
        if f.robot not in alive:
            raise InvalidInputError(f"fault removes unknown or already-removed robot {f.robot}")
        alive.discard(f.robot)
        if not alive:
            raise InvalidInputError("faults would remove every robot")

    return SimConfig(
        region=region,
        density=density,
        models=models,
        initial_states=states,
        graph=graph,
        horizon=horizon,
        weights=weights,
        epsilon=epsilon,
        terminal=terminal,
        steps=steps,
        faults=tuple(faults),
        seed=seed,
        solver=solver,
    )


def _load_json_file(path: str, what: str):
    """Read a JSON file; a missing file or invalid JSON surfaces as InvalidInputError naming it as `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_config(path: str) -> SimConfig:
    """Read a JSON config file; parse errors surface as InvalidInputError."""
    return config_from_dict(_load_json_file(path, "config"))
