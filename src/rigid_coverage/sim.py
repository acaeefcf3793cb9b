"""Closed-loop coverage simulation with fault injection and trace export.

The loop keeps a centralized layer (Voronoi partition, centroid references,
desired bearings, recovery plan) and a decentralized layer (per-robot
tracking solves, which only read an immutable snapshot and may run in
parallel).  Each step first handles a fault, if one falls on it (repair the
graph, drop the robot, rebuild the recovery plan), then builds one Voronoi
partition of the current positions.  The coverage cost H of every step and,
at update steps, the centroid references come from that one partition and
its one quadrature pass.  References are recomputed at the first step, at
fault steps and when every robot has closed in on its reference.  Desired
bearings are captured from the reference configuration when the topology is
(re)built and held constant in between, so that bearing maintenance has a
fixed geometric target.

Robot identity: original ids 0..n0-1 never change; graph vertices always
correspond to the currently alive robots in ascending original-id order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SimConfig
from .coverage import centroid, coverage_cost, partition_update_due, voronoi_partition
from .errors import InvalidInputError, NumericalBreakdownError
from .graphs import laman_check
from .mpc import OcpProblem, shift_warm_start, solve_ocp
from .recovery import RecoveryPlan, apply_recovery, build_recovery_plan
from .rigidity import (
    Configuration,
    Framework,
    bearing_function,
    is_infinitesimally_bearing_rigid,
    rigidity_rank,
)
from .terminal import build_terminal_set

THREADS_ENV_VAR = "RIGID_COVERAGE_THREADS"


@dataclass
class StepRecord:
    """Snapshot of one control step, taken before the inputs are applied."""

    k: int
    robot_ids: tuple[int, ...]
    states: np.ndarray  # (n, n_x)
    references: np.ndarray  # (n, d)
    errors: np.ndarray  # (n,)
    desired_bearings: dict  # (orig_i, orig_j) with i < j -> unit vector i -> j
    inputs: np.ndarray  # (n, n_u) applied at this step
    costs: np.ndarray  # (n,) optimal values
    coverage_cost: float
    bearing_error: float
    rigidity_rank: int
    updated: bool
    solver_iterations: tuple[int, ...]
    solver_kkt: tuple[float, ...]


@dataclass
class SimTrace:
    records: list
    events: list
    summary: dict


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None or raw.strip() == "":
        return 0
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise InvalidInputError(f"{THREADS_ENV_VAR} must be non-negative")
    return value


def _bearing_map(graph, points: np.ndarray) -> dict:
    """Canonical-edge bearings of a point configuration, keyed by local edge."""
    if graph.m == 0:
        return {}
    bv = bearing_function(Framework(graph, Configuration(points)))
    return {edge: bv.bearings[idx].copy() for idx, edge in enumerate(bv.edge_order)}


def _directed_bearing(bearings: dict, i: int, j: int) -> np.ndarray:
    return bearings[(i, j)] if i < j else -bearings[(j, i)]


def _aggregate_bearing_error(bearings_desired: dict, graph, positions: np.ndarray) -> float:
    if not bearings_desired:
        return 0.0
    current = _bearing_map(graph, positions)
    total = 0.0
    for edge, g_des in bearings_desired.items():
        diff = current[edge] - g_des
        total += float(diff @ diff)
    return total


def _solve_one(problem: OcpProblem, prev, options):
    warm = shift_warm_start(problem, prev) if prev is not None else None
    return solve_ocp(problem, warm=warm, options=options)


def run(config: SimConfig) -> SimTrace:
    """Execute the closed loop and return the full trace."""
    region = config.region
    density = config.density
    weights = config.weights
    quad = config.quad_order
    shrunk = region.shrink(config.epsilon)
    n0 = config.n_robots

    term_Q = weights.Q if config.terminal.Q is None else config.terminal.Q
    term_R = weights.R if config.terminal.R is None else config.terminal.R
    ts_cache: dict = {}

    def terminal_for(orig_id: int):
        model = config.models[orig_id]
        if model not in ts_cache:
            ts_cache[model] = build_terminal_set(
                model,
                term_Q,
                term_R,
                c_fraction=config.terminal.c_fraction,
                n_directions=config.terminal.n_directions,
                seed=config.terminal.seed,
                stage_Q=weights.Q,
                stage_R=weights.R,
            )
        return ts_cache[model]

    alive = list(range(n0))
    states = config.initial_states.copy()
    graph = config.graph
    plan = build_recovery_plan(graph) if graph.n >= 2 else RecoveryPlan({})
    faults_by_step = {f.at_step: f for f in config.faults}

    refs: np.ndarray | None = None
    errors: np.ndarray | None = None
    g_des: dict = {}
    prev_sols: list = [None] * n0
    records: list = []
    events: list = []
    n_updates = 0
    threads = _thread_count()

    for k in range(config.steps):
        fault = faults_by_step.get(k)
        rebuilt = fault is not None or refs is None  # the topology is new
        if fault is not None:
            jf = alive.index(fault.robot)
            entry = plan.for_loss(jf)
            new_edges = entry.new_edges if entry is not None else frozenset()
            hub = entry.contraction_vertex if entry is not None else None
            event = {
                "at_step": k,
                "robot": fault.robot,
                "new_edges": sorted([alive[a], alive[b]] for a, b in new_edges),
                "contraction_vertex": None if hub is None else alive[hub],
            }
            graph = apply_recovery(graph, jf, new_edges)
            alive.pop(jf)
            states = np.delete(states, jf, axis=0)
            prev_sols.pop(jf)
            plan = build_recovery_plan(graph) if graph.n >= 2 else RecoveryPlan({})
            if graph.n >= 2:
                event["edge_count"] = graph.m
                event["laman"] = bool(laman_check(graph))
                event["rigid"] = is_infinitesimally_bearing_rigid(
                    Framework(graph, Configuration(states[:, :2]))
                )
            else:
                event["edge_count"] = 0
                event["laman"] = None
                event["rigid"] = None
            events.append(event)

        positions = states[:, :2]
        partition = voronoi_partition(positions, region)
        updated = rebuilt or partition_update_due(positions, refs, errors)
        if updated:
            refs = centroid(partition, density, quad)
            errors = np.linalg.norm(positions - refs, axis=1)
            n_updates += 1
        if rebuilt:
            g_des = _bearing_map(graph, refs)
        H = coverage_cost(positions, partition, density, quad)
        bearing_err = _aggregate_bearing_error(g_des, graph, positions)
        if graph.n >= 2:
            rank = rigidity_rank(Framework(graph, Configuration(positions))).rank
        else:
            rank = 0

        problems = []
        for li, oid in enumerate(alive):
            neigh = graph.neighbors(li)
            problems.append(
                OcpProblem(
                    model=config.models[oid],
                    horizon=config.horizon,
                    weights=weights,
                    terminal=terminal_for(oid),
                    x0=states[li],
                    r_ref=refs[li],
                    desired_bearings=tuple((j, _directed_bearing(g_des, li, j)) for j in neigh),
                    neighbor_anchors={j: refs[j] for j in neigh},
                    setpoint_region=shrunk,
                    steady_margin=config.epsilon,
                )
            )
        if threads > 0:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [
                    pool.submit(_solve_one, prob, prev, config.solver)
                    for prob, prev in zip(problems, prev_sols)
                ]
                sols = [f.result() for f in futures]
        else:
            sols = [
                _solve_one(prob, prev, config.solver)
                for prob, prev in zip(problems, prev_sols)
            ]

        inputs = np.array([sol.u_seq[0] for sol in sols])
        records.append(
            StepRecord(
                k=k,
                robot_ids=tuple(alive),
                states=states.copy(),
                references=refs.copy(),
                errors=errors.copy(),
                desired_bearings={
                    (alive[i], alive[j]): g.copy() for (i, j), g in g_des.items()
                },
                inputs=inputs,
                costs=np.array([sol.cost for sol in sols]),
                coverage_cost=H,
                bearing_error=bearing_err,
                rigidity_rank=rank,
                updated=updated,
                solver_iterations=tuple(sol.iterations for sol in sols),
                solver_kkt=tuple(sol.kkt_residual for sol in sols),
            )
        )

        for li, (sol, u) in enumerate(zip(sols, inputs)):
            model = config.models[alive[li]]
            if not model.input_bounds.contains(u, tol=1e-9):
                raise NumericalBreakdownError(f"applied input of robot {alive[li]} violates bounds at step {k}")
            nxt = model.step(states[li], u)
            if not model.state_bounds.contains(nxt, tol=1e-9):
                raise NumericalBreakdownError(f"state of robot {alive[li]} leaves the box at step {k}")
            states[li] = nxt
        prev_sols = sols

    positions = states[:, :2]
    final_partition = voronoi_partition(positions, region)
    final_H = coverage_cost(positions, final_partition, density, quad)
    final_bearing = _aggregate_bearing_error(g_des, graph, positions)
    if graph.n >= 2:
        fw = Framework(graph, Configuration(positions))
        rank_info = rigidity_rank(fw)
        final_rigidity = {
            "laman": bool(laman_check(graph)),
            "rank": int(rank_info.rank),
            "max_rank": int(rank_info.max_rank),
            "rigid": rank_info.rank == rank_info.max_rank,
        }
    else:
        final_rigidity = {"laman": None, "rank": 0, "max_rank": 0, "rigid": None}
    summary = {
        "steps": config.steps,
        "mu": weights.mu,
        "n_robots_initial": n0,
        "n_robots_final": len(alive),
        "alive": list(alive),
        "n_partition_updates": n_updates,
        "n_events": len(events),
        "final_coverage_cost": final_H,
        "final_bearing_error": final_bearing,
        "final_positions": {str(oid): positions[li].tolist() for li, oid in enumerate(alive)},
        "final_reference_errors": {
            str(oid): float(np.linalg.norm(positions[li] - refs[li])) for li, oid in enumerate(alive)
        },
        "final_rigidity": final_rigidity,
    }
    return SimTrace(records=records, events=events, summary=summary)


# --- export -----------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _round_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(val) for val in obj]
    if isinstance(obj, (np.floating,)):
        return float(_fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


PLOT_SCRIPT = """set datafile separator ','
set terminal pngcairo size 960,640
set output 'cost.png'
set xlabel 'step k'
set ylabel 'coverage cost H'
set y2label 'aggregate bearing error'
set y2tics
set key top right
plot 'cost.csv' using 1:2 with lines lw 2 title 'H', \\
     'cost.csv' using 1:3 axes x1y2 with lines lw 1 dt 2 title 'bearing error'
"""


def export(trace: SimTrace, out_dir) -> list[str]:
    """Write the trace as CSV/JSON artifacts; returns the file names.

    Formatting is fixed (floats as %.9g, sorted JSON keys) so identical
    traces serialize to byte-identical files.
    """
    if not trace.records:
        raise InvalidInputError("cannot export an empty trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n0 = trace.summary["n_robots_initial"]

    lines = ["k,robot,p_x,p_y,v_x,v_y,u_x,u_y"]
    for rec in trace.records:
        for li, oid in enumerate(rec.robot_ids):
            vals = [*rec.states[li], *rec.inputs[li]]
            lines.append(f"{rec.k},{oid}," + ",".join(_fmt(v) for v in vals))
    (out / "trajectories.csv").write_text("\n".join(lines) + "\n")

    header = "k,H,bearing_error," + ",".join(f"J_{i}" for i in range(n0))
    lines = [header]
    for rec in trace.records:
        by_id = dict(zip(rec.robot_ids, rec.costs))
        row = [str(rec.k), _fmt(rec.coverage_cost), _fmt(rec.bearing_error)]
        row += [_fmt(by_id[i]) if i in by_id else "nan" for i in range(n0)]
        lines.append(",".join(row))
    (out / "cost.csv").write_text("\n".join(lines) + "\n")

    (out / "events.json").write_text(
        json.dumps(_round_floats(trace.events), sort_keys=True, indent=2) + "\n"
    )
    (out / "summary.json").write_text(
        json.dumps(_round_floats(trace.summary), sort_keys=True, indent=2) + "\n"
    )
    (out / "plot.gp").write_text(PLOT_SCRIPT)
    return ["trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp"]
