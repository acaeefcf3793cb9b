"""Closed-loop coverage simulation with fault injection and trace export.

Each step runs three phases, and each returns what the next one reads:

- ``_centralized`` repairs a fault that falls on the step, by the recovery
  plan of the graph it falls on, partitions the region, updates the
  references when due, and measures H, the bearing error and the rigidity
  rank on that partition and on one bearing framework of the positions.
  It returns whether the references were updated, and the measurement.
- ``_decentralized`` sets up the tracking problems of each model's robots
  at once (`team_problems`), then solves each robot's in turn, warm
  started from that robot's previous solution.  A solve reads only its
  problem and that solution, never another robot's result of the step.
- ``_apply`` checks the input and state boxes, advances every robot by its
  first input and returns the step's record, taken before the advance.

References are recomputed at the first step, at fault steps and when every
robot has closed in on its reference.  Desired bearings are captured from
the reference configuration when the topology is (re)built and held
constant in between, so that bearing maintenance has a fixed geometric
target.  The summary is one last measurement, of the final positions.

Robot identity: original ids 0..n0-1 never change; graph vertices always
correspond to the currently alive robots in ascending original-id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SimConfig
from .coverage import centroid, coverage_cost, partition_update_due, voronoi_partition
from .errors import InvalidInputError, NumericalBreakdownError
from .graphs import Graph, laman_check
from .mpc import shift_warm_start, solve_ocp, team_problems
from .recovery import apply_recovery, build_recovery_plan
from .rigidity import (
    Configuration,
    Framework,
    RankReport,
    bearing_function,
    is_infinitesimally_bearing_rigid,
    rigidity_rank,
)
from .terminal import build_terminal_set


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


@dataclass
class _Team:
    """What the loop carries from one step to the next."""

    alive: list  # original ids of the live robots, in graph-vertex order
    states: np.ndarray  # (n, n_x)
    graph: Graph
    prev_sols: list  # each robot's previous solution, None before its first
    refs: np.ndarray | None = None
    errors: np.ndarray | None = None  # reference errors at the last update
    g_des: dict = field(default_factory=dict)  # local edge (i < j) -> bearing i -> j


@dataclass(frozen=True)
class _Measure:
    """Coverage cost, bearing error and rigidity of one configuration."""

    fw: Framework | None  # None below two robots
    H: float
    bearing_error: float
    rank: RankReport | None


def _bearings(fw: Framework) -> dict:
    """Canonical-edge bearings of a framework, keyed by local edge."""
    bv = bearing_function(fw)
    return dict(zip(bv.edge_order, bv.bearings))


def _measure(team: _Team, partition, density) -> _Measure:
    """H on the partition; bearing error and rank on one framework of the positions."""
    positions = team.states[:, :2]
    fw = Framework(team.graph, Configuration(positions)) if team.graph.n >= 2 else None
    bearing_error = 0.0
    if team.g_des:
        # each edge's squared gap as its own dot product, added up in edge
        # order from 0.0 (a cumulative sum adds one term at a time)
        bv = bearing_function(fw)
        diff = bv.bearings - np.array([team.g_des[edge] for edge in bv.edge_order])
        bearing_error = float(np.cumsum(diff[:, None, :] @ diff[:, :, None])[-1])
    rank = rigidity_rank(fw) if fw is not None else None
    return _Measure(fw, coverage_cost(positions, partition, density), bearing_error, rank)


def _centralized(team: _Team, config: SimConfig, k: int, fault, events: list) -> tuple[bool, _Measure]:
    """Fault and repair, partition, references and the measurement of step k."""
    rebuilt = fault is not None or team.refs is None  # the topology is new
    if fault is not None:
        alive = team.alive
        jf = alive.index(fault.robot)
        entry = build_recovery_plan(team.graph).for_loss(jf)
        new_edges = entry.new_edges if entry is not None else frozenset()
        hub = entry.contraction_vertex if entry is not None else None
        event = {
            "at_step": k,
            "robot": fault.robot,
            "new_edges": sorted([alive[a], alive[b]] for a, b in new_edges),
            "contraction_vertex": None if hub is None else alive[hub],
        }
        team.graph = apply_recovery(team.graph, jf, new_edges)
        alive.pop(jf)
        team.states = np.delete(team.states, jf, axis=0)
        team.prev_sols.pop(jf)
        events.append(event)
    positions = team.states[:, :2]
    partition = voronoi_partition(positions, config.region)
    updated = rebuilt or partition_update_due(positions, team.refs, team.errors)
    if updated:
        team.refs = centroid(partition, config.density)
        team.errors = np.linalg.norm(positions - team.refs, axis=1)
    if rebuilt:
        team.g_des = _bearings(Framework(team.graph, Configuration(team.refs))) if team.graph.n >= 2 else {}
    measure = _measure(team, partition, config.density)
    if fault is not None:
        fw = measure.fw
        event["edge_count"] = team.graph.m
        event["laman"] = None if fw is None else bool(laman_check(team.graph))
        event["rigid"] = None if fw is None else is_infinitesimally_bearing_rigid(fw)
    return updated, measure


def _model_rows(team: _Team, config: SimConfig) -> dict:
    """Local indices of the live robots by model, ascending."""
    groups: dict = {}
    for li, oid in enumerate(team.alive):
        groups.setdefault(config.models[oid], []).append(li)
    return groups


def _decentralized(team: _Team, config: SimConfig, terminals: dict, shrunk) -> list:
    """Each robot's tracking problem, built with its model's others, solved warm from its previous solution."""
    problems = [None] * len(team.alive)
    for model, rows in _model_rows(team, config).items():
        built = team_problems(model, config.horizon, config.weights, terminals[model], shrunk,
                              rows, team.states[rows], team.refs, team.g_des, team.alive)
        for li, problem in zip(rows, built):
            problems[li] = problem
    sols = []
    for problem, prev in zip(problems, team.prev_sols):
        warm = shift_warm_start(problem, prev) if prev is not None else None
        sols.append(solve_ocp(problem, warm=warm, options=config.solver))
    return sols


def _apply(team: _Team, config: SimConfig, k: int, updated: bool, measure: _Measure, sols: list) -> StepRecord:
    """Record step k, then check the boxes and advance every robot by its first input."""
    alive = team.alive
    inputs = np.array([sol.u_seq[0] for sol in sols])
    record = StepRecord(
        k=k,
        robot_ids=tuple(alive),
        states=team.states.copy(),
        references=team.refs.copy(),
        errors=team.errors.copy(),
        desired_bearings={(alive[i], alive[j]): g.copy() for (i, j), g in team.g_des.items()},
        inputs=inputs,
        costs=np.array([sol.cost for sol in sols]),
        coverage_cost=measure.H,
        bearing_error=measure.bearing_error,
        rigidity_rank=measure.rank.rank if measure.rank is not None else 0,
        updated=updated,
        solver_iterations=tuple(sol.iterations for sol in sols),
        solver_kkt=tuple(sol.kkt_residual for sol in sols),
    )
    # one step and one box check per model: both act row by row
    stepped = np.empty_like(team.states)
    inside = True
    for model, rows in _model_rows(team, config).items():
        stepped[rows] = model.step(team.states[rows], inputs[rows])
        inside = (
            inside
            and model.input_bounds.contains(inputs[rows], tol=1e-9)
            and model.state_bounds.contains(stepped[rows], tol=1e-9)
        )
    if not inside:  # name the first robot that breaks a box, its input first
        for li, oid in enumerate(alive):
            model = config.models[oid]
            if not model.input_bounds.contains(inputs[li], tol=1e-9):
                raise NumericalBreakdownError(f"applied input of robot {oid} violates bounds at step {k}")
            if not model.state_bounds.contains(stepped[li], tol=1e-9):
                raise NumericalBreakdownError(f"state of robot {oid} leaves the box at step {k}")
    team.states = stepped
    team.prev_sols = sols
    return record


def run(config: SimConfig) -> SimTrace:
    """Execute the closed loop and return the full trace."""
    weights, opts = config.weights, config.terminal
    terminals = {
        model: build_terminal_set(
            model,
            weights.Q if opts.Q is None else opts.Q,
            weights.R if opts.R is None else opts.R,
            c_fraction=opts.c_fraction,
            stage_Q=weights.Q,
            stage_R=weights.R,
        )
        for model in dict.fromkeys(config.models)
    }
    shrunk = config.region.shrink(config.epsilon)
    n0 = config.n_robots
    team = _Team(list(range(n0)), config.initial_states.copy(), config.graph, [None] * n0)
    faults_by_step = {f.at_step: f for f in config.faults}
    records, events = [], []
    for k in range(config.steps):
        updated, measure = _centralized(team, config, k, faults_by_step.get(k), events)
        sols = _decentralized(team, config, terminals, shrunk)
        records.append(_apply(team, config, k, updated, measure, sols))

    positions = team.states[:, :2]
    final = _measure(team, voronoi_partition(positions, config.region), config.density)
    rank = final.rank
    summary = {
        "steps": config.steps,
        "mu": weights.mu,
        "n_robots_initial": n0,
        "n_robots_final": len(team.alive),
        "alive": list(team.alive),
        "n_partition_updates": sum(rec.updated for rec in records),
        "n_events": len(events),
        "final_coverage_cost": final.H,
        "final_bearing_error": final.bearing_error,
        "final_positions": {str(oid): positions[li].tolist() for li, oid in enumerate(team.alive)},
        "final_reference_errors": {
            str(oid): float(np.linalg.norm(positions[li] - team.refs[li])) for li, oid in enumerate(team.alive)
        },
        "final_rigidity": {
            "laman": None if rank is None else bool(laman_check(team.graph)),
            "rank": 0 if rank is None else rank.rank,
            "max_rank": 0 if rank is None else rank.max_rank,
            "rigid": None if rank is None else rank.rank == rank.max_rank,
        },
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
