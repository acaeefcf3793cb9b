"""One benchmark episode: config -> run -> export, then the correctness gate.

The gate checks what the theory guarantees in every closed-loop run:

* every fault event reports a Laman graph, and the framework of that step
  (the repaired graph at the recorded positions) has rigidity rank ``2n - 3``;
* the locational cost ``H`` of the recorded positions does not increase at
  any partition update (fault steps excepted: losing a robot raises ``H``);
* every recorded KKT residual is at or below ``SqpOptions.tol_stationarity``;
* the state and input boxes hold (``run`` raises otherwise).

Rank and ``H`` are evaluated by ``reference.py``, not read from the trace:
the program's own figures carry its quadrature and rank tolerances.  Where
the program's figures break a guarantee that the reference evaluation keeps,
the episode counts it (``reported_H_rises``, ``reported_nonrigid_repairs``)
without failing.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import reference

ARTIFACTS = ("trajectories.csv", "cost.csv", "events.json", "summary.json", "plot.gp")


def _edges(rec) -> list:
    """The graph of a record, as local vertex pairs."""
    local = {rid: i for i, rid in enumerate(rec.robot_ids)}
    return [(local[a], local[b]) for a, b in rec.desired_bearings]


def reference_costs(trace, config) -> list:
    """Reference ``H`` of the recorded positions at every step."""
    region = config.region.vertices
    return [reference.locational_cost(rec.states[:, :2], region, config.density) for rec in trace.records]


def gate_failures(trace, config, costs=None) -> list[str]:
    """Every violated guarantee of one trace, as readable messages.

    ``costs`` are the reference costs of ``reference_costs``, computed here
    when not given.
    """
    failures = []
    records = trace.records
    fault_steps = {f.at_step for f in config.faults}
    costs = reference_costs(trace, config) if costs is None else costs
    for event in trace.events:
        k = event["at_step"]
        if event.get("laman") is not True:
            failures.append(f"step {k}: repair reports laman={event.get('laman')}")
        rec = records[k]
        full = 2 * len(rec.robot_ids) - 3
        rank = reference.rigidity_rank(rec.states[:, :2], _edges(rec))
        if rank != full:
            failures.append(f"step {k}: rank {rank} after repair, expected {full}")
    for prev, rec in zip(records, records[1:]):
        if rec.updated and rec.k not in fault_steps and costs[rec.k] > costs[prev.k] * (1 + reference.H_RTOL):
            failures.append(f"step {rec.k}: H rose from {costs[prev.k]!r} to {costs[rec.k]!r} at an update")
    tol = config.solver.tol_stationarity
    for rec in records:
        bad = [kkt for kkt in rec.solver_kkt if not kkt <= tol]
        if bad:
            failures.append(f"step {rec.k}: KKT residual {max(bad)!r} above {tol!r}")
    return failures


def reported_misses(trace, config) -> dict:
    """Guarantees that the program's own figures break, counted."""
    fault_steps = {f.at_step for f in config.faults}
    records = trace.records
    nonrigid = sum(
        1
        for event in trace.events
        if event.get("rigid") is not True
        or records[event["at_step"]].rigidity_rank != 2 * len(records[event["at_step"]].robot_ids) - 3
    )
    rises = sum(
        1
        for prev, rec in zip(records, records[1:])
        if rec.updated and rec.k not in fault_steps and rec.coverage_cost > prev.coverage_cost
    )
    return {"reported_H_rises": rises, "reported_nonrigid_repairs": nonrigid}


def rank_deficient_steps(trace, config) -> int:
    """Steps outside a repair whose recorded rank is below ``2n - 3``."""
    fault_steps = {f.at_step for f in config.faults}
    return sum(
        1
        for rec in trace.records
        if rec.k not in fault_steps and len(rec.robot_ids) >= 2 and rec.rigidity_rank < 2 * len(rec.robot_ids) - 3
    )


def artifact_hash(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in ARTIFACTS:
        digest.update(name.encode() + b"\0")
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@dataclass
class EpisodeResult:
    index: int
    steps: int = 0
    run_s: float = 0.0
    error: str | None = None
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def run_episode(rc, index: int, config, out_dir: Path, tracer=None) -> EpisodeResult:
    """Run and export one parsed config, check it and count what it did.

    With a ``tracer``, ``run`` and ``export`` execute with its spans
    installed; the gate and the counters always run untraced.  A typed
    ``RigidCoverageError`` marks the episode failed instead of aborting the
    execution.
    """
    result = EpisodeResult(index)
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            trace = rc.run(config)
            result.run_s = time.perf_counter() - t0
            rc.export(trace, out_dir)
    except rc.RigidCoverageError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.steps = len(trace.records)
    costs = reference_costs(trace, config)
    result.failures = gate_failures(trace, config, costs)
    iterations = Counter(it for rec in trace.records for it in rec.solver_iterations)
    summary = trace.summary
    result.counters = {
        "steps": result.steps,
        "robot_steps": sum(len(rec.robot_ids) for rec in trace.records),
        "partition_updates": summary["n_partition_updates"],
        "events": summary["n_events"],
        "solves": sum(iterations.values()),
        "iteration_histogram": {str(k): iterations[k] for k in sorted(iterations)},
        "kkt_max": max(kkt for rec in trace.records for kkt in rec.solver_kkt),
        "rank_deficient_steps": rank_deficient_steps(trace, config),
        **reported_misses(trace, config),
        "H_error_max": max(abs(rec.coverage_cost - h) for rec, h in zip(trace.records, costs)),
        "final_H": summary["final_coverage_cost"],
        "final_bearing_error": summary["final_bearing_error"],
        "artifacts_sha256": artifact_hash(out_dir),
    }
    return result
