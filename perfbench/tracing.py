"""Spans around the public functions of each layer, installed from outside.

Each wrapped function is replaced, by object identity, in every loaded
``rigid_coverage.*`` namespace, so names that one module imported from
another (``sim`` calling ``solve_ocp``) are covered too, and a refactor that
moves a call keeps its span.  A span records its name, start, end, the
index of its parent span and the request (episode) id.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from contextlib import contextmanager

PACKAGE = "rigid_coverage"

# "module.attribute" or "module.Class.method", relative to the package.
TRACED = (
    "config.config_from_dict",
    "terminal.build_terminal_set",
    "graphs.laman_check",
    "recovery.build_recovery_plan",
    "recovery.apply_recovery",
    "recovery.RecoveryPlan.for_loss",
    "geometry.clip_polygon_halfplane",
    "coverage.voronoi_partition",
    "coverage.centroid",
    "coverage.coverage_cost",
    "coverage.partition_update_due",
    "rigidity.rigidity_rank",
    "rigidity.is_infinitesimally_bearing_rigid",
    "dynamics.linearize",
    "mpc.shift_warm_start",
    "mpc.solve_ocp",
    "sim.run",
    "sim.export",
)
DENSITIES = ("UniformDensity", "GaussianMixtureDensity", "GridDensity")


class Tracer:
    """Collects spans, solver outcomes and density evaluations."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent_index, request)
        self.wall_ns = 0  # time spent with the spans installed
        self.request = None
        self.density_points = 0
        self.solve_status: list = []
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if name == "mpc.solve_ocp":
                self.solve_status.append(result.status)
            return result

        return traced

    def _count_points(self, call):
        @functools.wraps(call)
        def counted(density, points):
            result = call(density, points)
            self.density_points += len(result)
            return result

        return counted

    @contextmanager
    def installed(self):
        """Swap the traced functions in for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for target in TRACED:
            module_name, *path = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(target, original)
            if len(path) > 1:  # a method: its class is the only namespace
                replace(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replace(module, attr, wrapper)
        coverage = sys.modules[f"{PACKAGE}.coverage"]
        for cls_name in DENSITIES:
            cls = getattr(coverage, cls_name)
            replace(cls, "__call__", self._count_points(cls.__call__))
        start = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.wall_ns += time.perf_counter_ns() - start
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times_ns(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "episode"])
            for idx, span in enumerate(self.spans):
                out.writerow([idx, *span])
