"""Command-line interface.

Exit codes: 0 on success, 1 for validation/usage errors, 2 for runtime
failures.  Diagnostics go to stderr; machine-readable output goes to stdout
or to files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import _parse_density, _parse_region, config_from_dict, load_config
from .coverage import coverage_cost, voronoi_partition
from .errors import InvalidInputError, RigidCoverageError
from .geometry import parse_points
from .graphs import graph_from_dict, graph_to_json, henneberg_generate, laman_check
from .recovery import build_recovery_plan, closing_ranks, plan_to_json
from .rigidity import framework_from_dict, is_infinitesimally_bearing_rigid, rigidity_rank
from .sim import export, run


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    runtime failures and use 1 for anything the user got wrong."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json_file(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_graph_gen(args) -> int:
    result = henneberg_generate(args.n, args.seed, split_probability=args.split_prob)
    _emit(graph_to_json(result.graph), args.out)
    return 0


def _cmd_rigidity_check(args) -> int:
    data = _load_json_file(args.file, "graph")
    report = {}
    if isinstance(data, dict) and "positions" in data:
        fw = framework_from_dict(data)
        graph = fw.graph
        rank = rigidity_rank(fw, tol=args.tol)
        report["rank"] = int(rank.rank)
        report["max_rank"] = int(rank.max_rank)
        report["rigid"] = bool(is_infinitesimally_bearing_rigid(fw, tol=args.tol))
    else:
        graph = graph_from_dict(data)
    verdict = laman_check(graph)
    report["n"] = graph.n
    report["m"] = graph.m
    report["laman"] = bool(verdict)
    report["violating_subset"] = (
        None if verdict.violating_subset is None else sorted(verdict.violating_subset)
    )
    _emit(json.dumps(report, sort_keys=True, indent=2), None)
    return 0


def _cmd_recover(args) -> int:
    data = _load_json_file(args.graph, "graph")
    graph = graph_from_dict(data)
    if args.mode == "plan":
        plan = build_recovery_plan(graph)
        _emit(plan_to_json(plan), args.out)
        return 0
    if args.lose is None:
        raise InvalidInputError("either give a vertex with --lose or use 'recover plan'")
    result = closing_ranks(graph, args.lose)
    payload = {
        "lost": args.lose,
        "new_edges": [list(e) for e in sorted(result.new_edges)],
        "contraction_vertex": result.contraction_vertex,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_coverage_cost(args) -> int:
    data = _load_json_file(args.config, "config")
    if not isinstance(data, dict) or "region" not in data:
        raise InvalidInputError("config must be an object with a 'region' field")
    region = _parse_region(data["region"])
    density = _parse_density(data.get("density"))
    positions = parse_points(_load_json_file(args.positions, "positions"))
    partition = voronoi_partition(positions, region)
    value = coverage_cost(positions, partition, density)
    sys.stdout.write(f"{value:.9g}\n")
    return 0


def _cmd_simulate(args) -> int:
    data = _load_json_file(args.config, "config")
    if args.seed is not None:
        if not isinstance(data, dict):
            raise InvalidInputError("config root must be a JSON object")
        data = dict(data)
        data["seed"] = args.seed
    config = config_from_dict(data)
    trace = run(config)
    files = export(trace, args.out)
    print(f"wrote {', '.join(files)} to {args.out}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    sys.stdout.write("ok\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rigid-coverage", description="Bearing-rigid multi-robot coverage toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_graph = sub.add_parser("graph", help="graph construction")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True, parser_class=_Parser)
    p_gen = graph_sub.add_parser("gen", help="generate a minimally rigid graph")
    p_gen.add_argument("--n", type=int, required=True, help="number of vertices (>= 2)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--split-prob", type=float, default=0.5, help="edge-splitting probability")
    p_gen.add_argument("--out", help="output file (default: stdout)")
    p_gen.set_defaults(handler=_cmd_graph_gen)

    p_rig = sub.add_parser("rigidity", help="rigidity analysis")
    rig_sub = p_rig.add_subparsers(dest="rigidity_command", required=True, parser_class=_Parser)
    p_check = rig_sub.add_parser("check", help="check a graph or framework JSON file")
    p_check.add_argument("file", help="graph {n, edges} or framework {n, edges, positions} JSON")
    p_check.add_argument("--tol", type=float, default=1e-8, help="singular-value rank tolerance")
    p_check.set_defaults(handler=_cmd_rigidity_check)

    p_rec = sub.add_parser("recover", help="repair edges after a vertex loss")
    p_rec.add_argument("mode", nargs="?", choices=["plan"], help="'plan' precomputes all losses")
    p_rec.add_argument("--graph", required=True, help="graph JSON file")
    p_rec.add_argument("--lose", type=int, help="vertex to remove")
    p_rec.add_argument("--out", help="output file (default: stdout)")
    p_rec.set_defaults(handler=_cmd_recover)

    p_cov = sub.add_parser("coverage", help="coverage cost evaluation")
    cov_sub = p_cov.add_subparsers(dest="coverage_command", required=True, parser_class=_Parser)
    p_cost = cov_sub.add_parser("cost", help="locational cost of positions in a config's region")
    p_cost.add_argument("--config", required=True, help="config JSON (region and density used)")
    p_cost.add_argument("--positions", required=True, help="JSON file with a list of [x, y]")
    p_cost.set_defaults(handler=_cmd_coverage_cost)

    p_sim = sub.add_parser("simulate", help="run the closed loop and export traces")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RigidCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
