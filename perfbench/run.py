"""Closed-loop benchmark of rigid-coverage.

Runs one named workload from a seed, driving the library the way
``rigid-coverage simulate`` does (``config_from_dict``, ``run``, ``export``)
on a list of independent episodes, serially, in this one process:

    python3 perfbench/run.py --workload fault6 --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced executions.
``--trace 1`` runs the fixed episodes untraced and then traced, and reports
the per-layer split from the spans.  Every run checks every episode with the
correctness gate in ``episodes.py``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result (environment, per-episode counters and artifact
hashes) goes to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread: the loop is serial, and on a small shared host idle BLAS
# workers spinning beside it made steps slower and noisier.  Set before
# numpy loads OpenBLAS; an explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from episodes import run_episode  # noqa: E402
from tracing import PACKAGE, TRACED, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREADS_ENV_VAR = "RIGID_COVERAGE_THREADS"

# Episodes every run executes whatever the clock says.  Quality metrics,
# counters, artifact hashes and the traced run use exactly these, so they
# depend on the seed alone.  Sized to take 11-15 s on a 2-core host when it is
# not loaded by its neighbours, and under 30 s when it is.
FIXED_EPISODES = {"fault6": 3, "swarm96": 2, "drag4_h40": 4, "cascade12": 12}
SETUP_REPEATS = 9


class BenchmarkError(Exception):
    """The benchmark cannot run here; reported without a result line."""


# --- set-up -------------------------------------------------------------------

def fresh_import():
    """Import the package from this checkout's ``src``, dropping any copy
    already loaded, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    try:
        rc = importlib.import_module(PACKAGE)
    except ModuleNotFoundError as exc:
        raise BenchmarkError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if not Path(rc.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"{PACKAGE} was imported from {rc.__file__}, not from {SRC}")
    return rc


def timed_setup(dicts):
    """Package import plus ``config_from_dict`` for every fixed episode."""
    t0 = time.perf_counter()
    rc = fresh_import()
    configs = [rc.config_from_dict(d) for d in dicts]
    return time.perf_counter() - t0, rc, configs


# --- environment --------------------------------------------------------------

def _openblas():
    """(configuration string, thread count) of numpy's OpenBLAS, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return config().decode(), int(threads())
    return None, None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    """Versions and thread settings; refuses to run multi-threaded."""
    if os.environ.get(THREADS_ENV_VAR) is not None:
        raise BenchmarkError(f"{THREADS_ENV_VAR} must be unset: the benchmark measures the serial loop")
    nproc = len(os.sched_getaffinity(0))
    blas_config, blas_threads = _openblas()
    python_threads = threading.active_count()
    if python_threads != 1 or (blas_threads or 1) > nproc:
        raise BenchmarkError(f"{python_threads} Python threads and {blas_threads} BLAS threads on {nproc} CPUs")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas_config,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python_threads": python_threads,
        "nproc": nproc,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# --- measurement --------------------------------------------------------------

def execute(rc, workload, seed, configs, out_dir, seconds=None):
    """Run the fixed episodes, then further ones while ``seconds`` allows."""
    results = []
    start = time.perf_counter()
    index = 0
    while True:
        if index < len(configs):
            config = configs[index]
        else:
            elapsed = time.perf_counter() - start
            if seconds is None or elapsed + elapsed / index > seconds:
                break
            config = rc.config_from_dict(WORKLOADS[workload](seed, index))
        results.append(run_episode(rc, index, config, out_dir))
        index += 1
    return results


def completed(results) -> list:
    done = [r for r in results if r.error is None]
    if not done:
        raise BenchmarkError(f"every episode raised; the first: {results[0].error}")
    return done


def step_ms(results) -> float:
    ran = completed(results)
    return 1e3 * sum(r.run_s for r in ran) / sum(r.steps for r in ran)


def end_to_end(results, setups, fixed) -> dict:
    done = completed(results[:fixed])
    return {
        "step_ms": (step_ms(results), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "final_H": (statistics.fmean(r.counters["final_H"] for r in done), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, overhead) -> dict:
    self_ns = tracer.self_times_ns()
    calls = defaultdict(int)
    own = defaultdict(int)
    durations = defaultdict(list)
    for (name, start, end, _, _), s in zip(tracer.spans, self_ns):
        calls[name] += 1
        own[name] += s
        durations[name].append((end - start) / 1e6)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (own[name] / 1e6, "ms")
    solves = durations["mpc.solve_ocp"] or [0.0]
    for q in (50, 90, 99):
        metrics[f"mpc.solve_ocp.p{q}_ms"] = (float(np.percentile(solves, q)), "ms")
    plans = durations["recovery.build_recovery_plan"] or [0.0]
    metrics["recovery.build_recovery_plan.p50_ms"] = (float(np.percentile(plans, 50)), "ms")
    metrics["recovery.build_recovery_plan.max_ms"] = (max(plans), "ms")
    counters = [r.counters for r in completed(traced)]
    steps = sum(c["steps"] for c in counters)
    n_solves = sum(c["solves"] for c in counters)
    status = tracer.solve_status
    metrics.update({
        "coverage.density_points": (tracer.density_points, "count"),
        "coverage.update_ratio": (sum(c["partition_updates"] for c in counters) / steps, "1"),
        "mpc.iter1_share": (sum(c["iteration_histogram"].get("1", 0) for c in counters) / n_solves, "1"),
        "mpc.status_solved_share": (status.count("solved") / max(1, len(status)), "1"),
        "mpc.kkt_max": (max(c["kkt_max"] for c in counters), "1"),
        "sim.robot_steps": (sum(c["robot_steps"] for c in counters), "count"),
        "sim.self_ms": (own["sim.run"] / 1e6, "ms"),
        "sim.final_bearing_error": (statistics.fmean(c["final_bearing_error"] for c in counters), "1"),
        "rigidity.rank_deficient_steps": (sum(c["rank_deficient_steps"] for c in counters), "count"),
        "rigidity.reported_nonrigid_repairs": (sum(c["reported_nonrigid_repairs"] for c in counters), "count"),
        "coverage.reported_H_rises": (sum(c["reported_H_rises"] for c in counters), "count"),
        "coverage.H_error_max": (max(c["H_error_max"] for c in counters), "1"),
        "trace.covered_share": (sum(self_ns) / tracer.wall_ns, "1"),
        "trace.overhead": (overhead, "1"),
    })
    return metrics


def traced_execution(rc, dicts, out_dir):
    """The fixed episodes with spans around set-up, ``run`` and ``export``;
    the correctness gate runs between them, untraced."""
    tracer = Tracer()
    results = []
    for index, data in enumerate(dicts):
        tracer.request = index
        with tracer.installed():
            config = rc.config_from_dict(data)
        results.append(run_episode(rc, index, config, out_dir, tracer))
    return tracer, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the untraced loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        env = environment()
        fixed = FIXED_EPISODES[args.workload]
        dicts = [WORKLOADS[args.workload](args.seed, i) for i in range(fixed)]
        fresh_import()  # compile bytecode once; timed set-ups then re-import
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, rc, configs = timed_setup(dicts)
            setups.append(seconds)

        RESULTS.mkdir(exist_ok=True)
        out_dir = RESULTS / f"export-{args.workload}"
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            results = execute(rc, args.workload, args.seed, configs, out_dir)
            tracer, traced = traced_execution(rc, dicts, out_dir)
            overhead = step_ms(traced) / step_ms(results)
            env["trace_overhead"] = overhead
            metrics = per_layer(tracer, traced, overhead)
            tracer.write(RESULTS / f"{stem}-spans.csv.gz")
            same = [r.counters for r in results] == [r.counters for r in traced]
            episodes = results + traced
        else:
            results = execute(rc, args.workload, args.seed, configs, out_dir, args.seconds)
            env["trace_overhead"] = None  # measured by --trace 1
            metrics = end_to_end(results, setups, fixed)
            same = True
            episodes = results
        if threading.active_count() != 1:
            raise BenchmarkError(f"the execution left {threading.active_count()} Python threads running")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(not r.ok for r in episodes)
    report = {
        "correct": failed == 0 and same,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s": setups,
        "error_rate": failed / len(episodes),
        "traced_counters_match": same,
        "episodes": [
            {"index": r.index, "traced": args.trace == 1 and i >= len(episodes) - fixed, "ok": r.ok,
             "error": r.error, "failures": r.failures, "run_s": r.run_s, "counters": r.counters}
            for i, r in enumerate(episodes)
        ],
        **report,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for r in episodes:
        for reason in ([r.error] if r.error else []) + r.failures:
            print(f"episode {r.index} failed: {reason}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
