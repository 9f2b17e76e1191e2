"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run:

1. writes the workload's inputs ``SETUP_REPEATS`` times, each in a fresh
   process (import ``drbottleneck``, build the instance, relabel it by the
   seed, write the instance JSON and scenario CSV) while sampling the
   machine's speed;
2. starts one more process, single-threaded with BLAS capped at
   ``BLAS_THREADS``, that runs the workload's ``drbottleneck.cli.main``
   calls pass after pass for ``--seconds``, sampling the machine's speed
   during each pass, and checks every output against
   ``references/<workload>.json``;
3. prints the environment on one line, then the result as the last line:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``total_s``, ``success_ratio``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ones, from passes run with timing wrappers installed.
``setup_s`` and ``total_s`` are calibrated: the median over set-ups, or
over passes, of wall time divided by the loop time sampled during it, in
the reference seconds of ``calibration.py``.  The full result, with the
environment and every raw pass time, is also written under
``.perfbench/results/``.  ``--write-reference`` runs one pass and writes the
reference from it instead of checking.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import calibrated_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
PROGRAM = os.path.join("src", "drbottleneck", "cli.py")
OUTPUT = ".perfbench"
DEFAULT_SEED = 1
# keep equal to run_seconds in BENCHMARK.json
DEFAULT_SECONDS = 15
SETUP_REPEATS = 7
BLAS_THREADS = 1
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_TIMEOUT_S = 60
# the measuring process may overrun --seconds by one pass and its checks
MEASURE_GRACE_S = 90


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """Run a worker process to completion; return its wall time and output."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv], env=env, timeout=timeout,
            stdout=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {argv[0]} timed out after {timeout} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv[0]} exited with code {proc.returncode}")
    return elapsed, proc.stdout


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, measured: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": measured["numpy"],
        "scipy": measured["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def pass_time(passes: list[dict]) -> float:
    return calibrated_s((p["pass_s"], p["loop_s"]) for p in passes)


def end_to_end(setups: list[dict], measured: dict) -> dict:
    attempted = measured["attempted"]
    return {
        "setup_s": {"value": calibrated_s((s["setup_s"], s["loop_s"]) for s in setups),
                    "unit": "s"},
        "total_s": {"value": pass_time(measured["passes"]), "unit": "s"},
        "success_ratio": {"value": 1.0 - measured["failed"] / attempted, "unit": "fraction"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(measured: dict) -> dict:
    metrics = {}
    for name, value in measured["layers"].items():
        unit = ("s" if name.endswith("_s") else "ms" if name.endswith("_ms")
                else "fraction" if name.endswith("_ratio") else "count")
        metrics[name] = {"value": value, "unit": unit}
    overhead = pass_time(measured["traced_passes"]) - pass_time(measured["passes"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    compared = measured["floats_compared"]
    metrics["check.bit_exact_ratio"] = {
        "value": measured["floats_bit_exact"] / compared if compared else 1.0,
        "unit": "fraction",
    }
    return metrics


def run(args) -> dict:
    if not os.path.isfile(PROGRAM):
        raise BenchmarkError(f"{PROGRAM} not found; run from the repository root")
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.abspath(os.path.join(OUTPUT, "work", f"{tag}-{os.getpid()}"))
    results = os.path.join(OUTPUT, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--dir", workdir]
        repeats = 1 if args.trace or args.write_reference else SETUP_REPEATS
        setups = []
        for _ in range(repeats):
            seconds, out = run_child(["setup", *common, "--seed", str(args.seed)], env,
                                     SETUP_TIMEOUT_S)
            loop = json.loads(out.splitlines()[-1])["loop_s"]
            setups.append({"setup_s": seconds, "loop_s": loop})
        result_file = os.path.join(workdir, "measured.json")
        measure = ["measure", *common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--result", result_file]
        if args.trace:
            measure += ["--spans", os.path.abspath(os.path.join(results, tag + ".spans.jsonl"))]
        if args.write_reference:
            measure.append("--write-reference")
        run_child(measure, env, args.seconds + MEASURE_GRACE_S)
        with open(result_file, encoding="utf-8") as fh:
            measured = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(measured) if args.trace else end_to_end(setups, measured)
    report = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    full = {**report, "env": environment(args, measured), "setups": setups, **measured}
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": full["env"]}))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="write references/<workload>.json from one pass")
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
