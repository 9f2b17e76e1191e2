"""One benchmark process: write a workload's inputs, or run and check it.

    worker.py setup   --workload W --seed N --dir D
    worker.py measure --workload W --dir D --seconds S --trace 0|1 --result R
                      [--spans P] [--write-reference]

``measure`` calls ``drbottleneck.cli.main`` in-process for each of the
workload's command lines, one pass after another, until the next pass would
overrun ``--seconds`` (one pass at least; with ``--trace 1`` untraced and
traced passes alternate, at least one of each).  Each call is timed on its
own, by wall clock, while a ``SpeedSampler`` samples the machine's speed;
reading and checking outputs happen outside the timing.  ``setup`` prints
the sampled loop time of its own run as JSON.  Run by ``run.py``, which sets
the thread caps and ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import SpeedSampler  # noqa: E402
from check import Comparison, to_base_labels  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

REFERENCES = os.path.join(HERE, "references")
MAX_REPORTED_MISMATCHES = 10


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCES, workload + ".json")


def run_pass(cli, runs, outdir: str) -> tuple[dict[str, float], list[tuple[str, object]]]:
    """Run every command line once; return each one's wall time and outcome."""
    seconds = {}
    outcomes = []
    for label, argv in runs:
        start = time.perf_counter()
        try:
            code = cli.main([*argv, "--out", os.path.join(outdir, label)])
        except Exception:  # a crash is a failed invocation, not a benchmark error
            traceback.print_exc()
            code = "exception"
        seconds[label] = time.perf_counter() - start
        outcomes.append((label, code))
    return seconds, outcomes


def check_pass(outcomes, outdir: str, relabel: dict, reference: dict, comparison: Comparison):
    """Outputs mapped to base labels, and the labels of failed invocations."""
    outputs, failed = {}, []
    for label, code in outcomes:
        if code != 0:
            print(f"{label}: exit code {code}", file=sys.stderr)
            failed.append(label)
            continue
        with open(os.path.join(outdir, label + ".json"), encoding="utf-8") as fh:
            outputs[label] = to_base_labels(json.load(fh), relabel)
        if reference is None:
            continue
        before = len(comparison.mismatches)
        comparison.compare(outputs[label], reference.get(label), f"{label}:$")
        if len(comparison.mismatches) > before:
            failed.append(label)
            for line in comparison.mismatches[before:before + MAX_REPORTED_MISMATCHES]:
                print("mismatch " + line, file=sys.stderr)
    return outputs, failed


def measure(args) -> dict:
    import numpy
    import scipy

    import drbottleneck.cli as cli

    from tracing import Tracer, median_metrics

    workload = WORKLOADS[args.workload]
    runs = workload.runs(args.dir)
    outdir = os.path.join(args.dir, "out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(args.dir, "relabel.json"), encoding="utf-8") as fh:
        relabel = json.load(fh)
    reference = None
    if not args.write_reference:
        with open(reference_path(args.workload), encoding="utf-8") as fh:
            reference = json.load(fh)

    tracer = Tracer() if args.trace else None
    comparison = Comparison()
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        # traced and untraced passes alternate, so both see the same conditions
        tracing = tracer is not None and len(untraced) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            with SpeedSampler() as speed:
                seconds, outcomes = run_pass(cli, runs, outdir)
        finally:
            if tracing:
                tracer.uninstall()
        pass_s = sum(seconds.values())
        (traced if tracing else untraced).append(
            {"invocation_s": seconds, "pass_s": pass_s, "loop_s": speed.loop_s()}
        )
        if tracing:
            layers.append(tracer.layer_metrics())
        outputs, bad = check_pass(outcomes, outdir, relabel, reference, comparison)
        attempted += len(outcomes)
        failed += len(bad)
        if args.write_reference:
            os.makedirs(REFERENCES, exist_ok=True)
            with open(reference_path(args.workload), "w", encoding="utf-8") as fh:
                json.dump(outputs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            break
        elapsed = time.perf_counter() - began
        done = bool(traced) if tracer is not None else True
        if done and elapsed + pass_s > args.seconds:
            break

    result = {
        "passes": untraced,
        "traced_passes": traced,
        "attempted": attempted,
        "failed": failed,
        "floats_compared": comparison.floats,
        "floats_bit_exact": comparison.bit_exact,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = median_metrics(layers)
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        with SpeedSampler() as speed:
            write_inputs(WORKLOADS[args.workload], args.seed, args.dir)
        print(json.dumps({"loop_s": speed.loop_s()}))
        return 0
    result = measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
