"""Command-line front end.

One run executes one model over an instance/scenario pair (or a generator)
and writes a results CSV plus a JSON summary next to the requested output
prefix.  Numbers are written with shortest round-trip precision; repeated
runs of the same configuration produce identical outputs except for the
wall-time columns.

Exit codes: 0 success, 1 domain or parse errors, 2 scale-guard refusals,
3 internal invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bottleneck import bottleneck_value, dual_bottleneck_value
from .calibrate import asymptotic_ci, smallest_radius_in_band
from .decide import (
    matching_permutation,
    robust_decision,
    saa_decision,
    topk_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EnumerationLimitError,
    InvalidInstanceError,
    InvariantViolationError,
    ScenarioParseError,
)
from .generate import (
    MultihopParams,
    TruncatedGaussianParams,
    generate_matching_gaussian,
    generate_multihop,
)
from .quantify import (
    WassersteinBall,
    quantify_robust,
    quantify_robust_finite_order,
    quantify_topk,
    saa_value,
    scenario_bottlenecks,
)
from .scenarios import load_scenarios, require_matching_width, save_scenarios
from .search import enumerate_members
from .systems import (
    AssignmentSystem,
    antichain_reduce,
    blocker_enumerate,
    feasible_at_threshold,
    min_weight_blocker,
    system_from_json,
    system_to_json,
)

JSON_SCHEMA_VERSION = 1

MODELS = (
    "quantify",
    "decide",
    "robust-decide",
    "tv-decide",
    "gamma-quantify",
    "gamma-decide",
    "calibrate",
    "simulate",
    "evaluate",
    "oracle",
)


def _parse_order(text: str) -> float:
    if text in ("inf", "infinity", "oo"):
        return math.inf
    value = float(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbottleneck",
        description="Distributionally robust bottleneck solvers and experiments.",
    )
    parser.add_argument("--model", choices=MODELS, required=True)
    parser.add_argument("--instance", help="instance JSON path")
    parser.add_argument("--scenarios", help="scenario CSV path")
    parser.add_argument("--theta", type=float, help="single ambiguity radius")
    parser.add_argument(
        "--theta-grid",
        help="comma-separated ascending radius grid, e.g. 0,0.02,0.04",
    )
    parser.add_argument("--q", type=_parse_order, default=math.inf,
                        help="transport order (default inf)")
    parser.add_argument("--r", type=float, default=1.0, help="ground norm order")
    parser.add_argument("--d", type=float, help="total-variation radius in [0,2]")
    parser.add_argument("--gamma", type=int, default=1, help="top-k count")
    parser.add_argument("--sense", choices=("cost", "capacity"), default="cost")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output path prefix")
    parser.add_argument("--force-enumeration", action="store_true",
                        help="override exact-search scale guards")
    parser.add_argument("--generator", choices=("multihop", "matching-gaussian"),
                        default="multihop", help="generator for --model simulate")
    parser.add_argument("--nodes", type=int, default=20,
                        help="node count for the multihop generator")
    parser.add_argument("--samples", type=int, default=100,
                        help="scenario count for generators")
    parser.add_argument("--side", type=int, default=9,
                        help="matching side for the gaussian generator")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def _radius_grid(args) -> list[float]:
    if args.theta_grid:
        grid = [float(x) for x in args.theta_grid.split(",") if x.strip() != ""]
        if grid != sorted(grid):
            raise DomainError("--theta-grid must be sorted ascending")
        return grid
    if args.theta is not None:
        return [args.theta]
    return [0.0]


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_num(v) if isinstance(v, float) else v for v in row])


def _write_json(path, payload) -> None:
    payload = {"schema_version": JSON_SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_pair(args):
    if not args.instance or not args.scenarios:
        raise DomainError("this model needs --instance and --scenarios")
    with open(args.instance, "r", encoding="utf-8") as fh:
        system = system_from_json(fh)
    scenarios = load_scenarios(args.scenarios)
    require_matching_width(scenarios, system)
    return system, scenarios


def _run_quantify(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    saa = saa_value(system, scenarios, sense=args.sense)
    rows = []
    summary = []
    for theta in grid:
        start = time.perf_counter()
        if math.isinf(args.q):
            ball = WassersteinBall(radius=theta, ground_order=args.r)
            quote = quantify_robust(system, scenarios, ball, sense=args.sense)
            value = quote.value
            extra = {}
        else:
            if args.sense != "cost":
                raise DomainError("finite transport orders support the cost sense only")
            value, lam = quantify_robust_finite_order(
                system, scenarios, theta, args.q, args.r
            )
            extra = {"multiplier": lam if math.isfinite(lam) else "inf"}
        elapsed = round(time.perf_counter() - start, 3)
        rows.append((theta, float(value), elapsed))
        summary.append({"theta": theta, "value": value, **extra})
    _write_csv(args.out + ".csv", ["theta", "value", "time_sec"], rows)
    _write_json(
        args.out + ".json",
        {
            "model": "quantify",
            "sense": args.sense,
            "transport_order": "inf" if math.isinf(args.q) else args.q,
            "ground_order": args.r,
            "saa": saa,
            "results": summary,
        },
    )


def _decision_json(system, report, extra=None) -> dict:
    record = report.to_dict()
    if isinstance(system, AssignmentSystem):
        record["permutation"] = matching_permutation(system, report.chosen)
    if extra:
        record.update(extra)
    return record


def _run_decide(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    rows, results = [], []
    base = saa_decision(system, scenarios, force=args.force_enumeration)
    for theta in grid:
        start = time.perf_counter()
        report = robust_decision(system, scenarios, theta, force=args.force_enumeration)
        elapsed = round(time.perf_counter() - start, 3)
        rows.append((theta, report.objective, elapsed))
        results.append(
            _decision_json(
                system,
                report,
                {"theta": theta, "saa_objective": base.objective,
                 "shift_identity_gap": report.objective - base.objective - theta},
            )
        )
    _write_csv(args.out + ".csv", ["theta", "value", "time_sec"], rows)
    _write_json(args.out + ".json", {"model": "decide", "results": results})


def _run_robust_decide(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    rows, results = [], []
    for theta in grid:
        start = time.perf_counter()
        report = variance_robust_decision(
            system, scenarios, theta, force=args.force_enumeration
        )
        elapsed = round(time.perf_counter() - start, 3)
        rows.append((theta, report.objective, elapsed))
        results.append(_decision_json(system, report, {"theta": theta}))
    _write_csv(args.out + ".csv", ["theta", "value", "time_sec"], rows)
    _write_json(args.out + ".json", {"model": "robust-decide", "results": results})


def _run_tv_decide(args):
    system, scenarios = _load_pair(args)
    if args.d is None:
        raise DomainError("--model tv-decide needs --d")
    start = time.perf_counter()
    report = tv_robust_decision(system, scenarios, args.d, force=args.force_enumeration)
    elapsed = round(time.perf_counter() - start, 3)
    _write_csv(
        args.out + ".csv",
        ["theta", "value", "time_sec"],
        [(args.d, report.objective, elapsed)],
    )
    _write_json(
        args.out + ".json",
        {"model": "tv-decide", "results": [_decision_json(system, report, {"d": args.d})]},
    )


def _run_gamma_quantify(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    rows, results = [], []
    for theta in grid:
        start = time.perf_counter()
        quote = quantify_topk(
            system, scenarios, theta, args.gamma, args.r,
            exact=True, force=args.force_enumeration,
        )
        elapsed = round(time.perf_counter() - start, 3)
        value = quote.exact if quote.exact is not None else quote.upper
        rows.append((theta, value, elapsed, quote.saa, quote.lower, quote.upper))
        results.append(
            {
                "theta": theta,
                "value": value,
                "saa": quote.saa,
                "lower": quote.lower,
                "upper": quote.upper,
                "exact_available": quote.exact is not None,
                "downgraded": quote.downgraded,
            }
        )
    _write_csv(
        args.out + ".csv",
        ["theta", "value", "time_sec", "saa", "lower", "upper"],
        rows,
    )
    _write_json(args.out + ".json", {"model": "gamma-quantify", "k": args.gamma,
                                     "ground_order": args.r, "results": results})


def _run_gamma_decide(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    rows, results = [], []
    for theta in grid:
        start = time.perf_counter()
        report = topk_decision(
            system, scenarios, theta, args.gamma, args.r, force=args.force_enumeration
        )
        elapsed = round(time.perf_counter() - start, 3)
        rows.append((theta, report.objective, elapsed))
        results.append(_decision_json(system, report, {"theta": theta}))
    _write_csv(args.out + ".csv", ["theta", "value", "time_sec"], rows)
    _write_json(args.out + ".json", {"model": "gamma-decide", "k": args.gamma,
                                     "results": results})


def _run_calibrate(args):
    system, scenarios = _load_pair(args)
    grid = _radius_grid(args)
    per_scenario = scenario_bottlenecks(system, scenarios, args.sense)
    band = asymptotic_ci(per_scenario)
    rows, values = [], []
    for theta in grid:
        start = time.perf_counter()
        ball = WassersteinBall(radius=theta, ground_order=args.r)
        value = quantify_robust(system, scenarios, ball, sense=args.sense).value
        elapsed = round(time.perf_counter() - start, 3)
        values.append(value)
        rows.append((theta, value, elapsed, band.lower, band.upper))
    endpoint = "lower" if args.sense == "capacity" else "upper"
    chosen = smallest_radius_in_band(grid, values, band, args.sense, endpoint)
    _write_csv(
        args.out + ".csv",
        ["theta", "value", "time_sec", "ci_lower", "ci_upper"],
        rows,
    )
    _write_json(
        args.out + ".json",
        {
            "model": "calibrate",
            "sense": args.sense,
            "saa_ci": {"lower": band.lower, "upper": band.upper, "point": band.point},
            "band_endpoint": endpoint,
            "selected_theta": chosen,
            "results": [{"theta": t, "value": v} for t, v in zip(grid, values)],
        },
    )


def _run_simulate(args):
    if args.generator == "multihop":
        params = MultihopParams(
            nodes=args.nodes, sample_count=args.samples, seed=args.seed
        )
        system, scenarios, metadata = generate_multihop(params)
    else:
        side = args.side
        rng = np.random.default_rng(args.seed)
        means = tuple(rng.uniform(20.0, 60.0, size=side * side))
        stds = tuple(rng.uniform(1.0, 5.0, size=side * side))
        params = TruncatedGaussianParams(
            means=means, base_std=stds, scale=1.0,
            sample_count=args.samples, seed=args.seed + 1,
        )
        system, scenarios, metadata = generate_matching_gaussian(params)
    with open(args.out + ".instance.json", "w", encoding="utf-8") as fh:
        json.dump(system_to_json(system), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_scenarios(args.out + ".scenarios.csv", scenarios)
    _write_json(args.out + ".meta.json", metadata)


def _run_evaluate(args):
    system, scenarios = _load_pair(args)
    start = time.perf_counter()
    per_scenario = scenario_bottlenecks(system, scenarios, args.sense)
    band = asymptotic_ci(per_scenario) if len(per_scenario) > 1 else None
    value = math.fsum(per_scenario) / len(per_scenario)
    elapsed = round(time.perf_counter() - start, 3)
    row = (0.0, value, elapsed,
           band.lower if band else value, band.upper if band else value)
    _write_csv(args.out + ".csv",
               ["theta", "value", "time_sec", "ci_lower", "ci_upper"], [row])
    _write_json(
        args.out + ".json",
        {
            "model": "evaluate",
            "sense": args.sense,
            "mean_value": value,
            "per_scenario": per_scenario,
        },
    )


def _run_oracle(args):
    """Cross-check the fast oracles against enumeration on the instance."""
    system, scenarios = _load_pair(args)
    rng = np.random.default_rng(args.seed)
    n = system.ground.n
    members = enumerate_members(system, force=args.force_enumeration)
    clutter = antichain_reduce(members)
    blocker = blocker_enumerate(clutter)
    checks = 0
    for _ in range(50):
        costs = rng.uniform(0.0, 10.0, size=n)
        primal = bottleneck_value(system, costs).value
        brute_primal = min(max(costs[j] for j in m) for m in members)
        dual = dual_bottleneck_value(system, costs)
        brute_dual = max(min(costs[j] for j in b.elements) for b in blocker)
        if not (primal == brute_primal == dual == brute_dual):
            raise InvariantViolationError(
                f"bottleneck oracle mismatch: {primal} {brute_primal} {dual} {brute_dual}"
            )
        checks += 1
        weights = rng.uniform(0.0, 1.0, size=n)
        fast, _ = min_weight_blocker(system, weights)
        brute = min(math.fsum(weights[j] for j in sorted(b.elements)) for b in blocker)
        if abs(fast - brute) > 1e-9:
            raise InvariantViolationError(
                f"min-weight blocker mismatch: {fast} vs {brute}"
            )
        checks += 1
        t = float(rng.uniform(0.0, 10.0))
        feasible = feasible_at_threshold(system, costs, t)
        brute_feasible = any(all(costs[j] <= t for j in m) for m in members)
        if feasible != brute_feasible:
            raise InvariantViolationError("threshold feasibility mismatch")
        checks += 1
    print(f"all checks passed ({checks} comparisons, "
          f"{len(members)} members, {len(blocker)} blocker elements)")
    _write_csv(args.out + ".csv", ["theta", "value", "time_sec"],
               [(0.0, float(checks), 0.0)])
    _write_json(args.out + ".json", {"model": "oracle", "comparisons": checks,
                                     "members": len(members),
                                     "blocker_elements": len(blocker)})


_RUNNERS = {
    "quantify": _run_quantify,
    "decide": _run_decide,
    "robust-decide": _run_robust_decide,
    "tv-decide": _run_tv_decide,
    "gamma-quantify": _run_gamma_quantify,
    "gamma-decide": _run_gamma_decide,
    "calibrate": _run_calibrate,
    "simulate": _run_simulate,
    "evaluate": _run_evaluate,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _RUNNERS[args.model](args)
    except (DomainError, InvalidInstanceError, ScenarioParseError, ConvergenceError,
            OSError, json.JSONDecodeError) as exc:
        kind = getattr(exc, "kind", "io")
        print(f"error kind={kind}: {exc}", file=sys.stderr)
        return 1
    except EnumerationLimitError as exc:
        print(f"error kind={exc.kind}: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"error kind={exc.kind}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
