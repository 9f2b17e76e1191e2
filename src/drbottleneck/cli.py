"""Command-line front end.

One run executes one model over an instance/scenario pair (or a generator)
and writes a results CSV plus a JSON summary next to the requested output
prefix.  Numbers are written with shortest round-trip precision; repeated
runs of the same configuration produce identical outputs except for the
wall-time columns.  Each output is built in memory and rewritten in place by
``scenarios.write_in_place``: an existing file keeps its inode and is written
over, not truncated to zero first, and nothing is fsynced.

Exit codes: 0 success, 1 domain or parse errors, 2 scale-guard refusals, 3
internal invariant violations.  A refusal is an exact search past the search
budget, or a blocker oracle past its size limit: an assignment side above
``ASSIGNMENT_BLOCKER_LIMIT``, or an explicit system's blocker enumeration
past ``BLOCKER_ENUMERATION_LIMIT`` elements or ``TRANSVERSAL_MAX_CANDIDATES``
candidates a step.  ``--force-enumeration`` lifts the search budget, never a
blocker limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .calibrate import asymptotic_ci, smallest_radius_in_band
from .decide import (
    _shifted,
    matching_permutation,
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
    check_count,
    check_transport_order,
)
from .generate import (
    MultihopParams,
    TruncatedGaussianParams,
    generate_matching_gaussian,
    generate_multihop,
)
from .quantify import (
    WassersteinBall,
    empirical_record,
    quantify_robust_finite_order,
    quantify_topk,
    topk_record,
)
from .scenarios import load_scenarios, require_matching_width, save_scenarios, write_in_place
from .systems import AssignmentSystem, system_from_json, system_to_json

JSON_SCHEMA_VERSION = 1


def _parse_order(text: str) -> float:
    if text in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def _parse_grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="drbottleneck",
        description="Distributionally robust bottleneck solvers and experiments.",
    )
    parser.add_argument("--model", choices=MODELS, required=True)
    parser.add_argument("--instance", help="instance JSON path")
    parser.add_argument("--scenarios", help="scenario CSV path")
    parser.add_argument("--theta", type=float, help="single ambiguity radius")
    parser.add_argument(
        "--theta-grid", type=_parse_grid,
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
                        help="lift the search budget; the blocker oracles' size limits stay")
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


def _reject_nan(args) -> None:
    """NaN fails every ordered comparison, so no domain check downstream sees it."""
    options = {"--theta": [args.theta], "--theta-grid": args.theta_grid or [],
               "--d": [args.d], "--q": [args.q], "--r": [args.r]}
    for option, values in options.items():
        if any(v is not None and math.isnan(v) for v in values):
            raise DomainError(f"{option} must be a number, not NaN")


def _radius_grid(args) -> list[float]:
    if args.theta_grid is not None:
        if not args.theta_grid:
            raise DomainError("--theta-grid needs at least one radius")
        if args.theta_grid != sorted(args.theta_grid):
            raise DomainError("--theta-grid must be sorted ascending")
        return args.theta_grid
    if args.theta is not None:
        return [args.theta]
    return [0.0]


def _tv_grid(args) -> list[float]:
    if args.d is None:
        raise DomainError(f"--model {args.model} needs --d")
    return [args.d]


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_num(v) if isinstance(v, float) else v for v in row] for row in rows)
    write_in_place(path, text.getvalue(), newline="")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path, payload) -> None:
    write_in_place(path, _json_text({"schema_version": JSON_SCHEMA_VERSION, **payload}))


def _load_pair(args):
    if not args.instance or not args.scenarios:
        raise DomainError("this model needs --instance and --scenarios")
    with open(args.instance, "r", encoding="utf-8") as fh:
        system = system_from_json(fh)
    scenarios = load_scenarios(args.scenarios)
    require_matching_width(scenarios, system)
    return system, scenarios


@dataclass(frozen=True)
class _GridModel:
    """A model run once per radius of a grid over one instance/scenario pair.

    ``prepare(args, system, scenarios)`` computes what every radius shares,
    such as the quantify, calibrate and evaluate models' empirical record of
    per-scenario bottlenecks and gamma-quantify's top-k record; it runs
    before the first radius, so no row's ``time_sec`` includes it.
    ``point(args, system, scenarios, prepared, theta)`` is the timed work for
    one radius; it returns the value, the CSV values of ``columns`` and the
    JSON record.  ``summary(args, prepared, grid, records)`` gives the JSON
    fields besides the model name.  ``inf_only`` models take no finite --q,
    and ``cost_only`` models no ``--sense capacity``.
    """

    point: Callable
    summary: Callable = lambda args, prepared, grid, records: {"results": records}
    prepare: Callable = lambda args, system, scenarios: None
    columns: tuple[str, ...] = ()
    grid: Callable = _radius_grid
    inf_only: bool = False
    cost_only: bool = False

    def __call__(self, args) -> None:
        if self.inf_only and not math.isinf(args.q):
            raise DomainError(f"--model {args.model} supports transport order inf only")
        if self.cost_only and args.sense != "cost":
            raise DomainError(f"--model {args.model} supports the cost sense only")
        system, scenarios = _load_pair(args)
        grid = self.grid(args)
        prepared = self.prepare(args, system, scenarios)
        rows, records = [], []
        for theta in grid:
            start = time.perf_counter()
            value, extra, record = self.point(args, system, scenarios, prepared, theta)
            rows.append((theta, value, round(time.perf_counter() - start, 3), *extra))
            records.append(record)
        _write_csv(args.out + ".csv", ["theta", "value", "time_sec", *self.columns], rows)
        summary = self.summary(args, prepared, grid, records)
        _write_json(args.out + ".json", {"model": args.model, **summary})


def _robust_value(args, record, theta) -> float:
    return record.quote(WassersteinBall(radius=theta, ground_order=args.r)).value


def _empirical_record(args, system, scenarios):
    return empirical_record(system, scenarios, sense=args.sense)


def _quantify_point(args, system, scenarios, record, theta):
    if math.isinf(args.q):
        value = _robust_value(args, record, theta)
        return value, (), {"theta": theta, "value": value}
    value, lam = quantify_robust_finite_order(record, theta, args.q, args.r)
    multiplier = lam if math.isfinite(lam) else "inf"
    return value, (), {"theta": theta, "value": value, "multiplier": multiplier}


def _decision(solve, key: str = "theta"):
    """A point that records the report of ``solve(args, system, scenarios, theta)``."""

    def point(args, system, scenarios, prepared, theta):
        return _decision_record(system, solve(args, system, scenarios, theta), {key: theta})

    return point


def _decision_record(system, report, fields):
    record = report.to_dict()
    if isinstance(system, AssignmentSystem):
        record["permutation"] = matching_permutation(system, report.chosen)
    return report.objective, (), {**record, **fields}


def _shift_point(args, system, scenarios, base, theta):
    """The robust decision is the sample-average one, searched once, shifted."""
    report = _shifted(base, theta)
    gap = report.objective - base.objective - theta
    fields = {"theta": theta, "saa_objective": base.objective, "shift_identity_gap": gap}
    return _decision_record(system, report, fields)


def _gamma_quantify_point(args, system, scenarios, topk, theta):
    quote = quantify_topk(topk, theta, args.r)
    value = quote.exact if quote.exact is not None else quote.upper
    record = {"theta": theta, "value": value, "saa": quote.saa, "lower": quote.lower,
              "upper": quote.upper, "exact_available": quote.exact is not None,
              "downgraded": quote.downgraded}
    return value, (quote.saa, quote.lower, quote.upper), record


def _calibrate_prepare(args, system, scenarios):
    record = _empirical_record(args, system, scenarios)
    return record, asymptotic_ci(record.values)


def _calibrate_point(args, system, scenarios, prepared, theta):
    record, band = prepared
    value = _robust_value(args, record, theta)
    return value, (band.lower, band.upper), {"theta": theta, "value": value}


def _calibrate_summary(args, prepared, grid, records):
    _, band = prepared
    endpoint = "lower" if args.sense == "capacity" else "upper"
    values = [record["value"] for record in records]
    return {
        "sense": args.sense,
        "saa_ci": {"lower": band.lower, "upper": band.upper, "point": band.point},
        "band_endpoint": endpoint,
        "selected_theta": smallest_radius_in_band(grid, values, band, args.sense, endpoint),
        "results": records,
    }


def _evaluate_point(args, system, scenarios, record, theta):
    per_scenario = list(record.values)
    band = asymptotic_ci(per_scenario) if len(per_scenario) > 1 else None
    value = record.saa
    ci = (band.lower, band.upper) if band else (value, value)
    return value, ci, {"mean_value": value, "per_scenario": per_scenario}


def _simulate(args):
    if args.generator == "multihop":
        params = MultihopParams(
            nodes=args.nodes, sample_count=args.samples, seed=args.seed
        )
        system, scenarios, metadata = generate_multihop(params)
    else:
        side = check_count(args.side, "side")
        rng = np.random.default_rng(check_count(args.seed, "seed", 0))
        means = tuple(rng.uniform(20.0, 60.0, size=side * side))
        stds = tuple(rng.uniform(1.0, 5.0, size=side * side))
        params = TruncatedGaussianParams(
            means=means, base_std=stds, scale=1.0,
            sample_count=args.samples, seed=args.seed + 1,
        )
        system, scenarios, metadata = generate_matching_gaussian(params)
    write_in_place(args.out + ".instance.json", _json_text(system_to_json(system)))
    save_scenarios(args.out + ".scenarios.csv", scenarios)
    _write_json(args.out + ".meta.json", metadata)


MODELS = {
    "quantify": _GridModel(
        _quantify_point,
        prepare=_empirical_record,
        summary=lambda args, record, grid, records: {
            "sense": args.sense,
            "transport_order": "inf" if math.isinf(args.q) else args.q,
            "ground_order": args.r,
            "saa": record.saa,
            "results": records,
        },
    ),
    "decide": _GridModel(
        _shift_point,
        prepare=lambda args, system, scenarios: saa_decision(
            system, scenarios, force=args.force_enumeration
        ),
        inf_only=True,
        cost_only=True,
    ),
    "robust-decide": _GridModel(
        _decision(lambda args, system, scenarios, theta: variance_robust_decision(
            system, scenarios, theta, force=args.force_enumeration
        )),
        inf_only=True,
        cost_only=True,
    ),
    "tv-decide": _GridModel(
        _decision(lambda args, system, scenarios, d: tv_robust_decision(
            system, scenarios, d, force=args.force_enumeration
        ), key="d"),
        grid=_tv_grid,
        cost_only=True,
    ),
    "gamma-quantify": _GridModel(
        _gamma_quantify_point,
        prepare=lambda args, system, scenarios: topk_record(
            system, scenarios, args.gamma, force=args.force_enumeration
        ),
        columns=("saa", "lower", "upper"),
        summary=lambda args, _, grid, records: {
            "k": args.gamma, "ground_order": args.r, "results": records
        },
        inf_only=True,
        cost_only=True,
    ),
    "gamma-decide": _GridModel(
        _decision(lambda args, system, scenarios, theta: topk_decision(
            system, scenarios, theta, args.gamma, args.r, force=args.force_enumeration
        )),
        summary=lambda args, _, grid, records: {"k": args.gamma, "results": records},
        inf_only=True,
        cost_only=True,
    ),
    "calibrate": _GridModel(
        _calibrate_point,
        prepare=_calibrate_prepare,
        columns=("ci_lower", "ci_upper"),
        summary=_calibrate_summary,
        inf_only=True,
    ),
    "simulate": _simulate,
    "evaluate": _GridModel(
        _evaluate_point,
        prepare=_empirical_record,
        grid=lambda args: [0.0],
        columns=("ci_lower", "ci_upper"),
        summary=lambda args, _, grid, records: {"sense": args.sense, **records[0]},
    ),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _reject_nan(args)
        check_transport_order(args.q)
        MODELS[args.model](args)
    except (DomainError, InvalidInstanceError, ScenarioParseError, ConvergenceError,
            OSError, json.JSONDecodeError) as exc:
        kind = getattr(exc, "kind", "io")
        print(f"error kind={kind}: {exc}", file=sys.stderr)
        return 1
    except (EnumerationLimitError, InvariantViolationError) as exc:
        print(f"error kind={exc.kind}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, EnumerationLimitError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
