"""The benchmark's workloads: a fixed base instance per workload, relabeled by
the seed, and the ``drbottleneck`` command lines run on it.

Every workload starts from one base instance (generated from a fixed
instance seed, or the bundled data set).  The run seed draws a relabeling of
it: a permutation of the graph's nodes, or of the assignment's columns, with
the ground elements renumbered to match.  Relabeling changes the element
order every oracle sees (edge ids, adjacency order, tie-breaks) but not the
answer, so every seed is checked against one committed reference, and the
amount of work stays close to constant across seeds.

Set-up imports the package itself, because it is timed as the cost a CLI
user pays on every invocation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# Sizes are cut from the paper's so that one pass takes 1-3 s on one core:
# a run then holds enough passes for each command line's shortest time to
# be steady.

# multihop-quantify: the paper's wireless experiment (20 nodes, 190 links,
# the 11-point capacity grid of criterion 13) with 10 scenarios.
MULTIHOP_NODES = 20
MULTIHOP_SAMPLES = 10
MULTIHOP_INSTANCE_SEED = 7
MULTIHOP_GRID = "0,0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2"

# matching-quantify: the bundled 9x9 monthly matching, its first 6 of 12
# scenarios.
BUNDLED_MATCHING = os.path.join("data", "monthly_matching_9x9")
MATCHING_SAMPLES = 6
MATCHING_GRID = "0,0.5,1"

# matching-decide: a 9x9 assignment at the search guard; low-spread means
# make branch and bound work.
DECIDE_SIDE = 9
DECIDE_SAMPLES = 50
DECIDE_INSTANCE_SEED = 4
DECIDE_MEAN = (30.0, 32.0)
DECIDE_STD = (2.0, 4.0)
DECIDE_GRID = "0.5"
DECIDE_TV = "0.5"

# tiny-extensions: a 4-node bridge with s = 0 and t = 3 not adjacent, so
# every path has at least two edges and top-2 sums are defined.  The SLSQP
# top-k run (r = 2) is priced at radius 0.5 only: at radius 1 the family
# level raises ConvergenceError for some relabelings of this instance (a
# program defect, recorded in README.md), and a failing run cannot be timed.
BRIDGE_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
TINY_INSTANCE_SEED = 11
TINY_TOPK_SAMPLES = 6
TINY_SMALL_SAMPLES = 1
# on the first scenario alone every SLSQP start succeeds; the third one makes
# single starts fail, so scipy.minimize.success_ratio shows the defect in part
TINY_SLSQP_SAMPLES = 3
TINY_THETA = "1"
TINY_TOPK_GRID = "0.5,1,2"
TINY_SLSQP_THETA = "0.5"
# a ground order outside {1, 2} makes the element level a bracketed root
TINY_ROOT_ORDER = "1.5"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: Callable[[], tuple[object, dict]]
    runs: Callable[[str], list[tuple[str, list[str]]]]


# --------------------------------------------------------------------------
# relabeling


def relabel(system, rng):
    """A seeded relabeling of ``system``: (system, element_of, column_of).

    ``element_of[new_id]`` is the base element id; ``column_of[new_col]`` is
    the base column of an assignment (None for paths).
    """
    from drbottleneck.systems import AssignmentSystem, PathSystem

    if isinstance(system, PathSystem):
        node = [int(x) for x in rng.permutation(system.nodes)]
        renamed = sorted(
            (min(node[u], node[v]), max(node[u], node[v]), eid)
            for eid, (u, v) in enumerate(system.edges)
        )
        new = PathSystem(
            nodes=system.nodes,
            edges=tuple((u, v) for u, v, _ in renamed),
            s=node[system.s],
            t=node[system.t],
        )
        return new, [eid for _, _, eid in renamed], None
    if isinstance(system, AssignmentSystem):
        m = system.m
        column_of = [int(c) for c in rng.permutation(m)]
        element_of = [system.cell(i, column_of[c]) for i in range(m) for c in range(m)]
        return system, element_of, column_of
    raise TypeError(f"no relabeling for {type(system).__name__}")


def write_inputs(workload: "Workload", seed: int, workdir: str) -> None:
    """Relabel the workload's base instance by ``seed`` and write it out.

    Writes ``<stem>.instance.json`` and ``<stem>.scenarios.csv`` per scenario
    set, and ``relabel.json`` mapping the new labels back to the base ones.
    """
    import numpy as np

    from drbottleneck.scenarios import ScenarioSet, save_scenarios
    from drbottleneck.systems import system_to_json

    system, scenario_sets = workload.base()
    new_system, element_of, column_of = relabel(system, np.random.default_rng(seed))
    for stem, costs in scenario_sets.items():
        path = os.path.join(workdir, stem)
        with open(path + ".instance.json", "w", encoding="utf-8") as fh:
            json.dump(system_to_json(new_system), fh, indent=2, sort_keys=True)
            fh.write("\n")
        save_scenarios(path + ".scenarios.csv", ScenarioSet(costs[:, element_of]))
    with open(os.path.join(workdir, "relabel.json"), "w", encoding="utf-8") as fh:
        json.dump({"element_of": element_of, "column_of": column_of}, fh)


def _pair(workdir: str, stem: str) -> list[str]:
    base = os.path.join(workdir, stem)
    return ["--instance", base + ".instance.json", "--scenarios", base + ".scenarios.csv"]


# --------------------------------------------------------------------------
# multihop-quantify


def _multihop_base():
    from drbottleneck.generate import MultihopParams, generate_multihop

    system, scenarios, _ = generate_multihop(
        MultihopParams(
            nodes=MULTIHOP_NODES, sample_count=MULTIHOP_SAMPLES, seed=MULTIHOP_INSTANCE_SEED
        )
    )
    return system, {"multihop": scenarios.costs}


def _multihop_runs(workdir: str) -> list[tuple[str, list[str]]]:
    pair = _pair(workdir, "multihop")
    grid = ["--theta-grid", MULTIHOP_GRID, "--sense", "capacity"]
    return [
        ("quantify-r1", ["--model", "quantify", *pair, *grid, "--r", "1"]),
        ("calibrate-r2", ["--model", "calibrate", *pair, *grid, "--r", "2"]),
        ("evaluate", ["--model", "evaluate", *pair, "--sense", "capacity"]),
    ]


# --------------------------------------------------------------------------
# matching-quantify


def _matching_base():
    from drbottleneck.scenarios import load_scenarios
    from drbottleneck.systems import system_from_json

    with open(BUNDLED_MATCHING + ".instance.json", encoding="utf-8") as fh:
        system = system_from_json(fh)
    scenarios = load_scenarios(BUNDLED_MATCHING + ".csv")
    return system, {"matching": scenarios.costs[:MATCHING_SAMPLES]}


def _matching_runs(workdir: str) -> list[tuple[str, list[str]]]:
    pair = _pair(workdir, "matching")
    grid = ["--theta-grid", MATCHING_GRID]
    return [
        ("quantify-r1", ["--model", "quantify", *pair, *grid, "--r", "1"]),
        ("quantify-r2", ["--model", "quantify", *pair, *grid, "--r", "2"]),
    ]


# --------------------------------------------------------------------------
# matching-decide


def _decide_base():
    import numpy as np

    from drbottleneck.generate import TruncatedGaussianParams, generate_matching_gaussian

    cells = DECIDE_SIDE * DECIDE_SIDE
    rng = np.random.default_rng(DECIDE_INSTANCE_SEED)
    params = TruncatedGaussianParams(
        means=tuple(rng.uniform(*DECIDE_MEAN, size=cells)),
        base_std=tuple(rng.uniform(*DECIDE_STD, size=cells)),
        scale=1.0,
        sample_count=DECIDE_SAMPLES,
        seed=DECIDE_INSTANCE_SEED + 1,
    )
    system, scenarios, _ = generate_matching_gaussian(params)
    return system, {"decide": scenarios.costs}


def _decide_runs(workdir: str) -> list[tuple[str, list[str]]]:
    pair = _pair(workdir, "decide")
    grid = ["--theta-grid", DECIDE_GRID]
    return [
        ("decide", ["--model", "decide", *pair, *grid]),
        ("robust-decide", ["--model", "robust-decide", *pair, *grid]),
        ("tv-decide", ["--model", "tv-decide", *pair, "--d", DECIDE_TV]),
    ]


# --------------------------------------------------------------------------
# tiny-extensions


def _tiny_base():
    import numpy as np

    from drbottleneck.systems import PathSystem

    system = PathSystem(nodes=4, edges=BRIDGE_EDGES, s=0, t=3)
    rng = np.random.default_rng(TINY_INSTANCE_SEED)
    costs = rng.uniform(0.0, 10.0, size=(TINY_TOPK_SAMPLES, len(BRIDGE_EDGES)))
    return system, {
        "tiny": costs,
        "tiny-small": costs[:TINY_SMALL_SAMPLES],
        "tiny-slsqp": costs[:TINY_SLSQP_SAMPLES],
    }


def _tiny_runs(workdir: str) -> list[tuple[str, list[str]]]:
    pair = _pair(workdir, "tiny")
    small = _pair(workdir, "tiny-small")
    slsqp = _pair(workdir, "tiny-slsqp")
    theta = ["--theta", TINY_THETA]
    topk = ["--gamma", "2"]
    return [
        ("finite-q2", ["--model", "quantify", *small, *theta, "--q", "2"]),
        ("quantify-r1.5", ["--model", "quantify", *pair, "--theta-grid", TINY_TOPK_GRID,
                           "--r", TINY_ROOT_ORDER]),
        ("gamma-quantify-r1", ["--model", "gamma-quantify", *pair, "--theta-grid",
                               TINY_TOPK_GRID, *topk, "--r", "1"]),
        ("gamma-quantify-r2", ["--model", "gamma-quantify", *slsqp, "--theta",
                               TINY_SLSQP_THETA, *topk, "--r", "2"]),
        ("gamma-decide", ["--model", "gamma-decide", *pair, "--theta-grid", "0," + TINY_THETA,
                          *topk, "--r", "2"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "multihop-quantify",
            "path min-cut blockers and element level solves; no assignment blocker, no search",
            _multihop_base,
            _multihop_runs,
        ),
        Workload(
            "matching-quantify",
            "the assignment blocker's loop over row subsets; no path max-flow, no search",
            _matching_base,
            _matching_runs,
        ),
        Workload(
            "matching-decide",
            "branch-and-bound search on a 9x9 assignment; no blocker oracle is called",
            _decide_base,
            _decide_runs,
        ),
        Workload(
            "tiny-extensions",
            "finite transport order, the top-k family LP and SLSQP, top-k blocker enumeration, "
            "brentq",
            _tiny_base,
            _tiny_runs,
        ),
    )
}
