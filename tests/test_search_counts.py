"""Call counts of the search callbacks: one bound per scored state, one prune
per visited state.

Layer tracing wraps ``minimize_members``'s ``bound_fn`` and ``iter_members``'s
``prune`` (argument 1 of each, called with an accumulator and a state) in
counting closures, and reads its branch and bound counts from them.  These tests wrap them the same way around the
decision models and pin the counts on one small instance of each kind.
"""

import math

import numpy as np
import pytest

from drbottleneck import (
    AssignmentSystem,
    ExplicitSystem,
    PathSystem,
    ScenarioSet,
    TreeSystem,
    decide,
    topk_variance_robust_decision,
    variance_robust_decision,
)

SYSTEMS = {
    "path": PathSystem(
        nodes=5, edges=((0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (1, 2), (1, 3), (2, 4)), s=0, t=4
    ),
    "tree": TreeSystem(nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))),
    "assignment": AssignmentSystem(m=4),
    "explicit": ExplicitSystem(
        members=({2, 3}, {1, 4}, {0, 2, 5}, {1, 3}, {0, 3, 4}, {4, 5}), n=6
    ),
}

# (bound calls, prune calls, members yielded) of variance_robust_decision at
# radius 0.5, then of topk_variance_robust_decision with k = 2 at radius 0.5;
# on the assignment the maximum fold's one-step lookahead over the free cells
# of each unassigned row cuts (44, 56) states to (27, 39)
PINNED = {
    "path": ((9, 9, 2), (9, 9, 1)),
    "tree": ((26, 35, 4), (37, 39, 2)),
    "assignment": ((27, 39, 9), (45, 50, 3)),
    "explicit": ((7, 7, 3), (7, 7, 2)),
}


@pytest.fixture
def traced(monkeypatch):
    """Bound values, prune calls, members yielded and the states each search
    generated (the root, then every child ``expand`` yields)."""
    counts = dict.fromkeys(["prune", "members", "pushed", "visited"], 0)
    counts["bounds"] = []
    phase = ["pushed"]

    def minimize(system, bound_fn, *args, **kwargs):
        def recorded(*scored):
            counts["bounds"].append(bound_fn(*scored))
            return counts["bounds"][-1]

        phase[0] = "pushed"
        counts["pushed"] += 1
        return minimize_members(system, recorded, *args, **kwargs)

    def iterate(system, prune, *args, **kwargs):
        def counted(*visited):
            counts["prune"] += 1
            return prune(*visited)

        phase[0] = "visited"
        counts["visited"] += 1
        for member in iter_members(system, counted, *args, **kwargs):
            counts["members"] += 1
            yield member

    def expand(system, state):
        for child in expand_of[type(system)](system, state):
            counts[phase[0]] += 1
            yield child

    minimize_members, iter_members = decide.minimize_members, decide.iter_members
    expand_of = {type(s): type(s).expand for s in SYSTEMS.values()}
    monkeypatch.setattr(decide, "minimize_members", minimize)
    monkeypatch.setattr(decide, "iter_members", iterate)
    for cls in expand_of:
        monkeypatch.setattr(cls, "expand", expand)
    return counts


def _scenarios(system):
    rng = np.random.default_rng(5)
    return ScenarioSet(rng.integers(0, 6, size=(6, system.ground.n)).astype(float))


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("model", [0, 1], ids=["max", "top2"])
def test_one_callback_per_scored_state(traced, kind, model):
    system = SYSTEMS[kind]
    if model == 0:
        variance_robust_decision(system, _scenarios(system), 0.5)
    else:
        topk_variance_robust_decision(system, _scenarios(system), 0.5, k=2)
    counts = (len(traced["bounds"]), traced["prune"], traced["members"])
    assert len(traced["bounds"]) == traced["pushed"]
    assert traced["prune"] == traced["visited"]
    assert counts == PINNED[kind][model]
    assert traced["bounds"][0] == -math.inf  # the empty root
