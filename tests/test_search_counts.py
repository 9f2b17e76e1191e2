"""Scores of the search callbacks: one bound per scored state, one prune per
visited state.

Both searches call their callback (argument 1) once per block, with the
children's accumulators and their block: the root alone, then the children
of each depth of states the best-first search pops in a step, or of every
state of a block the band's walk expands.  These tests wrap both callbacks
around the decision models, count one score per child in each block's
result, and pin those counts, with the best-first search's callback calls,
on one small instance of each kind: at the default byte budget, and at a
budget of one byte, where the best-first search pops one state a step and
scores the states it scored before it popped blocks.  Both searches
generate states with their blocks' ``expand``, where each is counted.
Layer tracing wraps the same arguments, so its counters count blocks.  On
the benchmark's 9x9 assignment the rows summed exactly are pinned too, with
the children and calls of both callbacks.
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
    saa_decision,
    search,
    topk_decision,
    topk_sum_value,
    topk_variance_robust_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from test_band_walk import _decide_instance

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
# radius 0.5, then of topk_variance_robust_decision with k = 2 at radius 0.5,
# with the best-first search popping one state a step; on the assignment the
# maximum fold's one-step lookahead over the free cells of each unassigned
# row cuts (44, 56) states to (27, 39)
ONE_STATE_PINNED = {
    "path": ((9, 9, 2), (9, 9, 1)),
    "tree": ((26, 35, 4), (37, 39, 2)),
    "assignment": ((27, 39, 9), (45, 50, 3)),
    "explicit": ((7, 7, 3), (7, 7, 2)),
}

# (children scored, callback calls) of the best-first search alone, popping one
# state a step: saa_decision, tv_robust_decision at d = 0.5, topk_decision with
# k = 2 at radius 0.5, and topk_sum_value with k = 2 on the first scenario's
# costs
ONE_STATE_SEARCHES = {
    "path": ((9, 4), (6, 3), (9, 4), (6, 3)),
    "tree": ((26, 17), (33, 22), (37, 25), (35, 23)),
    "assignment": ((27, 13), (38, 21), (45, 25), (14, 7)),
    "explicit": ((7, 2), (7, 2), (7, 2), (7, 2)),
}

# the same counts at the default budget, where a step pops every state within
# the limit: until the first complete member is popped, the search on these
# instances expands whole depths and scores every state of the assignment and
# tree; the band's counts do not move
PINNED = {
    "path": ((9, 9, 2), (9, 9, 1)),
    "tree": ((46, 35, 4), (46, 39, 2)),
    "assignment": ((65, 39, 9), (65, 50, 3)),
    "explicit": ((7, 7, 3), (7, 7, 2)),
}
SEARCHES = {
    "path": ((9, 3), (9, 3), (9, 3), (9, 3)),
    "tree": ((46, 7), (44, 7), (46, 7), (46, 7)),
    "assignment": ((65, 5), (65, 5), (65, 5), (65, 5)),
    "explicit": ((7, 2), (7, 2), (7, 2), (7, 2)),
}

# (exact rows, children scored, callback calls) of three models on the 9x9
# base instance of the benchmark's matching-decide workload: the rows that
# decide.exact_row_sums and decide.exact_sum see, and the children both
# searches' callbacks score and their calls.  Keyed by exact scores, the
# searches summed 1,888 (saa), 1,677 (tv) and 1,931 (max) rows, with the same
# children and calls; with float keys for partial states only the complete
# children are summed, and in the band the children the screen leaves unsure.
NINE_BY_NINE = {"saa": (1, 1889, 82), "tv": (3, 1678, 83), "max": (44, 14831, 183)}

MODELS = {
    "max": lambda system, scenarios: variance_robust_decision(system, scenarios, 0.5),
    "top2": lambda system, scenarios: topk_variance_robust_decision(system, scenarios, 0.5, k=2),
    "saa": saa_decision,
    "tv": lambda system, scenarios: tv_robust_decision(system, scenarios, 0.5),
    "topk": lambda system, scenarios: topk_decision(system, scenarios, 0.5, k=2),
    "topk-sum": lambda system, scenarios: topk_sum_value(system, scenarios.costs[0], 2),
}


@pytest.fixture
def traced(monkeypatch):
    """Bound values, bound and prune calls, children pruned, members yielded
    and the states each search generated (the root, then every child a
    block's ``expand`` yields)."""
    counts = dict.fromkeys(["calls", "prune", "members", "pushed", "visited"], 0)
    counts["bounds"] = []
    tally = ["pushed"]  # the count the running search's expansions go to

    def minimize(system, bound_fn, *args, **kwargs):
        def recorded(*block):
            scores = bound_fn(*block)
            counts["calls"] += 1
            counts["bounds"].extend(scores)
            return scores

        tally[0] = "pushed"
        counts["pushed"] += 1
        return minimize_members(system, recorded, *args, **kwargs)

    def walk(system, prune, *args, **kwargs):
        def counted(*block):
            cuts = prune(*block)
            counts["calls"] += 1
            counts["prune"] += len(cuts)
            return cuts

        tally[0] = "visited"
        counts["visited"] += 1
        for members, accs in walk_blocks(system, counted, *args, **kwargs):
            counts["members"] += len(members)
            yield members, accs

    def expand(block):
        children = expand_of[type(block)](block)
        counts[tally[0]] += len(children[0])
        return children

    minimize_members, walk_blocks = decide.minimize_members, decide.walk_blocks
    monkeypatch.setattr(decide, "minimize_members", minimize)
    monkeypatch.setattr(decide, "walk_blocks", walk)
    expand_of = {type(s.root_block()): type(s.root_block()).expand for s in SYSTEMS.values()}
    for cls in expand_of:
        monkeypatch.setattr(cls, "expand", expand)
    return counts


def _scenarios(system):
    rng = np.random.default_rng(5)
    return ScenarioSet(rng.integers(0, 6, size=(6, system.ground.n)).astype(float))


def _check_counts(traced, kind, model, pinned, searches):
    system = SYSTEMS[kind]
    MODELS[model](system, _scenarios(system))
    bounds = len(traced["bounds"])
    assert bounds == traced["pushed"]
    assert traced["prune"] == traced["visited"]
    if model in ("max", "top2"):
        assert (bounds, traced["prune"], traced["members"]) == pinned[kind][model == "top2"]
    else:
        assert (bounds, traced["calls"]) == searches[kind][list(MODELS).index(model) - 2]
    assert traced["bounds"][0] == -math.inf  # the empty root


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("model", list(MODELS))
def test_one_callback_per_scored_state(traced, kind, model):
    _check_counts(traced, kind, model, PINNED, SEARCHES)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("model", list(MODELS))
def test_one_state_a_step_scores_the_same_states(traced, monkeypatch, kind, model):
    """At a budget of one byte the best-first search pops one state a step,
    as it did before it popped blocks, and scores the same states."""
    monkeypatch.setattr(search, "BLOCK_BYTES", 1)
    _check_counts(traced, kind, model, ONE_STATE_PINNED, ONE_STATE_SEARCHES)


@pytest.mark.parametrize("model", sorted(NINE_BY_NINE))
def test_nine_by_nine_sums_only_complete_members(traced, monkeypatch, model):
    rows = [0]
    row_sums, one_sum = decide.exact_row_sums, decide.exact_sum

    def counted_rows(block, *args):
        block = list(block)
        rows[0] += len(block)
        return row_sums(block, *args)

    def counted_sum(values, *args):
        rows[0] += 1
        return one_sum(values, *args)

    monkeypatch.setattr(decide, "exact_row_sums", counted_rows)
    monkeypatch.setattr(decide, "exact_sum", counted_sum)
    MODELS[model](*_decide_instance())
    children = len(traced["bounds"]) + traced["prune"]
    assert (rows[0], children, traced["calls"]) == NINE_BY_NINE[model]
