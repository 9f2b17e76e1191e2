"""Scores of the search callbacks: one bound per scored state, one prune per
visited state.

The best-first search calls its callback (argument 1) once per block: the
root alone, then the children of each expanded state, with the block's
accumulators, the parent state and the children.  The band's block walk
calls its callback (argument 1) once per step: the root alone, then the
children of every state of an expanded block, with their accumulators and
their block.  These tests wrap both callbacks around the decision models,
count one score per child in each block's result, and pin those counts on
one small instance of each kind.  The best-first search generates states
with the kind's ``expand``, the block walk with its blocks' ``expand``, so
each is counted where it is made.  Layer tracing wraps the same arguments,
so its counters count blocks.
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
    generated (the root, then every child ``expand`` or a block's ``expand``
    yields)."""
    counts = dict.fromkeys(["prune", "members", "pushed", "visited"], 0)
    counts["bounds"] = []
    walking = [False]  # a default block's expand calls the kind's, uncounted

    def minimize(system, bound_fn, *args, **kwargs):
        def recorded(*block):
            scores = bound_fn(*block)
            counts["bounds"].extend(scores)
            return scores

        walking[0] = False
        counts["pushed"] += 1
        return minimize_members(system, recorded, *args, **kwargs)

    def walk(system, prune, *args, **kwargs):
        def counted(*block):
            cuts = prune(*block)
            counts["prune"] += len(cuts)
            return cuts

        walking[0] = True
        counts["visited"] += 1
        for members, accs in walk_blocks(system, counted, *args, **kwargs):
            counts["members"] += len(members)
            yield members, accs

    def expand(system, state):
        for child in expand_of[type(system)](system, state):
            counts["pushed"] += not walking[0]
            yield child

    def expand_block(block):
        children = expand_block_of[type(block)](block)
        counts["visited"] += len(children[0])
        return children

    minimize_members, walk_blocks = decide.minimize_members, decide.walk_blocks
    expand_of = {type(s): type(s).expand for s in SYSTEMS.values()}
    monkeypatch.setattr(decide, "minimize_members", minimize)
    monkeypatch.setattr(decide, "walk_blocks", walk)
    for cls in expand_of:
        monkeypatch.setattr(cls, "expand", expand)
    expand_block_of = {type(s.root_block()): type(s.root_block()).expand for s in SYSTEMS.values()}
    for cls in expand_block_of:
        monkeypatch.setattr(cls, "expand", expand_block)
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
