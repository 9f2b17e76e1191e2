"""Search contracts: canonical enumeration order and canonical argmins."""

import inspect
import math

import numpy as np
import pytest

from _oracles import (
    brute_members, brute_topk, each_child, each_state, no_accumulators, pruned_members,
    reference_completion_groups,
)
from conftest import dyadic_costs, random_system, states_with_members
from drbottleneck import (
    AssignmentSystem,
    ExplicitSystem,
    PathSystem,
    ScenarioSet,
    TreeSystem,
    iter_members,
    min_member_size,
    minimize_members,
    topk_decision,
    topk_sum_value,
    topk_variance_robust_decision,
)
from drbottleneck._blocks import StateBlock
from drbottleneck.decide import _Maxima
from drbottleneck.errors import InvariantViolationError
from drbottleneck.search import walk_blocks

SYSTEMS = {
    "path": PathSystem(
        nodes=4, edges=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (0, 3)), s=0, t=3
    ),
    "tree": TreeSystem(nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
    "assignment": AssignmentSystem(m=3),
    "explicit": ExplicitSystem(
        members=({2, 3}, {1}, {0, 2}, {1, 3}, {0, 3}), n=4
    ),
}

# paths extend from s along ascending edge ids, trees decide edges in id
# order (include first), matchings assign rows in order, explicit members
# come sorted by size then elements
CANONICAL_ORDER = {
    "path": [{0, 1}, {0, 3, 4}, {2, 3}, {1, 2, 4}, {5}],
    "tree": [
        {0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {0, 2, 4},
        {0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4},
    ],
    "assignment": [{0, 4, 8}, {0, 5, 7}, {1, 3, 8}, {1, 5, 6}, {2, 3, 7}, {2, 4, 6}],
    "explicit": [{1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}],
}

# the same walks with every branch through element 1 cut
PRUNED_ORDER = {
    "path": [{0, 3, 4}, {2, 3}, {5}],
    "tree": [{0, 2, 3}, {0, 2, 4}, {0, 3, 4}],
    "assignment": [{0, 4, 8}, {0, 5, 7}, {2, 3, 7}, {2, 4, 6}],
    "explicit": [{0, 2}, {0, 3}, {2, 3}],
}

# lexicographically smallest sorted member, which is not always the first
# member in canonical order nor the first complete state best-first reaches
TIED_ARGMIN = {
    "path": {0, 1},
    "tree": {0, 1, 2},
    "assignment": {0, 4, 8},
    "explicit": {0, 2},
}


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_iter_members_canonical_order(kind):
    members = list(iter_members(SYSTEMS[kind]))
    assert members == [frozenset(m) for m in CANONICAL_ORDER[kind]]


def test_iter_members_deeper_than_the_recursion_limit():
    # 1,500 parallel tree edges decide one edge per state, and a 1,200-node
    # chain's one path is 1,200 states deep: the walk keeps its own stack
    parallel = TreeSystem(nodes=2, edges=((0, 1),) * 1500)
    assert list(iter_members(parallel)) == [frozenset({j}) for j in range(1500)]
    chain = PathSystem(nodes=1200, edges=tuple((i, i + 1) for i in range(1199)), s=0, t=1199)
    assert list(iter_members(chain)) == [frozenset(range(1199))]


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_iter_members_pruned_order(kind):
    # the frozen per-state walk that the band's block walk replaced
    members = list(pruned_members(SYSTEMS[kind], prune=each_state(lambda els: 1 in els)))
    assert members == [frozenset(m) for m in PRUNED_ORDER[kind]]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_assignment_completion_groups(m):
    # one group per unassigned row; every matching below the state takes one
    # of its cells, and none is a cell the state already has
    system = AssignmentSystem(m)
    states = states_with_members(system)
    assert sum(1 for state, _ in states if state[1]) == math.factorial(m)
    for state, below in states:
        groups = reference_completion_groups(system, state)
        assert len(groups) == m - len(state[0])
        for group in groups.tolist():
            assert not set(group) & state[0]
            assert all(set(group) & member for member in below)


def _blocks_by_depth(system):
    """Every depth of the search tree as one block, with the kind's states there
    in the same order: a block's children, parent by parent, come in
    ``expand`` order.  As in the searches, complete states are not expanded."""
    block, states = system.root_block(), [system.root()]
    while True:
        assert block.elements() == [state[0] for state in states]
        yield block, states
        kept = [i for i, state in enumerate(states) if not state[1]]
        if not kept:
            return
        block = block.take(kept).expand()[0]
        states = [child for i in kept for child in system.expand(states[i])]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_assignment_completion_block(m):
    # row i of a block's groups is the groups of its state i, from the root
    # to the complete matchings, which have none
    system = AssignmentSystem(m)
    for block, states in _blocks_by_depth(system):
        groups = block.groups()
        if states[0][1]:
            assert groups is None
            continue
        assert groups.tolist() == [
            reference_completion_groups(system, state).tolist() for state in states
        ]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_complete_and_empty_blocks_expand_to_empty_blocks(m):
    # as a list block of complete states does, an assignment's block of
    # complete matchings, or of no states, expands to no children
    system = AssignmentSystem(m)
    *_, (complete, states) = _blocks_by_depth(system)
    assert complete.complete().all() and len(complete) == math.factorial(m)
    list_block = StateBlock(system, states)
    for block in (complete, complete.take([]), system.root_block().take([]), list_block):
        children, parents, added, width = block.expand()
        assert (len(children), len(parents), len(added), width) == (0, 0, 0, 1)
        assert children.elements() == []


@pytest.mark.parametrize("kind", ["path", "tree", "explicit"])
def test_base_kinds_have_no_completion_groups(kind):
    system = SYSTEMS[kind]
    assert system.root_block().groups() is None
    assert all(block.groups() is None for block, _ in _blocks_by_depth(system))
    assert all(
        len(reference_completion_groups(system, state)) == 0
        for state, _ in states_with_members(system)
    )


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize(
    "bound, value",
    [
        (each_child(lambda els: 1.0), 1.0),
        (each_child(lambda els: 0.0 if els else -math.inf), 0.0),
    ],
    ids=["constant", "empty-unbounded"],
)
def test_minimize_members_tied_argmin(kind, bound, value):
    system = SYSTEMS[kind]
    best, chosen = minimize_members(system, bound, grow=no_accumulators)
    assert best == value
    assert chosen == frozenset(TIED_ARGMIN[kind])
    assert sorted(chosen) == min(sorted(m) for m in iter_members(system))


def _miscounted(callback, change):
    """``callback`` with one score dropped (-1) or added (+1) for each block of
    more than one child; the root, alone, is scored as it is."""

    def scored(accs, children):
        scores = list(callback(accs, children))
        if len(children) < 2:
            return scores
        return scores[:-1] if change < 0 else scores + scores[-1:]

    return scored


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_minimize_members_refuses_miscounted_scores(kind, change):
    bound = _miscounted(each_child(lambda els: float(len(els))), change)
    with pytest.raises(InvariantViolationError, match="scored"):
        minimize_members(SYSTEMS[kind], bound, grow=no_accumulators)


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_walk_blocks_refuses_miscounted_cuts(kind, change):
    system = SYSTEMS[kind]
    fold = _Maxima(np.arange(2.0 * system.ground.n).reshape(2, -1))
    prune = _miscounted(lambda accs, children: [False] * len(children), change)
    with pytest.raises(InvariantViolationError, match="scored"):
        list(walk_blocks(system, prune, fold.grow))


def test_minimize_members_bound_fn_is_argument_1():
    # the benchmark's layer tracer (perfbench/tracing.py) counts
    # search.minimize_members.bound_evals by wrapping argument 1, found by
    # this position or this name; a rename would silently count nothing
    assert list(inspect.signature(minimize_members).parameters)[1] == "bound_fn"


def test_minimize_members_root_bound_above_optimum():
    # the top-k bound of the empty set is 0, above every all-negative
    # completion; the root is expanded anyway, so the optimum is still found
    system = SYSTEMS["path"]
    costs = [-1.0, -2.0, -3.0, -4.0, -5.0, -0.5]
    value, chosen = topk_sum_value(system, costs, k=1)
    brute = min((max(costs[j] for j in m), sorted(m)) for m in iter_members(system))
    assert (value, sorted(chosen)) == brute


# two s-t paths, {0, 1} and {2, 3}; best-first reaches {2, 3} first, and
# the top-k sum of the partial set {0} (-1) lies above its value (-5), so
# a bound that ignores the element still to come would stop there
NEGATIVE_PATH = PathSystem(nodes=4, edges=((0, 1), (1, 3), (0, 2), (2, 3)), s=0, t=3)
NEGATIVE_COSTS = [-1.0, -100.0, -2.0, -3.0]


def test_topk_sum_negative_costs_k2():
    value, chosen = topk_sum_value(NEGATIVE_PATH, NEGATIVE_COSTS, k=2)
    assert (value, chosen) == (-101.0, frozenset({0, 1}))


def test_topk_sum_mixed_sign_against_brute_force():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 40:
        system = random_system(rng)
        if min_member_size(system) < 2:
            continue
        costs = dyadic_costs(rng, system.ground.n, lo=-640, hi=640)
        k = int(rng.integers(1, min(3, min_member_size(system)) + 1))
        value, chosen = topk_sum_value(system, costs, k)
        assert value == brute_topk(brute_members(system), costs, k)
        assert value == brute_topk([chosen], costs, k)
        checked += 1


def test_topk_decisions_negative_costs():
    scenarios = ScenarioSet([NEGATIVE_COSTS, [-1.0, -90.0, -2.0, -3.0]])
    report = topk_decision(NEGATIVE_PATH, scenarios, radius=0.0, k=2)
    assert (report.objective, report.chosen) == (-96.0, frozenset({0, 1}))
    # the band of the variance model holds only {0, 1}
    report = topk_variance_robust_decision(NEGATIVE_PATH, scenarios, radius=1.0, k=2)
    assert report.chosen == frozenset({0, 1})
