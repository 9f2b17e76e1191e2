"""Search contracts: canonical enumeration order and canonical argmins."""

import math

import numpy as np
import pytest

from _oracles import (
    brute_members, brute_topk, each_child, pruned_members, reference_completion_groups,
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


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_iter_members_pruned_order(kind):
    # the frozen per-state walk that the band's block walk replaced
    members = list(pruned_members(SYSTEMS[kind], prune=each_child(lambda els: 1 in els)))
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_assignment_completion_block(m):
    # row i of a state's block is the groups of its i-th child, and the
    # root's block of one holds the root's groups
    system = AssignmentSystem(m)
    root_groups = reference_completion_groups(system, system.root())
    assert system.completion_block(None).tolist() == [root_groups.tolist()]
    for state, _ in states_with_members(system):
        children = list(system.expand(state))
        block = system.completion_block(state)
        if not children or children[0][1]:
            assert block is None
            continue
        assert block.shape[0] == len(children)
        assert block.tolist() == [
            reference_completion_groups(system, child).tolist() for child in children
        ]


@pytest.mark.parametrize("kind", ["path", "tree", "explicit"])
def test_base_kinds_have_no_completion_groups(kind):
    system = SYSTEMS[kind]
    assert all(
        len(reference_completion_groups(system, state)) == 0
        and system.completion_block(state) is None
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
    best, chosen = minimize_members(system, bound)
    assert best == value
    assert chosen == frozenset(TIED_ARGMIN[kind])
    assert sorted(chosen) == min(sorted(m) for m in iter_members(system))


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
