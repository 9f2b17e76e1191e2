"""The budgeted best-first search against the frozen search of one state a step.

``search.minimize_members`` pops as many states a step as fit its byte
budget and keeps each block's accumulators in the heap;
``_oracles.per_state_minimize`` pops one state a step and rebuilds its
accumulator from its elements.  With the decision models' admissible keys
both must return the same ``(value, chosen)``, on every kind and every fold.
A step of more than one state must keep its largest temporary, the
lookahead gather, within the budget.
"""

from functools import partial

import numpy as np
import pytest

from _oracles import per_state_minimize
from conftest import random_system
from drbottleneck import AssignmentSystem, ScenarioSet, decide, min_member_size, search
from test_band_walk import _decide_instance

AGGREGATES = {
    "max": (None, decide._means),
    "top2": (2, decide._means),
    "top3": (3, decide._means),
    "tv": (None, partial(decide._tv_objectives, d=0.5)),
}


def _cost_shapes(rng, n):
    """Integer ties, one scenario, negative costs and mixed signs."""
    count = int(rng.integers(2, 7))
    yield rng.integers(0, 4, size=(count, n)).astype(float)
    yield rng.uniform(0.0, 10.0, size=(1, n))
    yield -rng.integers(0, 3, size=(count, n)).astype(float)
    yield rng.uniform(-10.0, 5.0, size=(count, n))


def _check(monkeypatch, system, costs, aggregate):
    """Both searches' ``(value, chosen)`` under one fold; returns the pair."""
    k, fn = AGGREGATES[aggregate]
    fold = decide._fold(system, ScenarioSet(costs), k=k)
    found = decide._minimize(system, fold, fn, False)[:2]
    with monkeypatch.context() as patched:
        patched.setattr(decide, "minimize_members", per_state_minimize)
        expected = decide._minimize(system, fold, fn, False)[:2]
    assert found == expected, (costs, aggregate)
    return found


def _aggregates(system):
    return [a for a, (k, _) in AGGREGATES.items() if (k or 1) <= min_member_size(system)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_assignment_matches_per_state_search(monkeypatch, m):
    rng = np.random.default_rng(140 + m)
    system = AssignmentSystem(m)
    for costs in _cost_shapes(rng, m * m):
        for aggregate in _aggregates(system):
            _check(monkeypatch, system, costs, aggregate)


@pytest.mark.parametrize("kind", ["path", "tree", "explicit"])
def test_other_kinds_match_per_state_search(monkeypatch, kind):
    rng = np.random.default_rng(["path", "tree", "explicit"].index(kind) + 150)
    topk_checked = 0
    for _ in range(8):
        system = random_system(rng, kind)
        for costs in _cost_shapes(rng, system.ground.n):
            for aggregate in _aggregates(system):
                topk_checked += aggregate.startswith("top")
                _check(monkeypatch, system, costs, aggregate)
    assert topk_checked > 0


@pytest.mark.parametrize("aggregate", ["max", "tv"])
def test_decide_instance_matches_per_state_search(monkeypatch, aggregate):
    system, scenarios = _decide_instance()
    _, chosen = _check(monkeypatch, system, scenarios.costs, aggregate)
    assert len(chosen) == 9


@pytest.mark.parametrize("budget", [None, 1 << 16], ids=["default", "64KiB"])
def test_steps_stay_within_the_byte_budget(monkeypatch, budget):
    """Every lookahead gather of more than one state fits the budget, and
    some gather takes more than one state.  At 64 KiB the 9x9 instance's
    upper levels are expanded one state a step; the result does not change."""
    system, scenarios = _decide_instance()
    expected = decide.saa_decision(system, scenarios)
    gathers = []  # (bytes gathered, states expanded)
    lookaheads = decide._Maxima.lookaheads

    def recorded(self, block, groups):
        children, _, cells = groups.shape  # each state has cells + 1 children
        gathers.append((groups.size * block.shape[1] * block.itemsize, children // (cells + 1)))
        return lookaheads(self, block, groups)

    monkeypatch.setattr(decide._Maxima, "lookaheads", recorded)
    if budget is not None:
        monkeypatch.setattr(search, "BLOCK_BYTES", budget)
    assert decide.saa_decision(system, scenarios) == expected
    assert all(size <= search.BLOCK_BYTES for size, states in gathers if states > 1)
    assert max(states for _, states in gathers) > 1
    if budget is not None:
        assert any(size > budget for size, _ in gathers)  # a state alone exceeds it
