"""The band's block walk against the frozen per-state walk.

``decide._band`` walks the indifference band a block of states at a time
(``search.walk_blocks``); ``_oracles.reference_band`` walks it one state at a
time with ``_oracles.pruned_members``, pruning on the exact mean of a
set-function score.  Both must give the same multiset of (member, values,
mean), or the same refusal, on every kind and both folds.  A block of more
than one state must keep its largest temporary, the lookahead gather, within
the walk's byte budget.
"""

import math

import numpy as np
import pytest

from _oracles import reference_band, reference_minimize, reference_score
from conftest import random_system
from drbottleneck import (
    AssignmentSystem,
    DomainError,
    ScenarioSet,
    TruncatedGaussianParams,
    decide,
    generate_matching_gaussian,
    min_member_size,
    search,
)
from drbottleneck.errors import exact_mean


def _outcome(band):
    """The band as a sorted list of (sorted member, values, mean), or the
    message it is refused with."""
    try:
        return sorted((tuple(sorted(m)), tuple(v), mean) for m, v, mean in band)
    except DomainError as exc:
        return str(exc)


def _check_band(system, costs, shift, k=None):
    """The block walk's band against the frozen walk's, at the reference SAA
    optimum plus ``shift``; returns the band."""
    score = reference_score(costs, k)
    threshold = reference_minimize(system, score, exact_mean)[0] + shift
    fold = decide._fold(system, ScenarioSet(costs), k=k)
    band = _outcome(decide._band(system, fold, threshold))
    assert band == _outcome(reference_band(system, score, threshold)), (costs, shift, k)
    return band


def _assignment_costs(rng, m):
    """Integer ties, one scenario, negative costs, then costs near the float
    limit whose pad is infinite, so the maximum fold takes the exact path
    only (the top-k fold always does)."""
    n = m * m
    count = int(rng.integers(2, 7))
    yield rng.integers(0, 4, size=(count, n)).astype(float)
    yield rng.uniform(0.0, 10.0, size=(1, n))
    yield rng.uniform(-10.0, 5.0, size=(count, n))
    yield -rng.integers(0, 3, size=(count, n)).astype(float)
    for sign in (1.0, -1.0):
        yield sign * rng.uniform(0.5, 1.0, size=(count, n)) * (1.7e308 / count)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_assignment_band_matches_frozen_walk(m):
    rng = np.random.default_rng(120 + m)
    system = AssignmentSystem(m)
    shapes = list(_assignment_costs(rng, m))
    for index, costs in enumerate(shapes):
        near_limit = index >= len(shapes) - 2
        assert (decide._Maxima(costs).pad == math.inf) == near_limit
        scale = float(np.abs(costs).max())
        for shift in (0.0, 0.05 * scale, 0.3 * scale):
            assert _check_band(system, costs, shift)
            # near the limit a top-2 sum overflows, and the SAA optimum with it
            if m >= 2 and not near_limit:
                assert _check_band(system, costs, shift, k=2)


@pytest.mark.parametrize("kind", ["path", "tree", "explicit"])
def test_other_kinds_band_matches_frozen_walk(kind):
    rng = np.random.default_rng(["path", "tree", "explicit"].index(kind) + 130)
    topk_checked = 0
    for _ in range(8):
        system = random_system(rng, kind)
        n = system.ground.n
        for costs in (rng.integers(0, 4, size=(4, n)).astype(float),
                      rng.uniform(-10.0, 5.0, size=(int(rng.integers(1, 6)), n))):
            for shift in (0.0, 0.5, 3.0):
                assert _check_band(system, costs, shift)
                if min_member_size(system) >= 2:
                    topk_checked += 1
                    assert _check_band(system, costs, shift, k=2)
    assert topk_checked > 0


def _decide_instance():
    """The 9x9 assignment of the benchmark's ``matching-decide`` workload,
    before its seeded relabeling."""
    rng = np.random.default_rng(4)
    params = TruncatedGaussianParams(
        means=tuple(rng.uniform(30.0, 32.0, size=81)),
        base_std=tuple(rng.uniform(2.0, 4.0, size=81)),
        scale=1.0,
        sample_count=50,
        seed=5,
    )
    system, scenarios, _ = generate_matching_gaussian(params)
    return system, scenarios


@pytest.mark.parametrize("theta, size", [(0.25, 6), (0.5, 43), (1.0, 3195)])
def test_decide_instance_band_matches_frozen_walk(theta, size):
    system, scenarios = _decide_instance()
    threshold = decide.saa_decision(system, scenarios).objective + theta
    band = _outcome(decide._band(system, decide._Maxima(scenarios.costs), threshold))
    assert len(band) == size
    assert band == _outcome(reference_band(system, reference_score(scenarios.costs), threshold))


@pytest.mark.parametrize("budget", [None, 1 << 16], ids=["default", "64KiB"])
def test_blocks_stay_within_the_byte_budget(monkeypatch, budget):
    """Every lookahead gather of a block of more than one state fits the
    budget.  At 64 KiB the 9x9 instance's upper levels are walked one state
    a block and its lower ones several; the band does not change."""
    system, scenarios = _decide_instance()
    fold = decide._Maxima(scenarios.costs)
    threshold = decide.saa_decision(system, scenarios).objective + 0.5
    expected = _outcome(decide._band(system, fold, threshold))
    gathers = []  # (bytes gathered, states expanded)
    lookaheads = decide._Maxima.lookaheads

    def recorded(self, block, groups):
        children, _, cells = groups.shape  # each state has cells + 1 children
        gathers.append((groups.size * block.shape[1] * block.itemsize, children // (cells + 1)))
        return lookaheads(self, block, groups)

    monkeypatch.setattr(decide._Maxima, "lookaheads", recorded)
    if budget is not None:
        monkeypatch.setattr(search, "BLOCK_BYTES", budget)
    assert _outcome(decide._band(system, fold, threshold)) == expected
    assert all(size <= search.BLOCK_BYTES for size, states in gathers if states > 1)
    assert max(states for _, states in gathers) > 1
    if budget is not None:
        assert any(size > budget for size, _ in gathers)  # a state alone exceeds it
