"""The oracle and search fast paths against frozen copies of the routes they
replace.

Every comparison is ``==``: the fast paths must return the same values,
members, witnesses, partitions and decision reports bit for bit.  The two
exceptions are routes that replaced solvers accurate only to their
tolerances.  The certified numpy top-k family level is checked against
enumeration within 1e-12 and against HiGHS and SLSQP within 1e-9; the
Newton prefix root is checked against ``brentq`` within 1e-13 and, unlike
``brentq``, must meet its budget.  The finite-order value is checked
against the nested golden sections it replaced within 1e-9, and its
certificate against brute force.
"""

import math
import sys
import warnings
from collections import Counter
from functools import partial
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest

import _oracles
from _oracles import (
    brute_bottleneck,
    brute_family_level,
    brute_members,
    brute_minimal_cut_side,
    enumerate_members,
    reference_assignment_blocker,
    reference_band,
    reference_base_bottleneck,
    reference_bracketed_root,
    reference_completion_groups,
    reference_family_level,
    reference_finite_order,
    reference_least_variance_in_band,
    reference_min_st_cut_side,
    reference_minimize,
    reference_path_blocker,
    reference_path_bottleneck,
    reference_prefix_level,
    reference_score,
    reference_topk_sum_value,
    reference_tv_objective,
)
from conftest import (
    count_calls,
    random_assignment_system,
    random_explicit_system,
    random_path_system,
    random_system,
    random_tree_system,
)
from drbottleneck import (
    AssignmentSystem,
    ConvergenceError,
    DomainError,
    EnumerationLimitError,
    ExplicitSystem,
    PathSystem,
    ScenarioSet,
    TreeSystem,
    antichain_reduce,
    bottleneck_value,
    decide,
    empirical_record,
    indifference_set,
    load_scenarios,
    min_member_size,
    min_weight_blocker,
    quantify_robust_finite_order,
    robust_decision,
    saa_decision,
    system_from_json,
    systems,
    topk_blocker_enumerate,
    topk_decision,
    topk_sum_value,
    topk_variance_robust_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from drbottleneck import _family, _finite, quantify
from drbottleneck._blocks import padded_elements
from drbottleneck._graphs import min_st_cut_side
from drbottleneck.decide import (
    _radius_shift, _report, _shifted, _tv_breakpoints, _tv_objectives
)
from drbottleneck.errors import exact_mean
from drbottleneck.quantify import _family_level, _lift_root, _prefix_level

ORDERS = (1.0, 2.0, 1.5)


def _cost_vectors(rng, m):
    """Seeded random costs, then the degenerate shapes."""
    yield rng.uniform(0.0, 10.0, size=m)
    yield rng.integers(0, 3, size=m).astype(float)  # ties
    yield np.full(m, 2.5)  # all equal
    yield -rng.uniform(0.0, 10.0, size=m)  # the capacity sense
    yield np.round(rng.normal(size=m), 1) * 1e6  # ties at a large magnitude
    x = float(rng.uniform(1.0, 2.0))
    yield x + np.arange(m) * np.spacing(x)  # costs one ulp apart


def _element_costs(seed):
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3, 5, 8, 19, 40):
        for c in _cost_vectors(rng, m):
            yield np.sort(c)


@pytest.mark.parametrize("r", ORDERS)
@pytest.mark.parametrize("radius", [0.0, 1e-12, 0.05, 0.7, 6.0])
def test_prefix_level_matches_reference(r, radius):
    for c in _element_costs(int(radius * 1000) + int(r * 10)):
        assert _prefix_level(c, radius, r) == reference_prefix_level(c, radius, r), (
            c.tolist()
        )


@pytest.mark.parametrize(
    "costs, r, level",
    [([1e308, 1e308], 1.0, 1e308), ([1e308, 1e308], 2.0, 1e308), ([-1e308, 1e308], 2.0, -1e308)],
    ids=["sum-r1", "sum-r2", "spread-r2"],
)
def test_prefix_level_overflow_is_silent(costs, r, level):
    # the prefix sums and the r = 2 spread overflow to inf, which the screen,
    # the range test and the bisection handle; no RuntimeWarning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _prefix_level(np.array(costs), 1.0, r) == level


def test_prefix_level_radius_on_cost_scale():
    # radii comparable to the gaps and to ulps of the costs
    rng = np.random.default_rng(31)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-6, 6)
        c = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) * scale)
        radius = float(rng.choice([np.spacing(abs(c[0])), (c[-1] - c[0]) * rng.uniform()]))
        for r in ORDERS:
            assert _prefix_level(c, radius, r) == reference_prefix_level(c, radius, r)


def test_prefix_level_attained_on_ulp_spaced_costs():
    # at radius 0 rounding can put several prefixes of ulp-spaced costs in
    # range; every level but the least one overshoots the zero budget
    rng = np.random.default_rng(61)
    for m in (2, 3, 5, 8, 19, 40):
        for x in [1.2345, *rng.uniform(1.0, 2.0, size=20)]:
            c = x + np.arange(m) * np.spacing(x)
            for r in ORDERS + (3.0,):
                t = _prefix_level(c, 0.0, r)
                assert float(np.sum(np.clip(t - c, 0.0, None) ** r)) <= 0.0, (c.tolist(), r)
                assert t == c[0]


def _root_cases(seed, per_order=1000):
    """Sorted costs at magnitudes 1e-6 to 1e6, in both senses, with radii from
    (1 + 1e-14) to (1 + 1e3) times the r-norm of the lift to the top cost."""
    rng = np.random.default_rng(seed)
    for r in (1.1, 1.5, 2.5, 3.0, 6.0):
        for _ in range(per_order):
            c = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 12))) * 10.0 ** rng.uniform(-6, 6)
            c = np.sort(-c if rng.uniform() < 0.5 else c)
            lift = float(np.sum((c[-1] - c) ** r)) ** (1.0 / r)
            yield c, lift * (1.0 + 10.0 ** rng.uniform(-14, 3)), r


def test_prefix_root_is_attained_and_near_brentq():
    checked = 0
    for c, radius, r in _root_cases(47):
        budget = radius**r
        if not float(np.sum((c[-1] - c) ** r)) < budget:
            continue  # the radius rounded onto the lift's norm
        t = _prefix_level(c, radius, r)
        assert float(np.sum((t - c) ** r)) <= budget, (c.tolist(), radius, r)
        # with negated costs t can lie near 0, far below the cost magnitude,
        # which then bounds the rounding of either root
        scale = 1.0 + max(abs(t), abs(c[0]))
        assert abs(t - reference_bracketed_root(c, radius, budget, r)) <= 1e-13 * scale
        checked += 1
    assert checked > 4500


def test_exhausted_prefix_root_raises(monkeypatch):
    # far right of the root: Newton's linear phase takes several steps
    c, radius, r = np.array([0.0, 1.0, 3.0]), 50.0, 6.0
    expected = _lift_root(c, radius, radius**r, r)
    for needed in range(1, quantify.LEVEL_SEARCH_MAX_ITER + 1):
        monkeypatch.setattr(quantify, "LEVEL_SEARCH_MAX_ITER", needed)
        try:
            got = _lift_root(c, radius, radius**r, r)
        except ConvergenceError:
            continue
        break
    assert got == expected and needed > 1
    monkeypatch.setattr(quantify, "LEVEL_SEARCH_MAX_ITER", needed - 1)
    with pytest.raises(ConvergenceError, match=f"after {needed - 1} steps"):
        _lift_root(c, radius, radius**r, r)


def test_prefix_root_stops_at_its_floor():
    # the radius is the r-norm of the lift to a cost, so the level lies on
    # that cost; a Newton step that rounds below the top cost used to give a
    # NaN sum at r = 1.5 and walk down one ulp a step until the cap
    c, radius = np.array([-6.56714609008604, 1.8709850221042945]), 8.438131112190334
    assert _lift_root(c, radius, radius**1.5, 1.5) == c[-1]
    level = _prefix_level(c, radius, 1.5)
    assert level == c[0] + radius
    system = PathSystem(nodes=2, edges=((0, 1), (0, 1)), s=0, t=1)
    assert quantify.robust_scenario_value(
        system, c, bottleneck_value(system, c), radius, 1.5
    ).level == level
    rng = np.random.default_rng(83)
    for _ in range(1000):
        c = np.sort(rng.uniform(-10.0, 10.0, size=int(rng.integers(2, 6))))
        i = int(rng.integers(1, len(c)))
        for r in (1.5, 2.5, 3.0):
            radius = float(np.sum((c[i] - c[:i]) ** r) ** (1.0 / r))
            t = _prefix_level(c, radius, r)
            assert float(np.sum(np.clip(t - c, 0.0, None) ** r)) <= radius**r, (c.tolist(), r)


@pytest.mark.parametrize("r", ORDERS + (3.0,))
def test_prefix_level_fallback_is_bounded(monkeypatch, r):
    cases = [(c, radius) for radius in (0.05, 0.7, 6.0) for c in _element_costs(7)]
    screened = [_prefix_level(c, radius, r) for c, radius in cases]
    monkeypatch.setattr(quantify, "_screened_prefixes", lambda *args: [])
    for (c, radius), want in zip(cases, screened):
        t = _prefix_level(c, radius, r)
        assert float(np.sum(np.clip(t - c, 0.0, None) ** r)) <= radius**r
        assert abs(t - want) <= 1e-12 * (1.0 + abs(t)), (c.tolist(), radius)
    monkeypatch.setattr(quantify, "LEVEL_SEARCH_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="after 1 steps"):
        _prefix_level(np.array([1.0, 2.0, 4.0]), 0.7, r)


def test_bisected_level_is_attained(monkeypatch):
    # level-on-cost inputs: the radius is the r-norm of the lift to a cost,
    # where rounding can put every prefix's closed form out of its range
    reached = []
    bisected = quantify._bisected_level
    monkeypatch.setattr(
        quantify, "_bisected_level", lambda *args: reached.append(1) or bisected(*args)
    )
    rng = np.random.default_rng(190)
    for _ in range(6000):
        scale = 10.0 ** rng.uniform(-6.0, 6.0) * rng.choice([-1.0, 1.0])
        c = np.sort(scale * rng.uniform(0.0, 1.0, size=int(rng.integers(2, 6))))
        i = int(rng.integers(1, len(c)))
        r = float(rng.choice([1.0, 2.0]))
        radius = float(np.sum((c[i] - c[:i]) ** r) ** (1.0 / r))
        before = len(reached)
        t = _prefix_level(c, radius, r)
        if len(reached) == before:
            continue

        def fits(x):
            return float(np.sum(np.clip(x - c, 0.0, None) ** r)) <= radius**r

        assert fits(t), (c.tolist(), r)
        assert not any(fits(x) for x in c if x > t), (c.tolist(), r)
        assert not fits(np.nextafter(t, np.inf)), (c.tolist(), r)
    assert len(reached) >= 300


def _path_systems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, random_path_system(rng, max_nodes=7, max_extra=6)
    # parallel edges between every consecutive pair, and a triangle with a
    # doubled chord
    doubled = ((0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3))
    yield rng, PathSystem(nodes=4, edges=doubled, s=0, t=3)
    yield rng, PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2), (0, 2)), s=0, t=2)


def _same_result(fast, slow):
    assert fast.value == slow.value
    assert fast.argmin_subset == slow.argmin_subset
    assert fast.dual_witness == slow.dual_witness  # elements, kind and partition


def test_path_bottleneck_matches_reference():
    for rng, system in _path_systems(7, 60):
        for c in _cost_vectors(rng, system.ground.n):
            _same_result(bottleneck_value(system, c), reference_path_bottleneck(system, c))


def _bottleneck_costs(rng, n):
    """``_cost_vectors``, then Gaussian costs and costs on five integer levels."""
    yield from _cost_vectors(rng, n)
    yield rng.normal(size=n)
    yield rng.integers(0, 5, size=n).astype(float)


def _bundled_matching():
    data = Path(__file__).parent.parent / "data"
    system = system_from_json((data / "monthly_matching_9x9.instance.json").read_text())
    return system, load_scenarios(data / "monthly_matching_9x9.csv")


@pytest.mark.parametrize("m", range(1, 11))
def test_assignment_bottleneck_matches_reference(m):
    system = AssignmentSystem(m=m)
    rng = np.random.default_rng(300 + m)
    for _ in range(60):
        for c in _bottleneck_costs(rng, m * m):
            _same_result(bottleneck_value(system, c), reference_base_bottleneck(system, c))


def test_bundled_matching_bottleneck_matches_reference():
    system, scenarios = _bundled_matching()
    for row in scenarios.costs:
        for c in (row, -row):  # the cost and the capacity sense
            _same_result(bottleneck_value(system, c), reference_base_bottleneck(system, c))


def test_tree_and_explicit_bottleneck_match_reference():
    rng = np.random.default_rng(17)
    kinds = [random_tree_system(rng, max_nodes=7, max_extra=6) for _ in range(60)]
    kinds += [random_explicit_system(rng) for _ in range(60)]
    # parallel edges only; a single member; nested and disjoint members
    kinds.append(TreeSystem(nodes=2, edges=((0, 1), (1, 0), (0, 1))))
    kinds.append(ExplicitSystem(members=(frozenset({0, 2}),), n=3))
    kinds.append(ExplicitSystem(members=({0}, {0, 1}, {2, 3}, {1, 2, 3}), n=4))
    for system in kinds:
        for c in _bottleneck_costs(rng, system.ground.n):
            _same_result(bottleneck_value(system, c), reference_base_bottleneck(system, c))


def test_bottleneck_blocker_calls(monkeypatch):
    # no blocker call for assignments and explicit systems, and the one
    # zero-weight global minimum cut for trees
    calls = count_calls(monkeypatch, systems.min_weight_blocker)
    rng = np.random.default_rng(19)
    for _ in range(10):
        for system, per_call in (
            (AssignmentSystem(m=int(rng.integers(1, 11))), 0),
            (random_explicit_system(rng), 0),
            (random_tree_system(rng, max_nodes=7, max_extra=6), 1),
        ):
            for c in _bottleneck_costs(rng, system.ground.n):
                calls.clear()
                bottleneck_value(system, c)
                assert len(calls) == per_call, system
    system, scenarios = _bundled_matching()
    calls.clear()
    for sense in ("cost", "capacity"):
        empirical_record(system, scenarios, sense)
    assert calls == []


def test_assignment_bottleneck_keeps_the_blocker_limit():
    with pytest.raises(EnumerationLimitError, match="limited to m <= 10"):
        bottleneck_value(AssignmentSystem(m=11), np.arange(121.0))


def _weight_vectors(rng, m):
    yield rng.uniform(0.0, 1.0, size=m)
    yield np.clip(rng.uniform(-1.0, 1.0, size=m), 0.0, None)  # about half exactly 0
    yield np.zeros(m)
    yield rng.integers(0, 2, size=m).astype(float)
    # most weights below the tolerance 1e-12 * max(weights, 1)
    dead = rng.uniform(size=m) < 0.8
    yield np.where(dead, rng.uniform(0.0, 1e-12, size=m), rng.uniform(0.0, 1.0, size=m))
    # weights at the tolerance 1e-12 (left out) and just above it (kept)
    yield np.where(dead, rng.choice([0.0, 1e-12, 1.5e-12], size=m), 1.0)


def test_path_blocker_matches_reference():
    for rng, system in _path_systems(11, 60):
        n, edges, s, t = system.nodes, system.edges, system.s, system.t
        for w in _weight_vectors(rng, system.ground.n):
            assert min_weight_blocker(system, w) == reference_path_blocker(system, w)
            assert min_st_cut_side(n, edges, w, s, t) == reference_min_st_cut_side(
                n, edges, w, s, t
            )
            as_list = w.tolist()
            assert min_st_cut_side(n, edges, as_list, s, t) == reference_min_st_cut_side(
                n, edges, as_list, s, t
            )


def test_cut_side_is_the_least_minimum_cut():
    # seeded multigraphs with integer weights 0-3, so every cut sum is exact:
    # the returned side is the intersection of all minimum-weight sides
    rng = np.random.default_rng(23)
    for _ in range(1500):
        n = int(rng.integers(2, 9))
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges = []
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((u, v))
        w = rng.integers(0, 4, size=len(edges)).tolist()
        assert min_st_cut_side(n, edges, w, s, t) == brute_minimal_cut_side(n, edges, w, s, t)


def _assignment_weights(rng, m):
    """Seeded random weights, then the degenerate shapes."""
    n = m * m
    yield rng.uniform(0.0, 1.0, size=n)
    yield rng.integers(0, 2, size=n).astype(float)  # 0/1, as in the dual witness
    yield rng.integers(0, 4, size=n) * 0.1  # few-level decimal ties
    yield np.full(n, 0.3)
    yield np.zeros(n)
    yield np.where(rng.uniform(size=n) < 0.5, -0.0, 1.0)
    yield 1.0 + rng.integers(0, 5, size=n) * np.spacing(1.0)  # ulps apart near 1
    yield rng.integers(0, 3, size=n) * 2.0**50  # integral, sums reach 2**53
    # near 1e300: for m >= 4 the sum of all weights overflows, no submatrix does
    largest_blocker = max(a * (m + 1 - a) for a in range(1, m + 1))
    yield rng.uniform(0.5, 1.0, size=n) * (1.5e308 / largest_blocker)
    yield rng.uniform(0.0, 1.0, size=n) * 1e-310  # subnormal
    yield rng.integers(0, 4, size=n) * 5e-324  # multiples of the least subnormal


@pytest.mark.parametrize("m", range(1, 11))
def test_assignment_blocker_matches_reference(m):
    system = AssignmentSystem(m=m)
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        for w in _assignment_weights(rng, m):
            value, witness = min_weight_blocker(system, w)
            ref_value, ref_witness = reference_assignment_blocker(system, w)
            assert value == ref_value
            assert witness.rows == ref_witness.rows
            assert witness.cols == ref_witness.cols
            assert witness.elements == ref_witness.elements


def test_assignment_overflowing_sum_keeps_every_subset():
    m = 10
    w = _assignment_weights(np.random.default_rng(3), m)
    huge = [v for v in w if v.max() > 1e300][0]
    with np.errstate(over="ignore"):
        assert huge.sum() == np.inf
    assert min_weight_blocker(AssignmentSystem(m=m), huge) == reference_assignment_blocker(
        AssignmentSystem(m=m), huge
    )


@pytest.mark.parametrize("m", [2, 5, 9])
def test_assignment_padding_absorbs_worst_screen_error(monkeypatch, m):
    """The blocker tolerates any screen error up to half its padding, which is
    16 (m + 1) eps times the weight sum.  An adversarial screen errs by 0.9 of
    that amount upwards on the best subset and downwards on every other one;
    the best must still be re-scored, among near ties that a smaller padding
    would let win."""
    system = AssignmentSystem(m=m)
    subsets, _, last = systems._row_subsets(m)
    rng = np.random.default_rng(m)
    for w in (
        1.0 + rng.integers(0, 5, size=m * m) * np.spacing(1.0),
        rng.integers(0, 4, size=m * m) * 0.1,
        rng.uniform(0.0, 1.0, size=m * m),
    ):
        grid = w.reshape(m, m)
        scores = [
            systems._scored_submatrix(grid, rows, int(b) + 1)
            for rows, b in zip(subsets, last)
        ]
        best = scores.index(min(scores))
        error = 0.9 * 0.5 * 16 * (m + 1) * 2.0**-52 * float(w.sum())
        sign = np.full(len(subsets), -1.0)
        sign[best] = 1.0
        adversary = np.array([s[0] for s in scores]) + sign * error

        monkeypatch.setattr(systems, "_screened_blocker_values", lambda *_: adversary)
        assert min_weight_blocker(system, w) == reference_assignment_blocker(system, w)


def _scenario_costs(rng, count, n):
    """Seeded scenario matrices: floats, integer ties, and negative costs."""
    yield rng.uniform(0.0, 10.0, size=(count, n))
    yield rng.integers(0, 4, size=(count, n)).astype(float)
    yield rng.uniform(-10.0, 5.0, size=(count, n))
    yield -rng.integers(0, 3, size=(count, n)).astype(float)


@pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
def test_decisions_match_reference(kind):
    rng = np.random.default_rng(["path", "tree", "assignment", "explicit"].index(kind))
    for _ in range(12):
        system = random_system(rng, kind)
        for costs in _scenario_costs(rng, int(rng.integers(1, 7)), system.ground.n):
            scenarios = ScenarioSet(costs)
            radius = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 3.0)]))
            score = reference_score(scenarios.costs)

            value, chosen, values = reference_minimize(system, score, exact_mean)
            saa = _report(chosen, value, values, "saa")
            assert saa_decision(system, scenarios) == saa
            assert robust_decision(system, scenarios, radius) == _shifted(saa, radius)
            assert variance_robust_decision(
                system, scenarios, radius
            ) == reference_least_variance_in_band(system, score, radius, "variance-robust")
            for d in (0.0, 0.5, 1.0, 2.0, float(rng.uniform(0.0, 2.0))):
                aggregate = partial(reference_tv_objective, d=d)
                value, chosen, values = reference_minimize(system, score, aggregate)
                expected = _report(chosen, value, values, "total-variation")
                assert tv_robust_decision(system, scenarios, d) == expected

            listed = indifference_set(system, scenarios, radius, materialize=True)
            band = reference_band(system, score, saa.objective + radius)
            assert listed.threshold == saa.objective + radius
            assert listed.baseline == saa
            assert listed.members == tuple(
                sorted((m for m, _, _ in band), key=lambda m: tuple(sorted(m)))
            )

            for k in range(1, min(3, min_member_size(system)) + 1):
                order = float(rng.choice([1.0, 2.0]))
                score = reference_score(scenarios.costs, k)
                shift = _radius_shift(radius, k, order)
                value, chosen, values = reference_minimize(system, score, exact_mean)
                expected = _report(chosen, value + shift, values, "topk-robust")
                assert topk_decision(system, scenarios, radius, k, order) == expected
                expected = reference_least_variance_in_band(
                    system, score, shift, "topk-variance-robust"
                )
                assert topk_variance_robust_decision(system, scenarios, radius, k, order) == (
                    expected
                )


def _lookahead_costs(rng, count, n):
    """Seeded scenario matrices for the maximum fold's screen: integer ties,
    magnitudes from 1e-6 to 1e6 of either sign, then costs near the float
    limit, where the pad is infinite (the last two)."""
    size = (count, n)
    yield rng.integers(0, 4, size=size).astype(float)
    yield rng.integers(-3, 4, size=size) * 1e6
    for scale in (1e-6, 1.0, 1e6):
        yield rng.uniform(-10.0, 10.0, size=size) * scale
    yield rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-6.0, 6.0, size=size)
    # equal rows, so every sum of maxima and every variance fits; then rows
    # whose spread overflows the variance, which every model refuses
    row = rng.integers(1, 3, size=n) * (0.85e308 / count)
    row[0] = 1.7e308 / count
    yield np.tile(row, (count, 1))
    yield np.where(np.arange(count) % 2, -1.0, 1.0)[:, None] * rng.uniform(0.5, 1.0, size=size) * 1e308


def _outcome(call):
    """What a decision call returns, or the message it refuses with."""
    try:
        return call()
    except DomainError as exc:
        return str(exc)


def _decision_outcomes(system, scenarios, radius, d):
    saa = _outcome(lambda: saa_decision(system, scenarios))
    listed = _outcome(lambda: indifference_set(system, scenarios, radius, materialize=True))
    return (
        saa,
        _outcome(lambda: variance_robust_decision(system, scenarios, radius)),
        d is not None and _outcome(lambda: tv_robust_decision(system, scenarios, d)),
        listed if isinstance(listed, str) else (listed.threshold, listed.baseline, listed.members),
    )


def _reference_outcomes(system, scenarios, radius, d):
    score = reference_score(scenarios.costs)

    def minimized(aggregate, model):
        value, chosen, values = reference_minimize(system, score, aggregate)
        return _report(chosen, value, values, model)

    def saa():
        return minimized(exact_mean, "saa")

    def tv():
        return minimized(partial(reference_tv_objective, d=d), "total-variation")

    def listed():
        threshold = saa().objective + radius
        band = reference_band(system, score, threshold)
        members = tuple(sorted((m for m, _, _ in band), key=lambda m: tuple(sorted(m))))
        return threshold, saa(), members

    return (
        _outcome(saa),
        _outcome(lambda: reference_least_variance_in_band(system, score, radius, "variance-robust")),
        d is not None and _outcome(tv),
        _outcome(listed),
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_lookahead_decisions_match_reference(m):
    """The maximum fold's screen and one-step lookahead leave every decision,
    band and overflow refusal bit for bit those of the plain bound.  The
    total-variation model, which keeps the plain bound, is compared on the
    finite pads only: near the float limit its reference sums overflow."""
    rng = np.random.default_rng(90 + m)
    system = AssignmentSystem(m)
    for _ in range(2):
        shapes = list(_lookahead_costs(rng, int(rng.integers(2, 7)), m * m))
        for index, costs in enumerate(shapes):
            scenarios = ScenarioSet(costs)
            near_limit = decide._Maxima(costs).pad == math.inf
            assert near_limit == (index >= len(shapes) - 2)
            radius = float(rng.choice([0.0, 0.05, 0.3])) * float(np.abs(costs).max())
            d = None if near_limit else float(rng.choice([0.5, 2.0]))
            assert _decision_outcomes(system, scenarios, radius, d) == _reference_outcomes(
                system, scenarios, radius, d
            ), (costs, radius, d)


def _topk_outcomes(system, scenarios, radius, k):
    return (
        _outcome(lambda: topk_decision(system, scenarios, radius, k)),
        _outcome(lambda: topk_variance_robust_decision(system, scenarios, radius, k)),
    )


def _reference_topk_outcomes(system, scenarios, radius, k):
    score = reference_score(scenarios.costs, k)
    shift = _radius_shift(radius, k, 1.0)

    def topk():
        value, chosen, values = reference_minimize(system, score, exact_mean)
        return _report(chosen, value + shift, values, "topk-robust")

    return (
        _outcome(topk),
        _outcome(lambda: reference_least_variance_in_band(
            system, score, shift, "topk-variance-robust"
        )),
    )


@pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
def test_block_decisions_match_reference(kind):
    """Every kind's blocks against the plain bound, on the scenario shapes of
    the lookahead test: children that add nothing (a tree's skip branches)
    or several elements (explicit members), the top-k fold at k = 2, and the
    refusals near the float limit.  Top-k and the total-variation model are
    compared on the finite pads only: near the limit their reference sums
    overflow."""
    rng = np.random.default_rng(["path", "tree", "assignment", "explicit"].index(kind) + 80)
    topk_checked = 0
    for _ in range(4):
        system = random_system(rng, kind)
        shapes = list(_lookahead_costs(rng, int(rng.integers(2, 7)), system.ground.n))
        for index, costs in enumerate(shapes):
            scenarios = ScenarioSet(costs)
            near_limit = index >= len(shapes) - 2
            radius = float(rng.choice([0.0, 0.05, 0.3])) * float(np.abs(costs).max())
            d = None if near_limit else float(rng.choice([0.5, 2.0]))
            assert _decision_outcomes(system, scenarios, radius, d) == _reference_outcomes(
                system, scenarios, radius, d
            ), (costs, radius, d)
            if not near_limit and min_member_size(system) >= 2:
                topk_checked += 1
                assert _topk_outcomes(system, scenarios, radius, 2) == _reference_topk_outcomes(
                    system, scenarios, radius, 2
                ), (costs, radius)
    assert topk_checked > 0


def _expanded_blocks(system, fold):
    """``(children, block, groups, below)`` for each expanded state of an
    assignment: its children, their accumulators and completion groups as
    the best-first search scores them, the groups from the children's block,
    and the members below each child."""
    members = enumerate_members(system)

    def walk(state, one):  # a kind's state, and the same state as a block of one
        children = list(system.expand(state))
        if not children:
            return
        block, _, added, width = one.expand()
        assert block.elements() == [child[0] for child in children]
        acc = fold.grow(None, *padded_elements(one.elements(), fold.blank))
        yield children, fold.grow(acc, added, width), block.groups(), [
            [m for m in members if child[0] <= m] for child in children
        ]
        for i, child in enumerate(children):
            yield from walk(child, block.take([i]))

    yield from walk(system.root(), system.root_block())


def test_maxima_screen_and_lookahead_bounds():
    """On every expanded state of a 4x4 assignment, each child's block screen
    lies within the pad of the exact sum of its maxima, and its block
    lookahead less the pad, over N, never exceeds the mean of a member below
    it."""
    rng = np.random.default_rng(97)
    system = AssignmentSystem(4)
    for costs in islice(_lookahead_costs(rng, 7, 16), 6):
        fold = decide._Maxima(costs)
        for children, block, groups, below in _expanded_blocks(system, fold):
            for child, screen in zip(children, fold.screens(block).tolist()):
                assert abs(screen - math.fsum(fold.score(child[0]))) <= fold.pad
            if groups is not None:
                keys = (fold.lookaheads(block, groups) - fold.pad) / len(fold.ones)
                for key, members in zip(keys.tolist(), below):
                    assert all(key <= exact_mean(fold.score(m)) for m in members)


def test_block_screen_and_lookahead_are_each_childs():
    """With small-integer costs every sum is exact, so each child's block
    screen and lookahead must equal the ones computed from that child alone:
    its maxima, and its own completion groups.  A block that kept a child's
    own column among its groups would still be admissible, so no decision
    catches it; this does."""
    rng = np.random.default_rng(99)
    system = AssignmentSystem(4)
    for _ in range(3):
        costs = rng.integers(-20, 21, size=(6, 16)).astype(float)
        fold = decide._Maxima(costs)
        blocks = 0
        for children, block, groups, _ in _expanded_blocks(system, fold):
            for child, screen in zip(children, fold.screens(block).tolist()):
                assert screen == math.fsum(fold.score(child[0]))
            if groups is None:
                assert children[0][1]
                continue
            blocks += 1
            for child, ahead in zip(children, fold.lookaheads(block, groups).tolist()):
                cells = reference_completion_groups(system, child).tolist()
                maxima = np.array(fold.score(child[0]))
                expected = max(
                    min(math.fsum(np.maximum(maxima, costs[:, e]).tolist()) for e in group)
                    for group in cells
                )
                assert ahead == expected, (sorted(child[0]), cells)
        assert blocks == 1 + 4 + 12  # the root, then the states at rows 1 and 2


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_lookahead_pad_absorbs_worst_screen_error(monkeypatch, sign):
    """Screens and lookaheads moved by the error bound the pad covers,
    N^2 2**-53 max |cost|, either way, leave every decision unchanged.  The
    costs are integer ties at 1e6, with one scenario shifted by minus the sum
    of the optimum's maxima: every member's mean moves by the same amount,
    so the optimum is the same and its mean is exactly 0, where the search's
    1e-12 band is far narrower than that bound."""
    screens, lookaheads = decide._Maxima.screens, decide._Maxima.lookaheads

    def moved(fold, value):
        n = len(fold.ones)
        return value + sign * n * n * 2.0**-53 * float(np.abs(fold.columns[:-1]).max())

    monkeypatch.setattr(
        decide._Maxima, "screens", lambda self, block: moved(self, screens(self, block))
    )
    monkeypatch.setattr(
        decide._Maxima, "lookaheads",
        lambda self, block, groups: moved(self, lookaheads(self, block, groups)),
    )
    rng = np.random.default_rng(98)
    for m in (3, 4):
        system = AssignmentSystem(m)
        for _ in range(6):
            costs = rng.integers(-3, 4, size=(int(rng.integers(4, 8)), m * m)) * 1e6
            _, _, maxima = reference_minimize(system, reference_score(costs), exact_mean)
            costs[0] -= math.fsum(maxima)
            scenarios = ScenarioSet(costs)
            radius = float(rng.choice([0.0, 1e6]))
            assert _decision_outcomes(system, scenarios, radius, None) == _reference_outcomes(
                system, scenarios, radius, None
            )


def _key_rows(rng, shape: str, count: int) -> np.ndarray:
    """``count`` rows of one shape, a row a state's values in every scenario:
    integer ties, one scenario, negative and mixed signs, magnitudes from
    1e-6 to 1e300 a row, subnormals, and magnitudes past the reach of the
    total-variation screen (the float maximum over 4n + 128) but within the
    maximum fold's finite pad (below the float maximum over n^2, so n <= 13)."""
    n = 1 if shape == "one-scenario" else int(rng.integers(2, 14 if shape == "past-reach" else 61))
    size, top = (count, n), sys.float_info.max
    return {
        "ties": lambda: rng.integers(-3, 4, size=size).astype(float),
        "one-scenario": lambda: rng.normal(size=size) * 10.0,
        "negative": lambda: -rng.uniform(0.0, 10.0, size=size),
        "mixed": lambda: rng.normal(size=size) * 10.0,
        "magnitudes": lambda: rng.normal(size=size) * 10.0 ** rng.uniform(-6.0, 300.0, (count, 1)),
        "subnormal": lambda: rng.integers(-5, 6, size=size) * 5e-324 + rng.normal(size=size) * (
            rng.integers(0, 2, size=(count, 1)) * 1e-310
        ),
        "past-reach": lambda: rng.choice([-1.0, 1.0], size=size) * rng.uniform(
            top / (4 * n + 128), 0.95 * top / (n * n), size=size
        ),
    }[shape]()


KEY_SHAPES = ["ties", "one-scenario", "negative", "mixed", "magnitudes", "subnormal", "past-reach"]


@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_mean_keys_bound_every_completion(shape):
    """A partial state's key, ``_Maxima.keys``, is at most the exact mean of
    every completion's maxima: without groups, of the state's own and of any
    larger; with its completion groups, of one taking a cell of each group.
    5,000 states per shape, the maxima of two elements each, in blocks of 100
    sharing one pad."""
    rng = np.random.default_rng(KEY_SHAPES.index(shape) + 170)
    for _ in range(50):
        columns = _key_rows(rng, shape, 40)  # 40 elements' costs, a row each
        fold = decide._Maxima(columns.T)
        assert fold.pad < math.inf
        pairs = rng.integers(0, 40, size=(100, 2))
        block = np.maximum(columns[pairs[:, 0]], columns[pairs[:, 1]])
        groups = rng.integers(0, 40, size=(100, 3, 4))
        picks = np.take_along_axis(groups, rng.integers(0, 4, size=(100, 3, 1)), axis=2)[:, :, 0]
        completions = np.maximum(block, np.maximum.reduce(columns[picks], axis=1))
        keys = fold.keys(block, None)
        for below in (block, completions):
            assert (keys <= np.array(decide._means(below))).all(), (shape, columns)
        ahead = fold.keys(block, groups)
        assert (ahead >= keys).all()
        assert (ahead <= np.array(decide._means(completions))).all(), (shape, columns)


def _topk_costs(rng, n):
    """Seeded cost vectors: floats, mixed signs, ties on multiples of 0.1,
    and magnitudes from 1e-8 to 1e8 of either sign."""
    yield rng.uniform(0.0, 10.0, size=n)
    yield rng.uniform(-10.0, 10.0, size=n)
    yield rng.integers(-2, 5, size=n) / 10.0
    yield rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)


def _count_bounds(monkeypatch, module) -> list[int]:
    """A one-cell counter of the states scored by every ``minimize_members``
    call made through ``module``: one per child of each block its bound
    callback scores."""
    count = [0]
    search = module.minimize_members

    def minimize(system, bound_fn, *args, **kwargs):
        def counted(*block):
            scores = bound_fn(*block)
            count[0] += len(scores)
            return scores

        return search(system, counted, *args, **kwargs)

    monkeypatch.setattr(module, "minimize_members", minimize)
    return count


@pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
def test_topk_sum_value_matches_reference(kind, monkeypatch):
    """At k <= 2 the top-k fold rounds each sum once, as the set-function
    bound did, so value, member and search work are unchanged."""
    fast = _count_bounds(monkeypatch, decide)
    slow = _count_bounds(monkeypatch, _oracles)
    rng = np.random.default_rng(["path", "tree", "assignment", "explicit"].index(kind) + 70)
    for _ in range(25):
        system = random_system(rng, kind)
        for costs in _topk_costs(rng, system.ground.n):
            for k in range(1, min(2, min_member_size(system)) + 1):
                fast[0] = slow[0] = 0
                expected = reference_topk_sum_value(system, costs, k)
                assert topk_sum_value(system, costs, k) == expected, (costs, k)
                assert fast[0] == slow[0] > 0


def _tv_objective(values, d: float) -> float:
    """The total-variation objective of one vector, scored as a block of one."""
    return _tv_objectives(np.array([values], dtype=float), d)[0]


def test_tv_objective_matches_reference():
    rng = np.random.default_rng(61)
    for case in range(3000):
        n = int(rng.integers(1, 60))
        values = [
            rng.normal(size=n) * 10.0,
            rng.integers(-3, 4, size=n).astype(float),  # ties, negatives, zeros
            np.round(rng.normal(size=n), 1) * 1e6,  # ties at a large magnitude
            1.0 + rng.integers(0, 5, size=n) * np.spacing(1.0),  # ulps apart
        ][case % 4].tolist()
        d = [0.0, 0.5, 1.0, 2.0, float(rng.uniform(0.0, 2.0))][case % 5]
        assert _tv_objective(values, d) == reference_tv_objective(values, d), (values, d)
    # the screen's edges: long vectors, magnitudes whose suffix sums
    # overflow, single and all-equal values, subnormals, and radii at which
    # the objective is flat between breakpoints
    for case in range(2000):
        n = int(rng.integers(1, 201))
        sign = float(rng.choice([-1.0, 1.0]))
        kind = case % 6
        values = [
            rng.normal(size=n) * 1e300,  # near +-1e300
            sign * (1e307 + rng.integers(-3, 4, size=n) * 1e300),  # overflowing sums
            np.full(1, rng.normal() * 10.0),  # a single value
            np.full(n, rng.normal() * 10.0),  # all equal
            rng.integers(-5, 6, size=n) * 5e-324,  # subnormal ties
            rng.normal(size=n) * 1e-310,  # subnormal and tiny normal
        ][kind]
        d = [0.0, 2.0, 2.0 * int(rng.integers(0, len(values) + 1)) / len(values)][case % 3]
        if kind == 1:
            u = np.sort(values)
            assert _tv_breakpoints(u[None], d)[0].all(), "every breakpoint is kept"
        values = values.tolist()
        assert _tv_objective(values, d) == reference_tv_objective(values, d), (values, d)


def test_tv_screen_keeps_few_breakpoints():
    # vectors shaped like the 9x9 matching's per-scenario maxima: the
    # screen leaves at most two breakpoints to score exactly
    rng = np.random.default_rng(62)
    for _ in range(1000):
        values = rng.normal(rng.uniform(30.0, 32.0), rng.uniform(2.0, 4.0), size=50)
        assert _tv_breakpoints(np.sort(values)[None], 0.5)[0].sum() <= 2, values.tolist()


def test_tv_block_rows_score_alone():
    """A block scores each row as the reference scores it alone, whatever its
    neighbours: rows whose padding passes the float range (screened as zeros,
    every breakpoint kept) mixed with ordinary, tied and subnormal rows."""
    rng = np.random.default_rng(63)
    for case in range(300):
        n = int(rng.integers(1, 40))
        shapes = [
            lambda: rng.normal(size=n) * 10.0,
            lambda: rng.integers(-3, 4, size=n).astype(float),
            lambda: float(rng.choice([-1.0, 1.0])) * (1e307 + rng.integers(-3, 4, size=n) * 1e300),
            lambda: rng.normal(size=n) * 1e300,
            lambda: rng.integers(-5, 6, size=n) * 5e-324,
        ]
        block = np.array([shapes[int(rng.integers(0, 5))]() for _ in range(int(rng.integers(1, 7)))])
        d = [0.0, 0.5, 2.0, float(rng.uniform(0.0, 2.0))][case % 4]
        expected = [reference_tv_objective(row, d) for row in block.tolist()]
        assert _tv_objectives(block, d) == expected, (block, d)


@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_tv_keys_bound_every_completion(shape):
    """A partial row's total-variation key, ``_tv_objectives`` with the row
    in ``partial_rows``, is at most the exact objective of the row and of a
    row at least as large in every value; a row past the screen's reach is
    scored exactly.  5,000 rows per shape, in blocks of 100, at radii 0,
    0.5, 1, 2 and one drawn."""
    rng = np.random.default_rng(KEY_SHAPES.index(shape) + 180)
    for case in range(50):
        rows = _key_rows(rng, shape, 100)
        d = [0.0, 0.5, 1.0, 2.0, float(rng.uniform(0.0, 2.0))][case % 5]
        partial_rows = np.ones(len(rows), dtype=bool)
        keys = np.array(_tv_objectives(rows, d, partial_rows=partial_rows))
        exact = np.array(_tv_objectives(rows, d))
        larger = np.maximum(rows, rows[rng.permutation(len(rows))])
        assert (keys <= exact).all(), (rows, d)
        assert (keys <= np.array(_tv_objectives(larger, d))).all(), (rows, d)
        n = rows.shape[1]
        past = np.abs(rows).max(axis=1) > sys.float_info.max / (4 * n + 128)
        assert (keys[past] == exact[past]).all()
        assert past.all() if shape == "past-reach" else not past.any()


def _topk_family_cases(seed, systems=12, ks=(2, 3)):
    """``(costs, family)`` pairs: every top-k blocker family, at each k of
    ``ks`` up to the least member size, of seeded random systems with at
    most 6 elements, under the costs of ``_topk_costs``."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < systems:
        system = random_system(rng)
        if system.ground.n > 6:
            continue
        done += 1
        clutter = antichain_reduce(enumerate_members(system))
        for k in (k for k in ks if k <= min_member_size(system)):
            families = topk_blocker_enumerate(clutter, k)
            for costs in _topk_costs(rng, system.ground.n):
                for family in families:
                    yield costs, family


FAMILY_RADII = (1e-12, 0.05, 0.7, 6.0)


def _check_attained(costs, family, radius, r, level, lift):
    """The lift a family level returns is feasible, zero off the family
    union, and attains the level: the least subset sum under it, summed
    exactly.  A family of singletons has the closed-form element level,
    which its lift attains within the rounding of level - c."""
    union = set().union(*family)
    assert lift.shape == costs.shape and (lift >= 0.0).all()
    assert not lift[[j for j in range(len(costs)) if j not in union]].any()
    norm = math.fsum(lift.tolist()) if r == 1.0 else float(np.sum(lift**r)) ** (1.0 / r)
    assert norm <= radius * (1.0 + 1e-12)
    attained = min(
        math.fsum([math.fsum(costs[j] for j in sorted(s)), *(lift[j] for j in sorted(s))])
        for s in family
    )
    if all(len(s) == 1 for s in family):
        scale = 1.0 + abs(level) + max(abs(costs[j]) for j in union)
        assert abs(attained - level) <= 1e-12 * scale, (attained, level)
    else:
        assert level == attained


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_family_level_matches_brute_force(r):
    """The simplex (r = 1) and the dual active set (r = 2) reach the level
    that enumeration of every vertex or dual support finds."""
    checked = 0
    for costs, family in _topk_family_cases(81, systems=20):
        for radius in FAMILY_RADII:
            expected = brute_family_level(costs, family, radius, r)
            got, lift = _family_level(costs, family, radius, r)
            _check_attained(costs, family, radius, r, got, lift)
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected)), (
                costs.tolist(), sorted(map(sorted, family)), radius, got, expected
            )
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_singleton_family_level_lifts(r):
    """Every top-1 blocker family is of singletons: its lift is in the ball
    and attains the element level within rounding."""
    checked = 0
    for costs, family in _topk_family_cases(83, ks=(1,)):
        for radius in FAMILY_RADII:
            got, lift = _family_level(costs, family, radius, r)
            _check_attained(costs, family, radius, r, got, lift)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_family_level_matches_reference(r):
    """Within 1e-9 of the LP/SLSQP route, relative to 1 + |reference| as
    mixed-sign levels cross zero, wherever that route succeeds.  For r > 1
    the reference is an attained lower bound, so the certified level is not
    below it; for r = 1 the reference is HiGHS's objective value, which can
    exceed the attained optimum by HiGHS's feasibility tolerance (2e-12
    against an exact 1e-12 at radius 1e-12)."""
    checked = 0
    # SLSQP takes 50 to 120 ms a call: every 24th case
    for costs, family in islice(_topk_family_cases(82, systems=4), 0, None, 24):
        for radius in FAMILY_RADII:
            try:
                expected = reference_family_level(costs, family, radius, r)
            except ConvergenceError:
                continue
            got, lift = _family_level(costs, family, radius, r)
            _check_attained(costs, family, radius, r, got, lift)
            context = (costs.tolist(), sorted(map(sorted, family)), radius, got, expected)
            assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected)), context
            if r > 1.0:
                assert got >= expected - 1e-12 * (1.0 + abs(expected)), context
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_exhausted_family_level_raises(monkeypatch, r):
    # equal sums: the optimal multipliers spread over several subsets
    costs = np.ones(5)
    family = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    expected = _family_level(costs, family, 0.7, r)[0]
    for needed in range(_family.FAMILY_LEVEL_MAX_ITER + 1):
        monkeypatch.setattr(_family, "FAMILY_LEVEL_MAX_ITER", needed)
        try:
            got = _family_level(costs, family, 0.7, r)[0]
        except ConvergenceError:
            continue
        break
    assert got == expected and needed > 1
    for cap in (needed - 1, 0):
        monkeypatch.setattr(_family, "FAMILY_LEVEL_MAX_ITER", cap)
        with pytest.raises(ConvergenceError, match=f"in {cap} "):
            _family_level(costs, family, 0.7, r)


def _pair_families(seed, count):
    """Seeded families of 3 to 7 two-element subsets of 5 elements, with
    integer costs and radii large enough for dual steps to reach the edge of
    the simplex."""
    rng = np.random.default_rng(seed)
    pairs = [frozenset(p) for p in combinations(range(5), 2)]
    for _ in range(count):
        picks = rng.choice(len(pairs), size=int(rng.integers(3, 8)), replace=False)
        costs = rng.integers(0, 4, size=5).astype(float)
        yield costs, [pairs[i] for i in picks], float(rng.choice([3.0, 6.0]))


def test_family_level_blocked_and_dependent_steps(monkeypatch):
    """A dual step cut where a multiplier reaches zero, and an entering
    member whose row depends on the active rows, still land on the level:
    at r = 2 against enumeration, at r = 1.5 within the reference floor of
    ``test_family_level_matches_reference``.  No r = 2 input tried reaches
    the dependent-row branch."""
    counts = Counter()
    blocking, advance, independent = _family._blocking, _family._advance, _family._independent

    def counted_blocking(lam, d):
        t, zeroed = blocking(lam, d)
        counts["blocked"] += zeroed is not None
        return t, zeroed

    def counted_advance(lam, active, d, t, zeroed=None):
        counts["zeroed"] += zeroed is not None
        return advance(lam, active, d, t, zeroed)

    def counted_independent(A, lam, active, grad):
        kept = independent(A, lam, active, grad)
        counts["dropped"] += len(kept[1]) < len(active)
        return kept

    monkeypatch.setattr(_family, "_blocking", counted_blocking)
    monkeypatch.setattr(_family, "_advance", counted_advance)
    monkeypatch.setattr(_family, "_independent", counted_independent)

    for costs, family, radius in _pair_families(83, 200):
        expected = brute_family_level(costs, family, radius, 2.0)
        got = _family_level(costs, family, radius, 2.0)[0]
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected)), (
            costs.tolist(), sorted(map(sorted, family)), radius, got, expected
        )
    assert counts["blocked"] and counts["zeroed"] and not counts["dropped"]

    costs, family = np.array([0.0, 0.0, 0.0, 3.0]), [{0, 2}, {2}, {1}, {0, 1, 3}, {0, 2, 3}, {0}]
    for radius in (1.0, 3.0):
        dropped = counts["dropped"]
        got = _family_level(costs, family, radius, 1.5)[0]
        assert counts["dropped"] > dropped
        expected = reference_family_level(costs, family, radius, 1.5)
        assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected)), (radius, got, expected)
        assert got >= expected - 1e-12 * (1.0 + abs(expected)), (radius, got, expected)


def _finite_order_cases(seed, orders=(2.0, 3.0), most_scenarios=1, count=60):
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = ("path", "tree", "assignment", "explicit")[i % 4]
        if kind == "assignment":
            system = random_assignment_system(rng, max_side=3)
        else:
            system = random_system(rng, kind)
        rows = int(rng.integers(1, most_scenarios + 1))
        scen = ScenarioSet(rng.uniform(0.0, 10.0, size=(rows, system.ground.n)))
        yield system, scen, float(rng.uniform(0.1, 1.5)), orders[i // 4 % len(orders)]


def test_finite_order_matches_reference():
    # the old route's golden sections cost about 13,000 blocker calls a
    # scenario, so these instances keep one scenario each
    for system, scen, theta, q in _finite_order_cases(1509):
        value, _ = quantify_robust_finite_order(empirical_record(system, scen), theta, q)
        want, _ = reference_finite_order(system, scen, theta, q)
        assert abs(value - want) <= 1e-9 * (1.0 + abs(want)), (system, scen.costs.tolist())


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_finite_order_support_attains_the_lower_bound(r):
    bridge = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
    six = ScenarioSet(np.random.default_rng(11).uniform(0.0, 10.0, (6, 5)))
    # the reference instances, then up to 3 scenarios and q = 1 as well
    cases = [
        *_finite_order_cases(1509),
        *_finite_order_cases(1510, (1.0, 2.0, 3.0), 3),
        (bridge, six, 1.0, 2.0),
    ]
    for system, scen, theta, q in cases:
        bracket = _finite.finite_order_bracket(empirical_record(system, scen), theta, q, r)
        assert bracket.upper - bracket.lower <= 1e-12 * (1.0 + abs(bracket.upper))
        # rebuild the distribution and price it without the library
        members = brute_members(system)
        mass = np.zeros(scen.count)
        spent, value = [], []
        for k, weight, level, raised in bracket.support:
            c = scen.costs[k]
            point = c.copy()
            point[sorted(raised)] = np.maximum(c[sorted(raised)], level)
            moved = float(np.sum(np.abs(point - c) ** r)) ** (1.0 / r)
            assert weight >= 0.0
            mass[k] += weight
            spent.append(weight * moved**q)
            value.append(weight * brute_bottleneck(members, point))
        assert np.all(np.abs(mass - 1.0) <= 1e-15)
        assert math.fsum(spent) / scen.count <= theta**q
        expected = math.fsum(value) / scen.count
        assert abs(expected - bracket.lower) <= 1e-12 * (1.0 + abs(bracket.lower))
