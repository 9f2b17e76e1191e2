"""Robust quantification: scenario levels, worst cases, brackets, radii."""

import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from _oracles import (
    brute_family_level,
    brute_members,
    brute_minimal_hitting_sets,
    brute_topk,
    common_level_robust_oracle,
    enumerated_topk_value,
    exact_topk_oracle,
    reference_scenario_value,
    two_point_mixture_oracle,
)
from conftest import count_calls, random_system
from drbottleneck import (
    AssignmentSystem,
    CiReport,
    ConvergenceError,
    DomainError,
    ExplicitSystem,
    MultihopParams,
    PathSystem,
    ScenarioSet,
    WassersteinBall,
    bottleneck_value,
    calibrate_radius,
    calibrate_radius_topk,
    calibrate_radius_topk_decision,
    check_gap_bounds,
    decision_worst_case_distribution,
    element_level,
    empirical_record,
    generate_multihop,
    indifference_set,
    iter_members,
    l1_robust_level,
    matching_permutation,
    min_member_size,
    min_weight_blocker,
    quantify_robust,
    quantify_robust_finite_order,
    quantify_topk,
    robust_decision,
    robust_scenario_value,
    saa_decision,
    saa_value,
    save_scenarios,
    smallest_radius_in_band,
    structure_constant,
    system_to_json,
    topk_decision,
    topk_record,
    topk_sum_value,
    topk_variance_robust_decision,
    worst_case_distribution,
)
from drbottleneck import _family, _finite, quantify
from drbottleneck.cli import main
from drbottleneck.decide import _shifted
from drbottleneck.errors import EnumerationLimitError, InvariantViolationError


def closed_form_max_over_blocker(system, costs, radius, r):
    """Independent route: per-element closed-form level on the enumerated
    minimal hitting sets, maximized."""
    hitting = brute_minimal_hitting_sets(brute_members(system), system.ground.n)
    return max(element_level(costs, h, radius, r) for h in hitting)


class TestElementLevel:
    def test_l1_examples(self):
        assert l1_robust_level([2.0, 4.0], 1.0) == 3.0
        assert l1_robust_level([2.0, 4.0], 5.0) == 5.5
        assert l1_robust_level([7.25], 2.5) == 9.75

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            l1_robust_level([4.0, 2.0], 1.0)

    def test_equal_costs_any_norm(self):
        # all costs equal: level is cost + radius / size^(1/r)
        for r in (1.0, 2.0, 3.0):
            level = element_level([5.0, 5.0, 5.0, 5.0], range(4), 2.0, r)
            assert level == pytest.approx(5.0 + 2.0 / 4 ** (1.0 / r), abs=1e-12)

    def test_budget_exhausted_exactly(self):
        rng = np.random.default_rng(3)
        for r in (1.0, 2.0, 1.5):
            for _ in range(50):
                costs = np.sort(rng.uniform(0, 10, size=rng.integers(1, 6)))
                radius = float(rng.uniform(0.01, 3.0))
                level = element_level(costs, range(len(costs)), radius, r)
                spent = np.sum(np.clip(level - costs, 0, None) ** r)
                assert spent == pytest.approx(radius**r, rel=1e-9)

    def test_overflowing_bracket_keeps_the_level(self):
        # c_0 + 2 * radius overflows, where the bisection used to return the
        # least cost, 5; lifting that cost alone by the radius reaches 1e308
        costs = [1.7e308, -1.7e308, 1e308, -1e308, 5.0]
        level = element_level(costs, [0, 2, 4], 1e308, 1.0)
        c = np.array(costs)[[0, 2, 4]]

        def spent(t):
            with np.errstate(over="ignore"):
                return float(np.sum(np.clip(t - c, 0.0, None)))

        assert spent(level) <= 1e308 < spent(np.nextafter(level, np.inf))
        system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
        scenarios = ScenarioSet([costs])
        robust = quantify_robust(system, scenarios, WassersteinBall(radius=1e308)).value
        generated = quantify_topk(topk_record(system, scenarios, 1), 1e308, 1.0).exact
        assert level == robust == generated == 1e308

    def test_level_past_the_float_range_is_refused(self):
        # c_0 + radius overflows too: only a level the floats cannot hold is refused
        with pytest.raises(DomainError, match="element level overflows"):
            element_level([1e308], [0], 1e308, 1.0)
        assert element_level([1e308] * 3, range(3), 1.5e308, 1.0) == 1.5e308

    def test_overflowing_budget_is_refused(self):
        # radius^r past the float range: a refusal, not an OverflowError or a
        # RuntimeWarning (which the suite turns into errors)
        system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
        scenarios = ScenarioSet(np.random.default_rng(11).uniform(0.0, 10.0, size=(3, 5)))
        refusals = [
            lambda: element_level([1.0, 2.0], [0, 1], 1e300, 2.0),
            lambda: quantify_robust(system, scenarios, WassersteinBall(1e300, ground_order=2.0)),
            lambda: quantify_topk(topk_record(system, scenarios, 1), 1e300, 2.0),
            lambda: quantify_topk(topk_record(system, scenarios, 2), 1e300, 2.0),
        ]
        for refused in refusals:
            with pytest.raises(DomainError, match="budget radius\\^r overflows"):
                refused()


class TestRobustScenarioValue:
    def test_triangle_l1(self, triangle):
        rec = robust_scenario_value(
            triangle, [3.0, 5.0, 7.0], bottleneck_value(triangle, [3.0, 5.0, 7.0]), 1.0, 1.0
        )
        assert rec.level == 6.0
        assert rec.witness.elements == frozenset({1, 2})
        assert rec.raised == frozenset({1})

    def test_triangle_l2(self, triangle):
        rec = robust_scenario_value(
            triangle, [3.0, 5.0, 7.0], bottleneck_value(triangle, [3.0, 5.0, 7.0]), 1.0, 2.0
        )
        assert rec.level == pytest.approx(6.0, abs=1e-12)

    def test_zero_radius(self, triangle):
        rec = robust_scenario_value(
            triangle, [3.0, 5.0, 7.0], bottleneck_value(triangle, [3.0, 5.0, 7.0]), 0.0, 1.0
        )
        assert rec.level == 5.0

    def test_refuses_the_result_of_other_costs(self, triangle):
        costs = np.array([3.0, 5.0, 7.0])
        others = (bottleneck_value(triangle, [3.0, 6.0, 7.0]), bottleneck_value(triangle, -costs))
        for other in others:
            with pytest.raises(DomainError, match="empirical bottleneck"):
                robust_scenario_value(triangle, costs, other, 1.0)

    def test_negative_radius_rejected(self, triangle):
        with pytest.raises(DomainError):
            robust_scenario_value(
                triangle, [3.0, 5.0, 7.0], bottleneck_value(triangle, [3.0, 5.0, 7.0]), -0.5, 1.0
            )

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_matches_closed_form_route(self, r):
        rng = np.random.default_rng(int(r * 100))
        for _ in range(60):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            radius = float(rng.choice([0.0, 0.1, 1.0]))
            tied = rng.integers(-3, 4, size=system.ground.n) / 2.0
            for c in (costs, tied):
                fast = robust_scenario_value(
                    system, c, bottleneck_value(system, c), radius, r
                ).level
                assert fast == closed_form_max_over_blocker(system, c, radius, r)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_matches_perturbation_oracle(self, r):
        rng = np.random.default_rng(int(r * 100) + 1)
        for _ in range(25):
            system = random_system(rng)
            if system.ground.n > 7:
                continue
            costs = rng.uniform(0, 10, size=system.ground.n)
            radius = float(rng.choice([0.1, 1.0]))
            fast = robust_scenario_value(
                system, costs, bottleneck_value(system, costs), radius, r
            ).level
            grid = common_level_robust_oracle(brute_members(system), costs, radius, r)
            assert fast == pytest.approx(grid, abs=1e-4)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_exhausted_level_search_raises(self, monkeypatch, r):
        # the empirical dual witness cuts all three edges, the dead end
        # included, so the first lift moves to the cut {1, 2} and the second
        # call certifies that no cut gets higher
        system = PathSystem(nodes=3, edges=((0, 1), (0, 2), (0, 2)), s=0, t=2)
        costs = [1.0, 1.0, 1.0]
        calls = []
        raise_cost = quantify._raise_cost
        monkeypatch.setattr(
            quantify, "_raise_cost", lambda *args: calls.append(1) or raise_cost(*args)
        )
        expected = robust_scenario_value(system, costs, bottleneck_value(system, costs), 1.0, r)
        needed = len(calls)
        assert needed > 1
        record = empirical_record(system, ScenarioSet([costs]))
        ball = WassersteinBall(1.0, r)
        monkeypatch.setattr(quantify, "LEVEL_SEARCH_MAX_ITER", needed)
        assert robust_scenario_value(
            system, costs, bottleneck_value(system, costs), 1.0, r
        ) == expected
        assert record.quote(ball).per_scenario == (expected,)
        for cap in (needed - 1, 1):
            monkeypatch.setattr(quantify, "LEVEL_SEARCH_MAX_ITER", cap)
            with pytest.raises(ConvergenceError, match=f"after {cap} blocker calls"):
                robust_scenario_value(system, costs, bottleneck_value(system, costs), 1.0, r)
            with pytest.raises(ConvergenceError, match=f"after {cap} blocker calls"):
                record.quote(ball)

    @pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
    @pytest.mark.parametrize("sense", ["cost", "capacity"])
    def test_record_route_is_the_scenario_route(self, kind, sense):
        # the record's quote, robust_scenario_value and the frozen search
        # that sorted its witness on every call agree bit for bit: levels,
        # witnesses, raised sets and the worst-case support
        rng = np.random.default_rng(sorted(["path", "tree", "assignment", "explicit"]).index(kind))
        sign = 1.0 if sense == "cost" else -1.0
        for _ in range(4):
            system = random_system(rng, kind)
            n = system.ground.n
            for costs in (rng.uniform(-5.0, 5.0, (3, n)), rng.integers(-3, 4, (3, n)) / 2.0):
                scenarios = ScenarioSet(costs)
                record = empirical_record(system, scenarios, sense)
                for r, radius in product((1.0, 1.5, 2.0, 3.0), (0.0, 1e-9, 0.7, 3.0, 1e4)):
                    quote = record.quote(WassersteinBall(radius, r))
                    support = np.array(costs)
                    for k, got in enumerate(quote.per_scenario):
                        c = sign * costs[k]
                        empirical = bottleneck_value(system, c)
                        one = robust_scenario_value(system, c, empirical, radius, r)
                        frozen = reference_scenario_value(system, c, empirical, radius, r)
                        for want in ((one.level, one.witness, one.raised), frozen):
                            assert (sign * want[0]).hex() == got.level.hex(), (kind, r, radius)
                            assert (want[1], want[2]) == (got.witness, got.raised)
                        support[k, sorted(one.raised)] = got.level
                    assert quote.worst_case_support.tobytes() == support.tobytes()

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_multihop_level_search_stops_within_three_calls(self, monkeypatch, r):
        # a bisection of [Z, Z + radius] needs up to 36 blocker calls here
        params = MultihopParams(nodes=20, sample_count=10, seed=7)
        system, scenarios, _ = generate_multihop(params)
        calls = []
        raise_cost = quantify._raise_cost
        monkeypatch.setattr(
            quantify, "_raise_cost", lambda *args: calls.append(1) or raise_cost(*args)
        )
        for radius in np.linspace(0.0, 0.2, 11):
            for costs in scenarios.costs:
                calls.clear()
                robust_scenario_value(
                    system, -costs, bottleneck_value(system, -costs), float(radius), r
                )
                assert len(calls) <= 3, (float(radius), r)

    def test_budget_monotone_in_level(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            grid = np.linspace(costs.min(), costs.max() + 2, 20)
            used = [
                min_weight_blocker(system, np.clip(t - costs, 0, None) ** 2)[0]
                for t in grid
            ]
            assert all(a <= b + 1e-15 for a, b in zip(used, used[1:]))


class TestQuantifyRobust:
    def test_single_scenario_triangle(self, triangle):
        quote = quantify_robust(
            triangle,
            ScenarioSet([[3.0, 5.0, 7.0]]),
            WassersteinBall(radius=1.0, ground_order=1.0),
        )
        assert quote.value == 6.0
        assert np.array_equal(quote.worst_case_support, [[3.0, 6.0, 7.0]])

    def test_duplicated_scenarios_average(self, triangle):
        one = quantify_robust(
            triangle, ScenarioSet([[3.0, 5.0, 7.0]]), WassersteinBall(1.0)
        )
        two = quantify_robust(
            triangle,
            ScenarioSet([[3.0, 5.0, 7.0], [3.0, 5.0, 7.0]]),
            WassersteinBall(1.0),
        )
        assert one.value == two.value

    def test_zero_radius_equals_saa(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 6), system.ground.n)))
            quote = quantify_robust(system, scen, WassersteinBall(0.0))
            assert quote.value == saa_value(system, scen)

    def test_zero_radius_equals_saa_on_inexact_ties(self):
        # 0.1 + 0.1 + 0.1 rounds above 0.3, so a level averaged over the
        # three tied edges at s would sit one ulp above the bottleneck value
        k4 = PathSystem(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 0, 3)
        scen = ScenarioSet(np.full((1, 6), 0.1))
        quote = quantify_robust(k4, scen, WassersteinBall(0.0))
        assert quote.value == saa_value(k4, scen) == 0.1
        assert np.array_equal(worst_case_distribution(quote, scen), scen.costs)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            values = [
                quantify_robust(system, scen, WassersteinBall(theta)).value
                for theta in (0.0, 0.2, 0.5, 1.0)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(107)
        system = random_system(rng)
        costs = rng.uniform(0, 10, size=(6, system.ground.n))
        ball = WassersteinBall(0.7, ground_order=2.0)
        base = quantify_robust(system, ScenarioSet(costs), ball).value
        for _ in range(5):
            perm = rng.permutation(6)
            shuffled = quantify_robust(system, ScenarioSet(costs[perm]), ball).value
            assert shuffled == base

    def test_capacity_sense_negation(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            ball = WassersteinBall(0.5)
            cap = quantify_robust(system, scen, ball, sense="capacity")
            negated = ScenarioSet(-scen.costs)
            cost = quantify_robust(system, negated, ball, sense="cost")
            assert cap.value == pytest.approx(-cost.value, abs=1e-12)
            # adversary lowers capacities
            assert cap.value <= saa_value(system, scen, sense="capacity") + 1e-12


class TestWorstCaseDistribution:
    def test_triangle_support(self, triangle):
        scen = ScenarioSet([[3.0, 5.0, 7.0]])
        quote = quantify_robust(triangle, scen, WassersteinBall(1.0))
        support = worst_case_distribution(quote, scen)
        assert np.array_equal(support, [[3.0, 6.0, 7.0]])

    def test_zero_radius_keeps_data(self, triangle):
        scen = ScenarioSet([[3.0, 5.0, 7.0], [1.0, 1.0, 1.0]])
        quote = quantify_robust(triangle, scen, WassersteinBall(0.0))
        assert np.array_equal(worst_case_distribution(quote, scen), scen.costs)

    def test_capacity_quote_rejected(self, triangle):
        scen = ScenarioSet([[3.0, 5.0, 7.0]])
        quote = quantify_robust(triangle, scen, WassersteinBall(0.5), sense="capacity")
        with pytest.raises(DomainError):
            worst_case_distribution(quote, scen)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_attainment_and_feasibility(self, r):
        from drbottleneck import bottleneck_value

        rng = np.random.default_rng(int(r) + 200)
        for _ in range(50):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 5), system.ground.n)))
            theta = float(rng.choice([0.0, 0.3, 1.0]))
            quote = quantify_robust(system, scen, WassersteinBall(theta, ground_order=r))
            support = worst_case_distribution(quote, scen)
            replay = math.fsum(
                bottleneck_value(system, row).value for row in support
            ) / scen.count
            assert replay == pytest.approx(quote.value, abs=1e-9)
            moves = np.abs(support - scen.costs)
            norms = (moves**r).sum(axis=1) ** (1.0 / r)
            assert np.all(norms <= theta + 1e-12)


class TestGapBounds:
    def test_triangle_margins(self, triangle):
        report = check_gap_bounds(6.0, 5.0, 1.0, 1.0, 2)
        assert report.lower_bound == 0.5
        assert report.upper_bound == 1.0
        assert report.lower_slack == 0.5
        assert report.upper_slack == 0.0

    def test_zero_radius(self):
        report = check_gap_bounds(5.0, 5.0, 0.0, 1.0, 3)
        assert report.gap == 0.0

    def test_violation_raises(self):
        with pytest.raises(InvariantViolationError):
            check_gap_bounds(7.5, 5.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_holds_on_random_instances(self, r):
        rng = np.random.default_rng(int(r) + 300)
        for _ in range(60):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 5), system.ground.n)))
            theta = float(rng.choice([0.0, 0.2, 1.0]))
            quote = quantify_robust(system, scen, WassersteinBall(theta, ground_order=r))
            hitting = brute_minimal_hitting_sets(brute_members(system), system.ground.n)
            size = max(len(h) for h in hitting)
            check_gap_bounds(quote.value, saa_value(system, scen), theta, r, size)


class TestRadiusRules:
    def test_frozen_values(self):
        assert calibrate_radius(100, 1.0, 0.05, 4, 1.0) == pytest.approx(
            1.19915, abs=1e-4
        )

    def test_epsilon_one_limit(self):
        assert calibrate_radius(100, 1.0, 1.0 - 1e-12, 4, 1.0) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_quadruple_samples_halves_radius(self):
        a = calibrate_radius(100, 1.0, 0.05, 4, 1.0)
        b = calibrate_radius(400, 1.0, 0.05, 4, 1.0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            calibrate_radius(100, 1.0, 0.0, 4)
        with pytest.raises(DomainError):
            calibrate_radius(100, -1.0, 0.5, 4)

    def test_topk_rules(self):
        part_i, part_ii = calibrate_radius_topk(100, 1.0, 0.05, 2, 1.0, union_size=4)
        assert part_i == pytest.approx(0.59957, abs=1e-4)
        # ground order 1 makes the upper-side rule k-free
        assert part_ii == pytest.approx(calibrate_radius(100, 1.0, 0.05, 1), rel=1e-12)
        one_i, _ = calibrate_radius_topk(100, 1.0, 0.05, 1, 1.0, union_size=4)
        assert one_i == calibrate_radius(100, 1.0, 0.05, 4, 1.0)


class TestFiniteOrder:
    def test_single_element_analytic(self):
        system = ExplicitSystem(members=(frozenset({0}),))
        scen = ScenarioSet([[5.0]])
        for q in (1.0, 2.0):
            value, lam = quantify_robust_finite_order(empirical_record(system, scen), 0.3, q)
            assert value == pytest.approx(5.3, abs=1e-9)
            assert lam >= 0.99

    def test_zero_radius(self, triangle):
        scen = ScenarioSet([[3.0, 5.0, 7.0], [2.0, 2.0, 9.0]])
        value, lam = quantify_robust_finite_order(empirical_record(triangle, scen), 0.0, 2.0)
        assert value == saa_value(triangle, scen)
        assert math.isinf(lam)

    def test_dual_function_convex(self, triangle):
        scen = ScenarioSet([[3.0, 5.0, 7.0]])
        q, r, theta = 2.0, 1.0, 0.4
        base = bottleneck_value(triangle, scen.costs[0])

        lams = np.linspace(0.3, 4.0, 13)
        phis = [
            lam * theta**q + _finite._LiftModel(triangle, scen.costs[0], base, q, r).upper(lam)
            for lam in lams
        ]
        second = np.diff(phis, 2)
        assert np.all(second >= -1e-6)
        # at r = 1 the envelope is the sup: an attained lift reaches it
        model = _finite._LiftModel(triangle, scen.costs[0], base, q, r)
        for lam in lams:
            upper = model.upper(lam)
            gap = _finite.FINITE_ORDER_GAP * (1.0 + abs(upper))
            assert upper - model.best(lam).value <= gap

    def test_dominates_infinite_order(self, triangle):
        # weak duality: any multiplier upper-bounds the essential-sup value
        scen = ScenarioSet([[3.0, 5.0, 7.0], [1.0, 6.0, 6.5]])
        theta = 0.5

        vinf = quantify_robust(triangle, scen, WassersteinBall(theta)).value
        for lam in (0.8, 1.5, 4.0):
            bound = lam * theta + math.fsum(
                _finite._LiftModel(
                    triangle, scen.costs[k], bottleneck_value(triangle, scen.costs[k]), 1.0, 1.0
                ).upper(lam)
                for k in range(2)
            ) / 2
            assert vinf <= bound + 1e-9

    def test_unbounded_exactly_below_the_tail_limit(self, triangle):
        # both blocker elements, {0, 2} and {1, 2}, have two elements, so at
        # q = 1 the sup is +inf exactly below lam = 1/2
        costs = np.array([3.0, 5.0, 7.0])
        base = bottleneck_value(triangle, costs)
        limit = _finite._LiftModel(triangle, costs, base, 1.0, 1.0).upper(math.nextafter(0.5, 0.0))
        assert limit == math.inf
        for lam in (0.5, 0.75, 2.0):
            assert math.isfinite(_finite._LiftModel(triangle, costs, base, 1.0, 1.0).upper(lam))

    def test_exhausted_multiplier_search_raises(self, triangle, monkeypatch):
        monkeypatch.setattr(_finite, "MULTIPLIER_SEARCH_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="after 1 steps"):
            quantify_robust_finite_order(
                empirical_record(triangle, ScenarioSet([[3.0, 5.0, 7.0]])), 0.25, 2.0
            )

    def test_bridge_envelope_blocker_calls(self, monkeypatch):
        # the first scenario of the benchmark's finite-order run
        system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
        costs = np.random.default_rng(11).uniform(0, 10, (6, 5))[:1]
        calls = []
        blocker = _finite.min_weight_blocker
        monkeypatch.setattr(
            _finite, "min_weight_blocker", lambda *args: calls.append(1) or blocker(*args)
        )
        _, lam = quantify_robust_finite_order(
            empirical_record(system, ScenarioSet(costs)), 1.0, 2.0
        )
        assert len(calls) <= 20
        assert abs(lam - 0.5) <= 1e-12

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_triangle_against_mixture_oracle(self, triangle, q):
        costs = np.array([3.0, 5.0, 7.0])
        theta = 0.25
        value, _ = quantify_robust_finite_order(
            empirical_record(triangle, ScenarioSet([costs])), theta, q, 1.0
        )
        oracle = two_point_mixture_oracle(
            brute_members(triangle), costs, theta, q, 1.0
        )
        assert value == pytest.approx(oracle, abs=1e-4)


class TestTopkQuantify:
    def test_two_by_two_bracket_and_exact(self):
        from drbottleneck import AssignmentSystem

        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0]])
        quote = quantify_topk(topk_record(system, scen, 2), 1.0, 1.0)
        assert quote.saa == 5.0
        assert quote.lower == pytest.approx(5.5)
        assert quote.upper == pytest.approx(6.0)
        assert quote.exact == pytest.approx(5.5, abs=1e-9)
        assert not quote.downgraded

    def test_record_builds_one_fold_and_matches_each_scenario_search(self, monkeypatch):
        """``topk_record`` searches one top-k fold a scenario at a time; its
        SAA is the mean of ``topk_sum_value`` on each scenario, bit for bit."""
        from drbottleneck import decide, topk_sum_value
        from drbottleneck.errors import exact_sum

        built = []
        init = decide._TopK.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        rng = np.random.default_rng(406)
        done = 0
        while done < 12:
            system = random_system(rng)
            if system.ground.n > 8 or min_member_size(system) < 2:
                continue
            count = int(rng.integers(1, 6))
            costs = rng.uniform(-5.0, 10.0, size=(count, system.ground.n))
            if done % 2:
                costs = np.round(costs)  # integer ties
            scen = ScenarioSet(costs)
            for k in range(1, min(3, min_member_size(system)) + 1):
                sums = [topk_sum_value(system, c, k)[0] for c in scen.costs]
                built.clear()
                monkeypatch.setattr(decide._TopK, "__init__", counted)
                record = topk_record(system, scen, k)
                monkeypatch.undo()
                assert len(built) == 1
                assert record.saa == exact_sum(sums) / count
            done += 1

    def test_zero_radius_collapses(self):
        rng = np.random.default_rng(404)
        from drbottleneck import min_member_size

        for _ in range(10):
            system = random_system(rng)
            if min_member_size(system) < 2 or system.ground.n > 8:
                continue
            scen = ScenarioSet(rng.uniform(0, 10, size=(2, system.ground.n)))
            quote = quantify_topk(topk_record(system, scen, 2), 0.0, 1.0)
            assert quote.lower == quote.saa == quote.upper
            assert quote.exact == pytest.approx(quote.saa, abs=1e-9)

    def test_k_one_matches_plain_quantification(self):
        rng = np.random.default_rng(405)
        done = 0
        while done < 25:
            system = random_system(rng)
            if system.ground.n > 8:
                continue
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 4), system.ground.n)))
            theta = float(rng.choice([0.0, 0.4, 1.0]))
            quote = quantify_topk(topk_record(system, scen, 1), theta, 1.0)
            plain = quantify_robust(system, scen, WassersteinBall(theta)).value
            assert quote.exact == pytest.approx(plain, abs=1e-12)
            done += 1

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_exact_inside_bracket_and_near_oracle(self, r):
        from drbottleneck import min_member_size

        rng = np.random.default_rng(int(r) + 500)
        done = 0
        while done < 12:
            system = random_system(rng)
            n = system.ground.n
            if n > 6 or min_member_size(system) < 2:
                continue
            scen = ScenarioSet(rng.uniform(0, 10, size=(1, n)))
            theta = float(rng.uniform(0.2, 1.0))
            quote = quantify_topk(topk_record(system, scen, 2), theta, r)
            assert quote.exact is not None
            assert quote.lower - 1e-9 <= quote.exact <= quote.upper + 1e-9
            oracle = exact_topk_oracle(brute_members(system), scen.costs[0], theta, r, 2)
            assert abs(quote.exact - oracle) <= 1e-12 * (1.0 + abs(oracle))
            done += 1


def final_rounds(monkeypatch, record, radius: float, r: float):
    """``quantify_topk(record, radius, r)`` and each scenario's last member
    generation round, as ``(costs, F, lift, U_F, L)``: the members held, the
    lift of the best selection, its level and the top-k sum under it."""
    rounds = []
    select, search = quantify._selection_level, quantify.topk_sum_value

    def selection(c, choices, *args):
        level, lift = select(c, choices, *args)
        members = [frozenset().union(*rows) for rows, _ in choices]
        if rounds and rounds[-1][0] is c:  # a later round of the same scenario
            rounds.pop()
        rounds.append([c, members, lift, level, None])
        return level, lift

    def searched(system, costs, k, force=False):
        value, member = search(system, costs, k, force=force)
        rounds[-1][4] = value
        return value, member

    with monkeypatch.context() as patched:
        patched.setattr(quantify, "_selection_level", selection)
        patched.setattr(quantify, "topk_sum_value", searched)
        quote = quantify_topk(record, radius, r)
    return quote, [tuple(kept) for kept in rounds]


def check_certificate(c, members, lift, level, value, radius, r, k, least_sum):
    """Rebuild one scenario's certificate: the lift is feasible, ``least_sum``
    of the lifted costs is the attained L, the best family level over the
    selections of F by enumeration is U_F, and L closes the gap to it."""
    assert (lift >= 0.0).all()
    norm = math.fsum(lift.tolist()) if r == 1.0 else float(np.sum(lift**r)) ** (1.0 / r)
    assert norm <= radius * (1.0 + 1e-12)
    assert least_sum(c + lift) == value
    choices = [list(combinations(sorted(member), k)) for member in members]
    families = {frozenset(map(frozenset, pick)) for pick in product(*choices)}
    upper = max(brute_family_level(c, family, radius, r) for family in families)
    assert abs(level - upper) <= 1e-12 * (1.0 + abs(upper))
    assert value >= upper - 1e-12 * (1.0 + abs(upper))


def _generation_instances(seed, per_kind):
    """Seeded systems of each kind on up to 6 elements whose members have 2
    or more elements, each under integer ties, one scenario, negative costs
    and mixed signs."""
    rng = np.random.default_rng(seed)
    for kind in ("path", "tree", "assignment", "explicit"):
        done = 0
        while done < per_kind:
            system = random_system(rng, kind)
            n = system.ground.n
            if n > 6 or min_member_size(system) < 2:
                continue
            done += 1
            yield system, ScenarioSet(rng.integers(0, 4, size=(3, n)).astype(float))
            yield system, ScenarioSet(rng.uniform(0.0, 10.0, size=(1, n)))
            yield system, ScenarioSet(rng.uniform(-10.0, -1.0, size=(2, n)))
            yield system, ScenarioSet(rng.uniform(-10.0, 10.0, size=(2, n)))


class TestMemberGeneration:
    """Top-k quantification by member generation, against the max over
    enumerated top-k blocker families it replaced, and by certificates
    rebuilt independently where that enumeration is refused."""

    def test_matches_the_enumerated_route(self):
        """Within the family level's certified gap, and bit for bit on all
        but a few values.  Bit for bit is not a property of the method: at
        this seed one value at r = 1 and one at r = 1.5 differ by an ulp.
        The r = 1 one is on integer ties, where generation certifies the
        level on three of the five subsets of the enumerated family; the two
        simplex lifts both attain the optimum 2/3, rounded either way.  How
        many differ depends on the rounding of the simplex and the dual, so
        the count is bounded, at 1% of the values for each r, not pinned."""
        checked = dict.fromkeys((1.0, 1.5, 2.0), 0)
        inexact = dict.fromkeys(checked, 0)
        for system, scen in _generation_instances(2901, 8):
            for k in range(2, min(3, min_member_size(system)) + 1):
                try:
                    enumerated_topk_value(system, scen, k, 0.0, 1.0)
                except EnumerationLimitError:
                    continue
                record = topk_record(system, scen, k)
                for r in checked:
                    for theta in (0.0, 0.3, 1.0, 3.0):
                        want = enumerated_topk_value(system, scen, k, theta, r)
                        got = quantify_topk(record, theta, r).exact
                        context = (system, scen.costs.tolist(), k, r, theta, got, want)
                        assert abs(got - want) <= _family.FAMILY_LEVEL_GAP * (1.0 + abs(want)), (
                            context
                        )
                        checked[r] += 1
                        inexact[r] += got != want
        assert min(checked.values()) > 100
        assert all(inexact[r] <= 0.01 * checked[r] for r in checked), (checked, inexact)

    @pytest.mark.parametrize("scale", [1e5, 1e9])
    def test_cancelling_costs_certify_by_a_member_held(self, scale):
        """The optimum {0, 3} of the bridge has costs scale and 1 - scale, so
        its top-2 sum under a lift rounds by more than 1e-12 * (1 + |U_F|).
        The search returns that member, already held, and generation stops
        with U_F: the enumerated value, not an error."""
        system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
        scen = ScenarioSet([[scale, 5.0, 5.0, 1.0 - scale, 5.0]])
        record = topk_record(system, scen, 2)
        for r in (1.0, 2.0):
            for theta in (0.3, 0.7, 1.1):
                want = enumerated_topk_value(system, scen, 2, theta, r)
                got = quantify_topk(record, theta, r).exact
                assert abs(got - want) <= _family.FAMILY_LEVEL_GAP * (1.0 + abs(want)), (r, theta)

    @pytest.mark.parametrize("r, radius", [(1.0, 1.0), (2.0, 0.5)])
    def test_bundled_nine_by_nine_certificates(self, monkeypatch, r, radius):
        """Enumeration is refused at ground 81; each scenario's value is
        certified by its last round."""
        from test_fast_paths import _bundled_matching

        system, scen = _bundled_matching()
        scen = ScenarioSet(scen.costs[:3])
        record = topk_record(system, scen, 2)
        assert record.union_size == 81
        quote, rounds = final_rounds(monkeypatch, record, radius, r)
        assert not quote.downgraded and len(rounds) == 3
        assert quote.exact == math.fsum(level for _, _, _, level, _ in rounds) / 3
        assert quote.lower <= quote.exact <= quote.upper
        for c, members, lift, level, value in rounds:
            check_certificate(
                c, members, lift, level, value, radius, r, 2,
                lambda costs: topk_sum_value(system, costs, 2)[0],
            )

    def test_exhausted_solves_downgrade_to_a_tighter_bracket(self, monkeypatch):
        """With one family level a scenario, a scenario that needs a second
        round keeps the bounds of its first: the quote has no exact value,
        and its bracket holds the enumerated value inside the paper's."""
        system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
        scen = ScenarioSet(np.random.default_rng(11).uniform(0.0, 10.0, size=(6, 5)))
        record = topk_record(system, scen, 2)
        searches = count_calls(monkeypatch, topk_sum_value)
        paper = quantify_topk(record, 2.0, 1.0)
        assert paper.exact is not None and not paper.downgraded
        assert len(searches) > scen.count  # some scenario takes a second round
        want = enumerated_topk_value(system, scen, 2, 2.0, 1.0)
        monkeypatch.setattr(_family, "TOPK_MAX_FAMILY_SOLVES", 1)
        quote = quantify_topk(record, 2.0, 1.0)
        assert quote.downgraded and quote.exact is None
        assert paper.lower <= quote.lower <= want <= quote.upper <= paper.upper
        assert paper.lower < quote.lower or quote.upper < paper.upper


class TestExactTopkOracle:
    def _instances(self, seed, count, k=None):
        """``(system, members, costs, k, r)`` on up to 6 elements and at most
        10^5 selections."""
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            system = random_system(rng)
            n = system.ground.n
            costs = rng.uniform(0, 10, size=n)
            size = k or int(rng.integers(1, 3))
            r = float(rng.choice([1.0, 2.0]))
            if n > 6 or min_member_size(system) < size:
                continue
            members = brute_members(system)
            if math.prod(math.comb(len(m), size) for m in members) <= 10**5:
                out.append((system, members, costs, size, r))
        return out

    def test_zero_radius_is_brute_topk(self):
        for _, members, costs, k, r in self._instances(610, 20):
            assert exact_topk_oracle(members, costs, 0.0, r, k) == brute_topk(members, costs, k)

    def test_k_one_matches_plain_quantification(self):
        for system, members, costs, _, r in self._instances(611, 20, k=1):
            oracle = exact_topk_oracle(members, costs, 0.7, r, 1)
            plain = quantify_robust(
                system, ScenarioSet(costs[None, :]), WassersteinBall(0.7, ground_order=r)
            ).value
            assert abs(oracle - plain) <= 1e-12 * (1.0 + abs(plain))

    def test_selection_cap_raises(self):
        # C(10, 5)^3 = 16,003,008 selections
        members = [frozenset(range(i, i + 10)) for i in range(3)]
        with pytest.raises(ValueError, match="exceed the cap"):
            exact_topk_oracle(members, np.ones(12), 0.5, 1.0, 5)


class TestQuoteSerialization:
    def test_to_dict_round_trips_through_json(self, triangle):
        import json

        quote = quantify_robust(
            triangle,
            ScenarioSet([[3.0, 5.0, 7.0], [2.0, 4.0, 9.0]]),
            WassersteinBall(radius=0.5, ground_order=2.0),
        )
        payload = json.loads(json.dumps(quote.to_dict()))
        assert payload["value"] == quote.value
        assert payload["config"] == {"radius": 0.5, "order": "inf", "ground_order": 2.0}
        assert len(payload["per_scenario"]) == 2
        rec = payload["per_scenario"][0]
        assert set(rec) == {"level", "witness", "raised"}


class TestFiniteOrderRadiusFactor:
    def test_q_factor(self):
        base = calibrate_radius(100, 1.0, 0.05, 4, 1.0)
        q2 = calibrate_radius(100, 1.0, 0.05, 4, 1.0, transport_order=2.0)
        assert q2 == pytest.approx(base * 2.0 ** -0.5, rel=1e-12)


class TestFiniteOrderBrackets:
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_gap_bounds_and_dominance(self, q):
        rng = np.random.default_rng(int(q) + 900)
        done = 0
        while done < 8:
            system = random_system(rng)
            if system.ground.n > 7:
                continue
            scen = ScenarioSet(rng.uniform(0, 10, size=(int(rng.integers(1, 3)), system.ground.n)))
            theta = float(rng.uniform(0.1, 0.8))
            r = float(rng.choice([1.0, 2.0]))
            value, _ = quantify_robust_finite_order(empirical_record(system, scen), theta, q, r)
            saa = saa_value(system, scen)
            from _oracles import brute_members, brute_minimal_hitting_sets

            hitting = brute_minimal_hitting_sets(
                brute_members(system), system.ground.n
            )
            size = max(len(h) for h in hitting)
            assert saa + theta / size ** (1.0 / r) - 1e-6 <= value <= saa + theta + 1e-6
            # the essential-sup ball sits inside every finite-order ball
            vinf = quantify_robust(
                system, scen, WassersteinBall(theta, ground_order=r)
            ).value
            assert value >= vinf - 1e-6
            done += 1


class TestCapacityAttainment:
    def test_support_attains_capacity_value(self):
        rng = np.random.default_rng(777)
        for _ in range(15):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(1, 10, size=(3, system.ground.n)))
            quote = quantify_robust(
                system, scen, WassersteinBall(0.4), sense="capacity"
            )
            from drbottleneck import bottleneck_value

            replay = -math.fsum(
                bottleneck_value(system, -row).value
                for row in quote.worst_case_support
            ) / scen.count
            assert replay == pytest.approx(quote.value, abs=1e-9)
            # lowered capacities never exceed the budget
            moves = np.abs(quote.worst_case_support - scen.costs)
            assert np.all(moves.sum(axis=1) <= 0.4 + 1e-12)


class TestStructureConstant:
    def test_assignment_value(self):
        from drbottleneck import AssignmentSystem, structure_constant

        # largest submatrix has 4 cells; constant is 4^(1/r)
        assert structure_constant(AssignmentSystem(m=3), 1.0) == 4.0
        assert structure_constant(AssignmentSystem(m=3), 2.0) == pytest.approx(2.0)

    def test_enumeration_guards(self, monkeypatch):
        from drbottleneck import EnumerationLimitError, search

        chain = PathSystem(
            nodes=16, edges=tuple((i, i + 1) for i in range(15)), s=0, t=15
        )
        # the chain's one path is 16 states deep; a budget of 8 refuses the 9th
        scenarios = ScenarioSet(np.ones((2, 15)))
        monkeypatch.setattr(search, "SEARCH_MAX_STATES", 8)
        with pytest.raises(EnumerationLimitError, match="reached 9 states, past its budget of 8"):
            saa_decision(chain, scenarios)
        assert saa_decision(chain, scenarios, force=True).chosen == frozenset(range(15))


class TestTopkUnion:
    """``topk_record`` lists members for the union of the top-k blocker
    families only where the family enumeration takes the ground."""

    @pytest.mark.parametrize("force", [False, True])
    def test_no_walk_past_the_family_ground(self, monkeypatch, force):
        # a 2x2 (ground 4) is walked once; a 3x3 (ground 9) is not, forced or not
        walks = count_calls(monkeypatch, iter_members)
        rng = np.random.default_rng(3)
        for m, union, walked in ((2, 4, 1), (3, 9, 1)):
            scen = ScenarioSet(rng.uniform(0.0, 10.0, size=(2, m * m)))
            assert topk_record(AssignmentSystem(m), scen, 2, force=force).union_size == union
            assert len(walks) == walked

    def test_chain_of_nine_nodes(self):
        # eight edges: each family is one 2-subset of the one path, so U = 2
        chain = PathSystem(nodes=9, edges=tuple((i, i + 1) for i in range(8)), s=0, t=8)
        scen = ScenarioSet(np.random.default_rng(0).uniform(0.0, 10.0, size=(2, 8)))
        assert topk_record(chain, scen, 2).union_size == 2


class TestConcurrentUse:
    def test_thread_pool_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(4242)
        system = random_system(rng)
        costs = rng.uniform(0, 10, size=(16, system.ground.n))

        def solve(row):
            return robust_scenario_value(
                system, row, bottleneck_value(system, row), 0.5, 2.0
            ).level

        serial = [solve(row) for row in costs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, costs))
        assert threaded == serial


NAN = float("nan")


@pytest.mark.parametrize(
    "fields",
    [{"radius": NAN}, {"radius": 0.1, "ground_order": NAN}],
    ids=["radius", "ground-order"],
)
def test_wasserstein_ball_rejects_nan(fields):
    with pytest.raises(DomainError):
        WassersteinBall(**fields)


@pytest.mark.parametrize("radius, r", [(NAN, 1.0), (0.1, NAN)], ids=["radius", "ground-order"])
def test_robust_scenario_value_rejects_nan(triangle, radius, r):
    with pytest.raises(DomainError, match="radius|ground norm"):
        robust_scenario_value(
            triangle, [1.0, 2.0, 3.0], bottleneck_value(triangle, [1.0, 2.0, 3.0]), radius, r
        )


@pytest.mark.parametrize(
    "radius, order, r, message",
    [(NAN, 2.0, 1.0, "radius"), (0.1, NAN, 1.0, "transport order"),
     (0.1, 2.0, NAN, "ground norm order")],
    ids=["radius", "order", "ground-order"],
)
def test_finite_order_rejects_nan(triangle, radius, order, r, message):
    scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
    with pytest.raises(DomainError, match=message):
        quantify_robust_finite_order(empirical_record(triangle, scen), radius, order, r)


@pytest.mark.parametrize(
    "call",
    [
        lambda system, scen: quantify_topk(topk_record(system, scen, 1), NAN),
        lambda system, scen: quantify_topk(topk_record(system, scen, 1), 0.1, NAN),
        lambda system, scen: l1_robust_level([1.0, 2.0], NAN),
        lambda system, scen: calibrate_radius(10, NAN, 0.05, 3),
        lambda system, scen: element_level([1.0, 2.0], [0, 1], NAN),
        lambda system, scen: check_gap_bounds(3.5, 3.0, NAN, 1.0, 2),
    ],
    ids=["topk-radius", "topk-ground-order", "l1-radius", "calibrate-sigma",
         "element-level-radius", "gap-bounds-radius"],
)
def test_other_quantify_entry_points_reject_nan(triangle, call):
    scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
    with pytest.raises(DomainError):
        call(triangle, scen)


RADIUS_ENTRY_POINTS = {
    "ball": lambda system, scen, radius: WassersteinBall(radius),
    "element-level": lambda system, scen, radius: element_level([1.0, 2.0], [0, 1], radius),
    "l1-level": lambda system, scen, radius: l1_robust_level([1.0, 2.0], radius),
    "scenario-value": lambda system, scen, radius: robust_scenario_value(
        system, scen.costs[0], bottleneck_value(system, scen.costs[0]), radius
    ),
    "finite-order": lambda system, scen, radius: quantify_robust_finite_order(
        empirical_record(system, scen), radius, 2.0
    ),
    "topk": lambda system, scen, radius: quantify_topk(topk_record(system, scen, 1), radius),
    "gap-bounds": lambda system, scen, radius: check_gap_bounds(3.5, 3.0, radius, 1.0, 2),
    "decision-fold": lambda system, scen, radius: robust_decision(system, scen, radius),
    "decision-shift": lambda system, scen, radius: _shifted(saa_decision(system, scen), radius),
    "worst-case": lambda system, scen, radius: decision_worst_case_distribution(
        frozenset({0}), scen, radius
    ),
    "indifference": lambda system, scen, radius: indifference_set(system, scen, radius),
}


@pytest.mark.parametrize(
    "call, radius",
    [
        pytest.param(call, radius, id=name + suffix)
        for name, call in RADIUS_ENTRY_POINTS.items()
        for radius, suffix in ((-0.5, ""), (math.inf, "-inf"))
    ],
)
def test_negative_radius_refused(triangle, call, radius):
    # element_level used to answer 1.0 at -0.5, and check_gap_bounds to blame
    # an invariant; an infinite radius gave a NaN gap or an infinite value
    scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
    with pytest.raises(DomainError, match="radius must be finite and nonnegative"):
        call(triangle, scen, radius)


INF = math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda system, scen: WassersteinBall(0.5, ground_order=INF),
        lambda system, scen: robust_scenario_value(
            system, scen.costs[0], bottleneck_value(system, scen.costs[0]), 0.5, INF
        ),
        lambda system, scen: element_level([1.0, 2.0, 3.0], {0, 1, 2}, 0.5, INF),
        lambda system, scen: quantify_robust_finite_order(
            empirical_record(system, scen), 0.5, 2.0, INF
        ),
        lambda system, scen: quantify_topk(topk_record(system, scen, 1), 0.5, INF),
        lambda system, scen: calibrate_radius(10, 1.0, 0.1, 3, INF),
        lambda system, scen: calibrate_radius_topk(10, 1.0, 0.1, 2, INF, 3),
        lambda system, scen: check_gap_bounds(3.5, 3.0, 0.5, INF, 2),
        lambda system, scen: structure_constant(system, INF),
        lambda system, scen: topk_decision(system, scen, 0.5, 1, INF),
        lambda system, scen: topk_variance_robust_decision(system, scen, 0.5, 1, INF),
        lambda system, scen: calibrate_radius_topk_decision(10, 1.0, 0.1, 3, 2, INF),
    ],
    ids=[
        "ball", "scenario-value", "element-level", "finite-order", "topk",
        "calibrate-radius", "calibrate-radius-topk", "gap-bounds", "structure-constant",
        "topk-decision", "topk-variance-decision", "calibrate-radius-topk-decision",
    ],
)
def test_infinite_ground_order_refused(triangle, call):
    # at r = inf the budget radius^r and the 1/r powers of the radius rules
    # stop meaning the sup norm: levels came out below their own brackets
    scen = ScenarioSet(np.array([[3.0, 5.0, 7.0], [2.0, 4.0, 1.0]]))
    with pytest.raises(DomainError, match="ground norm order must be finite"):
        call(triangle, scen)


@pytest.mark.parametrize("model", ["quantify", "gamma-quantify"])
def test_cli_refuses_infinite_ground_order(triangle, tmp_path, capsys, model):
    instance, scenarios = tmp_path / "tri.instance.json", tmp_path / "tri.scenarios.csv"
    instance.write_text(json.dumps(system_to_json(triangle)))
    save_scenarios(scenarios, ScenarioSet(np.array([[3.0, 5.0, 7.0], [2.0, 4.0, 1.0]])))
    assert main([
        "--model", model, "--instance", str(instance), "--scenarios", str(scenarios),
        "--theta", "0.5", "--gamma", "1", "--r", "inf", "--out", str(tmp_path / "o"),
    ]) == 1
    assert "kind=domain: ground norm order must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "call",
    [
        lambda scen: element_level([1.0, 2.0, 3.0], [-1], 0.5),
        lambda scen: element_level([1.0, 2.0, 3.0], [], 0.5),
        lambda scen: element_level([1.0, 2.0, 3.0], [5], 0.5),
        lambda scen: matching_permutation(AssignmentSystem(m=2), frozenset({0, -1})),
        lambda scen: matching_permutation(AssignmentSystem(m=2), frozenset({0, 4})),
        lambda scen: decision_worst_case_distribution(frozenset({-1}), scen, 0.5),
        lambda scen: decision_worst_case_distribution(frozenset({0, 3}), scen, 0.5),
    ],
    ids=[
        "element-level-negative", "element-level-empty", "element-level-past",
        "matching-negative", "matching-past", "worst-case-negative", "worst-case-past",
    ],
)
def test_element_ids_outside_ground_set_refused(call):
    # a negative id used to index from the end and return another element's answer
    scen = ScenarioSet(np.array([[3.0, 5.0, 7.0], [2.0, 4.0, 1.0]]))
    with pytest.raises(DomainError, match="ground element ids"):
        call(scen)


BAND = CiReport(point=5.0, half_width=0.5, level=0.95, method="x")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: smallest_radius_in_band([0.0, 0.1], [5.0, 4.0], BAND, orientation="Capacity"),
         "orientation"),
        (lambda: check_gap_bounds(3.5, 3.0, 0.5, 1.0, 2, sense="capcity"), "sense"),
        (lambda: check_gap_bounds(3.5, 3.0, 0.5, 1.0, 0), "blocker size"),
        (lambda: calibrate_radius(10, 1.0, 0.1, 0), "blocker size"),
        (lambda: calibrate_radius_topk(10, 1.0, 0.1, 0), "k must"),
        (lambda: calibrate_radius_topk(10, 1.0, 0.1, 2, 1.0, 0), "union size"),
        (lambda: calibrate_radius_topk_decision(10, 1.0, 0.1, 3, 0), "k must"),
    ],
    ids=[
        "band-orientation", "gap-sense", "gap-blocker-size", "radius-blocker-size",
        "radius-topk-k", "radius-topk-union-size", "radius-topk-decision-k",
    ],
)
def test_unknown_strings_and_zero_counts_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()
