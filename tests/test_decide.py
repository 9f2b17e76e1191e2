"""Decision models: sample-average, worst-case, variance-robust, TV, top-k."""

import math
import zlib
from itertools import permutations

import numpy as np
import pytest

from conftest import random_assignment_system, random_system
from drbottleneck import (
    AssignmentSystem,
    decide,
    DomainError,
    ExplicitSystem,
    ScenarioSet,
    bottleneck_value,
    calibrate_radius_decision,
    calibrate_radius_topk_decision,
    decision_worst_case_distribution,
    indifference_set,
    matching_permutation,
    min_member_size,
    normal_approx_radius,
    robust_decision,
    saa_decision,
    topk_decision,
    topk_variance_robust_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from drbottleneck.errors import exact_mean, exact_variance


def enumerate_matching_reports(system, costs):
    """All matchings with their mean/variance, computed independently."""
    m = system.m
    out = []
    for perm in permutations(range(m)):
        cells = sorted(i * m + perm[i] for i in range(m))
        values = costs[:, cells].max(axis=1)
        mean = float(values.mean())
        var = float(((values - mean) ** 2).mean())
        out.append((frozenset(cells), mean, var))
    return out


class TestSaaDecision:
    def test_two_scenario_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        report = saa_decision(system, scen)
        assert report.objective == 3.0
        assert report.chosen == frozenset({1, 2})
        assert report.per_scenario == (3.0, 3.0)

    def test_single_scenario_reduces_to_bottleneck(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=(1, system.ground.n))
            report = saa_decision(system, ScenarioSet(costs))
            assert report.objective == bottleneck_value(system, costs[0]).value

    def test_matches_enumeration_on_assignments(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            system = AssignmentSystem(m=3)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 6), 9)))
            report = saa_decision(system, scen)
            brute = enumerate_matching_reports(system, scen.costs)
            best = min(brute, key=lambda rec: (rec[1], tuple(sorted(rec[0]))))
            assert report.objective == pytest.approx(best[1], abs=1e-12)
            assert report.chosen == best[0]


class TestRobustDecision:
    def test_shift_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        report = robust_decision(system, scen, 0.5)
        assert report.objective == 3.5
        assert report.chosen == frozenset({1, 2})

    def test_zero_radius(self):
        rng = np.random.default_rng(7)
        system = random_system(rng)
        scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
        assert robust_decision(system, scen, 0.0).objective == saa_decision(system, scen).objective

    def test_identity_and_same_argmin(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 5), system.ground.n)))
            theta = float(rng.uniform(0, 2))
            base = saa_decision(system, scen)
            rob = robust_decision(system, scen, theta)
            assert abs(rob.objective - base.objective - theta) <= 1e-12
            assert rob.chosen == base.chosen


class TestDecisionWorstCase:
    def test_anti_diagonal_example(self):
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0]])
        support = decision_worst_case_distribution(frozenset({1, 2}), scen, 0.5)
        assert np.array_equal(support, [[1.0, 2.0, 3.5, 4.0]])

    def test_zero_radius_keeps_data(self):
        scen = ScenarioSet([[1.0, 2.0], [2.0, 1.0]])
        support = decision_worst_case_distribution(frozenset({0}), scen, 0.0)
        assert np.array_equal(support, scen.costs)

    def test_attainment_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 6), system.ground.n)))
            theta = float(rng.uniform(0, 2))
            report = saa_decision(system, scen)
            support = decision_worst_case_distribution(report.chosen, scen, theta)
            cols = sorted(report.chosen)
            worst_mean = math.fsum(support[:, cols].max(axis=1)) / scen.count
            assert worst_mean == pytest.approx(report.mean + theta, abs=1e-12)
            assert np.all(np.abs(support - scen.costs).sum(axis=1) <= theta + 1e-12)


class TestRadiusRules:
    def test_frozen_value(self):
        assert calibrate_radius_decision(100, 1.0, 0.05, 10) == pytest.approx(
            0.54572, abs=1e-4
        )

    def test_zero_ground_reduces_to_ci_half_width(self):
        lean = calibrate_radius_decision(100, 1.0, 0.05, 0)
        assert lean == pytest.approx(math.sqrt(-3 * math.log(0.05)) / 10, rel=1e-12)

    def test_sample_scaling(self):
        a = calibrate_radius_decision(100, 1.0, 0.05, 10)
        b = calibrate_radius_decision(400, 1.0, 0.05, 10)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_topk_variant(self):
        base = calibrate_radius_decision(100, 1.0, 0.05, 10)
        assert calibrate_radius_topk_decision(100, 1.0, 0.05, 10, 4, 2.0) == pytest.approx(
            base / 2, rel=1e-12
        )
        assert calibrate_radius_topk_decision(100, 1.0, 0.05, 10, 1, 2.0) == base
        assert calibrate_radius_topk_decision(100, 1.0, 0.05, 10, 4, 1.0) == base

    def test_normal_approx_rule(self):
        values = [1.0, 3.0]
        # population variance 1, two samples
        assert normal_approx_radius(values) == pytest.approx(1.645 * math.sqrt(0.5))


class TestIndifferenceSet:
    def test_materialized_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[3.0, 4.0, 1.0, 3.0], [1.0, 4.0, 1.0, 1.0]])
        wide = indifference_set(system, scen, 2.0, materialize=True)
        assert {frozenset(m) for m in wide.members} == {
            frozenset({0, 3}),
            frozenset({1, 2}),
        }
        narrow = indifference_set(system, scen, 1.0, materialize=True)
        assert narrow.members == (frozenset({0, 3}),)

    def test_zero_radius_contains_optimizers(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            report = saa_decision(system, scen)
            zero = indifference_set(system, scen, 0.0, materialize=True)
            assert report.chosen in set(zero.members)
            for member in zero.members:
                cols = sorted(member)
                assert math.fsum(scen.costs[:, cols].max(axis=1)) / scen.count <= zero.threshold

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(17)
        system = random_assignment_system(rng, max_side=3)
        scen = ScenarioSet(rng.uniform(0, 10, size=(4, system.ground.n)))
        small = indifference_set(system, scen, 0.3, materialize=True)
        large = indifference_set(system, scen, 1.5, materialize=True)
        assert set(small.members) <= set(large.members)


class TestVarianceRobust:
    def test_wide_threshold_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[3.0, 4.0, 1.0, 3.0], [1.0, 4.0, 1.0, 1.0]])
        report = variance_robust_decision(system, scen, 2.0)
        assert report.chosen == frozenset({1, 2})
        assert report.objective == 0.0
        assert report.per_scenario == (4.0, 4.0)

    def test_narrow_threshold_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[3.0, 4.0, 1.0, 3.0], [1.0, 4.0, 1.0, 1.0]])
        report = variance_robust_decision(system, scen, 1.0)
        assert report.chosen == frozenset({0, 3})
        assert report.objective == 1.0

    def test_zero_radius_unique_optimum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            base = saa_decision(system, scen)
            report = variance_robust_decision(system, scen, 0.0)
            assert report.mean <= base.objective + 1e-12

    def test_variance_monotone_in_radius(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(4, system.ground.n)))
            v1 = variance_robust_decision(system, scen, 0.2).objective
            v2 = variance_robust_decision(system, scen, 1.0).objective
            assert v2 <= v1 + 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            system = AssignmentSystem(m=3)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(2, 7), 9)))
            theta = float(rng.uniform(0, 2))
            base = saa_decision(system, scen)
            threshold = base.objective + theta
            brute = enumerate_matching_reports(system, scen.costs)
            eligible = [rec for rec in brute if rec[1] <= threshold]
            best = min(eligible, key=lambda rec: (rec[2], tuple(sorted(rec[0]))))
            report = variance_robust_decision(system, scen, theta)
            assert report.chosen == best[0]
            assert report.objective == pytest.approx(best[2], abs=1e-12)
            assert base.chosen in {rec[0] for rec in eligible}


class TestTotalVariation:
    def test_inner_objective_values(self):
        system = ExplicitSystem(members=(frozenset({0}),))
        scen = ScenarioSet([[1.0], [3.0]])
        assert tv_robust_decision(system, scen, 0.0).objective == 2.0
        assert tv_robust_decision(system, scen, 1.0).objective == 3.0
        assert tv_robust_decision(system, scen, 2.0).objective == 3.0

    def test_radius_domain(self):
        system = ExplicitSystem(members=(frozenset({0}),))
        scen = ScenarioSet([[1.0]])
        with pytest.raises(DomainError):
            tv_robust_decision(system, scen, 2.5)

    def test_endpoints_match_mean_and_worst(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(2, 6), system.ground.n)))
            at_zero = tv_robust_decision(system, scen, 0.0).objective
            assert at_zero == pytest.approx(saa_decision(system, scen).objective, abs=1e-9)
            at_two = tv_robust_decision(system, scen, 2.0).objective
            from drbottleneck import enumerate_members

            worst = min(
                max(scen.costs[:, sorted(m)].max(axis=1)) for m in enumerate_members(system)
            )
            assert at_two == pytest.approx(worst, abs=1e-9)

    def test_value_nondecreasing_in_radius(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(4, system.ground.n)))
            grid = [0.0, 0.5, 1.0, 1.5, 2.0]
            values = [tv_robust_decision(system, scen, d).objective for d in grid]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestOverflow:
    """An exact score past the float range is a domain error, not a bare
    ``OverflowError``."""

    PAIR = ExplicitSystem(members=(frozenset({0}), frozenset({1})), n=2)
    # member {0} scores 1e308, -1e308, 1e308: its squared deviations overflow
    SPREAD = ScenarioSet([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]])
    # member {0} scores 1.7e308, 1.7e308, -1: their exact sum overflows
    LARGE = ScenarioSet([[1.7e308, 1.7e308], [1.7e308, 1.7e308], [-1.0, -1.0]])

    @pytest.mark.parametrize("scen", [SPREAD, LARGE], ids=["spread", "large"])
    @pytest.mark.parametrize(
        "solve",
        [
            saa_decision,
            lambda system, scen: variance_robust_decision(system, scen, 0.5),
            lambda system, scen: tv_robust_decision(system, scen, 0.5),
            lambda system, scen: topk_variance_robust_decision(system, scen, 0.5, 1),
        ],
        ids=["saa", "variance", "tv", "topk-variance"],
    )
    def test_decision_models(self, solve, scen):
        with pytest.raises(DomainError, match="overflows the float range"):
            solve(self.PAIR, scen)

    def test_scores(self):
        with pytest.raises(DomainError):
            decide._tv_objectives(np.array([[1.7e308, 1.7e308, -1.0]]), 0.5)
        with pytest.raises(DomainError):  # a difference is past the range
            decide._tv_objectives(np.array([[1.0, 2.0, 3.0], [1e308, -1e308, 1e308]]), 0.5)
        with pytest.raises(DomainError):
            exact_mean([1.7e308, 1.7e308, -1.0])
        with pytest.raises(DomainError):  # a deviation squares past the range
            exact_variance([1e308, -1e308, 1e308], 1e308 / 3)
        with pytest.raises(DomainError):  # a deviation is itself past the range
            exact_variance([1.7e308, -1.7e308, -1.7e308], -1.7e308 / 3)
        single = ExplicitSystem(members=(frozenset({0, 1}),), n=2)
        with pytest.raises(DomainError):  # a top-2 sum
            topk_decision(single, ScenarioSet([[1.7e308, 1.7e308]]), 0.0, 2)

    def test_scores_near_the_range_edge(self):
        # every exact sum the search and the report take fits the range
        scen = ScenarioSet([[4e307, 1e153], [-4e307, 2e153], [4e307, -3e153]])
        report = tv_robust_decision(self.PAIR, scen, 0.5)
        assert report.chosen == frozenset({1})
        values = (1e153, 2e153, -3e153)
        assert report.mean == math.fsum(values) / 3
        assert report.variance == math.fsum((v - report.mean) ** 2 for v in values) / 3 < math.inf

    def test_tv_worst_scenario_near_the_range_edge(self):
        # at d = 2 the objective is d/2 times the largest value, which fits
        # the range even where d times it does not
        scen = ScenarioSet([[1.2e308, 1e308]])
        report = tv_robust_decision(ExplicitSystem(members=({0}, {1}), n=2), scen, 2.0)
        assert (report.chosen, report.objective) == (frozenset({1}), 1e308)


class TestTopkDecision:
    def test_shift_example(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0]])
        report = topk_decision(system, scen, 0.5, 2, 1.0)
        assert report.objective == 5.5

    def test_exponent_arithmetic(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet([[1.0, 2.0, 3.0, 4.0]])
        r2 = topk_decision(system, scen, 1.0, 2, 2.0)
        saa = topk_decision(system, scen, 0.0, 2, 2.0).objective
        assert r2.objective == pytest.approx(saa + math.sqrt(2.0), rel=1e-12)

    def test_k_one_matches_plain_robust_decision(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(rng.integers(1, 5), system.ground.n)))
            theta = float(rng.uniform(0, 1))
            a = topk_decision(system, scen, theta, 1, 1.0)
            b = robust_decision(system, scen, theta)
            assert a.objective == b.objective
            assert a.chosen == b.chosen

    def test_identity_gap_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            system = random_system(rng)
            if min_member_size(system) < 2:
                continue
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            theta = float(rng.uniform(0, 1))
            r = float(rng.choice([1.0, 2.0]))
            shifted = topk_decision(system, scen, theta, 2, r)
            base = topk_decision(system, scen, 0.0, 2, r)
            expected = 2 ** ((r - 1) / r) * theta
            assert shifted.objective - base.objective == pytest.approx(expected, abs=1e-12)


class TestTopkVarianceRobust:
    def test_k_one_matches_variance_robust(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            theta = float(rng.uniform(0, 1.5))
            a = topk_variance_robust_decision(system, scen, theta, 1, 1.0)
            b = variance_robust_decision(system, scen, theta)
            assert a.chosen == b.chosen
            assert a.objective == b.objective

    def test_huge_radius_gives_global_variance_min(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            system = AssignmentSystem(m=3)
            scen = ScenarioSet(rng.uniform(0, 10, size=(4, 9)))
            report = topk_variance_robust_decision(system, scen, 1e6, 2, 1.0)
            brute = []
            for perm in permutations(range(3)):
                cells = sorted(i * 3 + perm[i] for i in range(3))
                vals = np.sort(scen.costs[:, cells], axis=1)[:, -2:].sum(axis=1)
                mean = float(vals.mean())
                brute.append(
                    (float(((vals - mean) ** 2).mean()), tuple(cells))
                )
            best_var, best_cells = min(brute)
            assert report.objective == pytest.approx(best_var, abs=1e-10)
            assert tuple(sorted(report.chosen)) == best_cells


class TestMatchingPermutation:
    def test_round_trip(self):
        system = AssignmentSystem(m=3)
        chosen = frozenset({0 * 3 + 1, 1 * 3 + 2, 2 * 3 + 0})
        assert matching_permutation(system, chosen) == [1, 2, 0]

    def test_rejects_non_matching(self):
        system = AssignmentSystem(m=2)
        # a row left free, a column used twice, a row used twice
        for chosen in ({0, 1}, {0, 2}, {0, 1, 3}):
            with pytest.raises(DomainError, match="not a perfect matching"):
                matching_permutation(system, frozenset(chosen))


class TestAllSolversAgainstEnumeration:
    """Every decision solver agrees with a direct sweep of the feasible family."""

    @pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
    def test_structures(self, kind):
        from _oracles import brute_members

        rng = np.random.default_rng(zlib.crc32(("sweep-" + kind).encode()))
        for _ in range(15):
            system = random_system(rng, kind)
            members = [sorted(m) for m in brute_members(system)]
            scen = ScenarioSet(
                rng.uniform(0, 10, size=(int(rng.integers(2, 11)), system.ground.n))
            )
            theta = float(rng.uniform(0, 1.5))
            d = float(rng.uniform(0, 2))

            def mean_of(cols):
                return math.fsum(scen.costs[:, cols].max(axis=1)) / scen.count

            best_mean = min((mean_of(m), tuple(m)) for m in members)
            lib = saa_decision(system, scen)
            assert lib.objective == pytest.approx(best_mean[0], abs=1e-12)
            assert tuple(sorted(lib.chosen)) == best_mean[1]

            threshold = best_mean[0] + theta
            eligible = [m for m in members if mean_of(m) <= threshold]
            records = []
            for m in eligible:
                values = scen.costs[:, m].max(axis=1)
                mean = math.fsum(values) / scen.count
                var = math.fsum((v - mean) ** 2 for v in values) / scen.count
                records.append((var, tuple(m)))
            best_var = min(records)
            libv = variance_robust_decision(system, scen, theta)
            assert tuple(sorted(libv.chosen)) == best_var[1]
            assert libv.objective == pytest.approx(best_var[0], abs=1e-12)

            from drbottleneck.decide import _tv_objectives

            maxima = np.array([scen.costs[:, m].max(axis=1) for m in members])
            best_tv = min(zip(_tv_objectives(maxima, d), (tuple(m) for m in members)))
            libt = tv_robust_decision(system, scen, d)
            assert libt.objective == pytest.approx(best_tv[0], abs=1e-12)
            assert tuple(sorted(libt.chosen)) == best_tv[1]


class TestIndifferencePredicate:
    def test_contains_matches_materialization(self):
        from _oracles import brute_members

        rng = np.random.default_rng(59)
        for _ in range(10):
            system = random_system(rng)
            scen = ScenarioSet(rng.uniform(0, 10, size=(3, system.ground.n)))
            report = indifference_set(system, scen, 0.8, materialize=True)
            listed = set(report.members)
            for member in brute_members(system):
                assert report.contains(member) == (member in listed)

    @pytest.mark.parametrize("elements", [(), (-1,), (0, 3)], ids=["empty", "negative", "past"])
    def test_contains_rejects_non_element_ids(self, triangle, elements):
        scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
        with pytest.raises(DomainError, match="ground element ids"):
            indifference_set(triangle, scen, 0.5).contains(elements)


@pytest.mark.parametrize("model", [topk_decision, topk_variance_robust_decision])
def test_topk_models_reject_ground_order_below_one(triangle, model):
    scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
    with pytest.raises(DomainError, match="ground norm order"):
        model(triangle, scen, 0.1, 1, 0.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda system, scen: robust_decision(system, scen, NAN),
        lambda system, scen: variance_robust_decision(system, scen, NAN),
        lambda system, scen: topk_decision(system, scen, NAN, 1, 1.0),
        lambda system, scen: topk_decision(system, scen, 0.1, 1, NAN),
        lambda system, scen: topk_variance_robust_decision(system, scen, 0.1, 1, NAN),
        lambda system, scen: indifference_set(system, scen, NAN),
        lambda system, scen: decision_worst_case_distribution(frozenset({0}), scen, NAN),
        lambda system, scen: calibrate_radius_decision(10, NAN, 0.05, 3),
        lambda system, scen: normal_approx_radius([]),
    ],
    ids=["robust-radius", "variance-radius", "topk-radius", "topk-ground-order",
         "topk-variance-ground-order", "indifference-radius", "worst-case-radius",
         "calibrate-sigma", "normal-approx-empty"],
)
def test_decision_entry_points_reject_nan(triangle, call):
    scen = ScenarioSet(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]))
    with pytest.raises(DomainError):
        call(triangle, scen)
