"""Bottleneck and top-k-sum evaluation against brute-force oracles."""

import zlib

import numpy as np
import pytest

from _oracles import (
    brute_bottleneck,
    brute_dual_bottleneck,
    brute_members,
    brute_minimal_hitting_sets,
    brute_topk,
    dual_topk_sum_value,
)
from conftest import dyadic_costs, random_system
from test_quantify import check_certificate, final_rounds
from drbottleneck import (
    AssignmentSystem,
    Clutter,
    DomainError,
    EnumerationLimitError,
    ExplicitSystem,
    ScenarioSet,
    TreeSystem,
    antichain_reduce,
    bottleneck_value,
    dual_bottleneck_value,
    enumerate_members,
    quantify_topk,
    topk_blocker_enumerate,
    topk_record,
    topk_sum_value,
)


class TestBottleneckValue:
    def test_triangle(self, triangle):
        res = bottleneck_value(triangle, [3.0, 5.0, 7.0])
        assert res.value == 5.0
        assert res.argmin_subset == frozenset({0, 1})
        assert res.dual_witness.elements == frozenset({1, 2})
        assert min(
            [3.0, 5.0, 7.0][j] for j in res.dual_witness.elements
        ) == res.value

    def test_two_by_two_assignment(self):
        system = AssignmentSystem(m=2)
        res = bottleneck_value(system, [1.0, 2.0, 3.0, 4.0])
        assert res.value == 3.0
        assert res.argmin_subset == frozenset({1, 2})

    def test_constant_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            system = random_system(rng)
            kappa = float(rng.uniform(-5, 5))
            res = bottleneck_value(system, np.full(system.ground.n, kappa))
            assert res.value == kappa

    def test_witness_is_feasible_and_tight(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            res = bottleneck_value(system, costs)
            members = brute_members(system)
            assert any(res.argmin_subset >= m or res.argmin_subset == m for m in members) or (
                res.argmin_subset in members
            )
            assert max(costs[j] for j in res.argmin_subset) == res.value

    def test_monotone_in_costs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            system = random_system(rng)
            c = rng.uniform(0, 10, size=system.ground.n)
            bump = rng.uniform(0, 2, size=system.ground.n)
            assert bottleneck_value(system, c).value <= bottleneck_value(system, c + bump).value

    def test_shift_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            system = random_system(rng)
            c = dyadic_costs(rng, system.ground.n)
            kappa = float(rng.integers(-8, 9)) / 4.0
            assert (
                bottleneck_value(system, c + kappa).value
                == bottleneck_value(system, c).value + kappa
            )


class TestDuality:
    def test_triangle_dual(self, triangle):
        assert dual_bottleneck_value(triangle, [3.0, 5.0, 7.0]) == 5.0

    def test_singleton(self):
        system = ExplicitSystem(members=(frozenset({0}),))
        assert dual_bottleneck_value(system, [9.0]) == 9.0

    @pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
    def test_primal_equals_dual_random(self, kind):
        rng = np.random.default_rng(zlib.crc32(("dual-" + kind).encode()))
        for _ in range(50):
            system = random_system(rng, kind)
            costs = rng.uniform(0, 10, size=system.ground.n)
            primal = bottleneck_value(system, costs).value
            dual = dual_bottleneck_value(system, costs)
            assert primal == dual

    def test_against_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            members = brute_members(system)
            hitting = brute_minimal_hitting_sets(members, system.ground.n)
            assert bottleneck_value(system, costs).value == brute_bottleneck(members, costs)
            assert dual_bottleneck_value(system, costs) == brute_dual_bottleneck(hitting, costs)


class TestEnumerateMembers:
    def test_triangle_has_two_paths(self, triangle):
        assert sorted(map(sorted, enumerate_members(triangle))) == [[0, 1], [2]]

    def test_three_by_three_has_six_matchings(self):
        assert len(enumerate_members(AssignmentSystem(m=3))) == 6

    def test_four_cycle_has_four_trees(self, square_cycle):
        assert len(enumerate_members(square_cycle)) == 4

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            system = random_system(rng)
            ours = sorted(enumerate_members(system), key=sorted)
            brute = sorted(brute_members(system), key=sorted)
            assert ours == brute


class TestTopkSum:
    def test_two_by_two(self):
        value, chosen = topk_sum_value(AssignmentSystem(m=2), [1.0, 2.0, 3.0, 4.0], 2)
        assert value == 5.0

    def test_explicit_example(self):
        system = ExplicitSystem(members=(frozenset({0, 1, 2}),))
        value, chosen = topk_sum_value(system, [1.0, 5.0, 2.0], 2)
        assert value == 7.0
        assert chosen == frozenset({0, 1, 2})

    def test_k_equals_one_reduces_to_bottleneck(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            assert topk_sum_value(system, costs, 1)[0] == bottleneck_value(system, costs).value

    def test_oversized_k_rejected(self, triangle):
        with pytest.raises(DomainError):
            topk_sum_value(triangle, [1.0, 2.0, 3.0], 4)

    def test_against_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            k = int(rng.integers(1, 3))
            from drbottleneck import min_member_size

            if k > min_member_size(system):
                continue
            assert topk_sum_value(system, costs, k)[0] == pytest.approx(
                brute_topk(brute_members(system), costs, k), abs=1e-12
            )

    def test_shift_identity(self):
        from drbottleneck import min_member_size

        rng = np.random.default_rng(47)
        for _ in range(20):
            system = random_system(rng)
            if 2 > min_member_size(system):
                continue
            c = dyadic_costs(rng, system.ground.n)
            base, _ = topk_sum_value(system, c, 2)
            shifted, _ = topk_sum_value(system, c + 0.25, 2)
            assert shifted == pytest.approx(base + 2 * 0.25, abs=1e-12)

    def test_k3_sum_is_exact(self):
        """Three costs whose left-to-right sum rounds twice: the primal, the
        dual and the fsum brute force agree exactly."""
        member = ExplicitSystem(members=(frozenset({0, 1, 2}),))
        costs = [0.1, 0.2, 0.3]
        assert topk_sum_value(member, costs, 3) == (0.6, frozenset({0, 1, 2}))
        assert brute_topk(member.members, costs, 3) == 0.6
        assert dual_topk_sum_value(member, costs, 3) == 0.6

        from drbottleneck import min_member_size

        rng = np.random.default_rng(59)
        checked = 0
        while checked < 40:
            system = random_system(rng)
            # the dual's top-3 blocker enumeration blows up past six elements
            if system.ground.n > 6 or min_member_size(system) < 3:
                continue
            costs = rng.uniform(-1.0, 1.0, size=system.ground.n) * 10.0 ** rng.integers(0, 4)
            primal, _ = topk_sum_value(system, costs, 3)
            assert primal == brute_topk(brute_members(system), costs, 3), costs
            assert primal == dual_topk_sum_value(system, costs, 3), costs
            checked += 1


class TestTopkBlocker:
    def test_two_matchings_single_family(self):
        clutter = Clutter((frozenset({0, 3}), frozenset({1, 2})))
        families = topk_blocker_enumerate(clutter, 2)
        assert families == [frozenset({frozenset({0, 3}), frozenset({1, 2})})]

    def test_single_member(self):
        families = topk_blocker_enumerate(Clutter((frozenset({1, 2}),)), 2)
        assert families == [frozenset({frozenset({1, 2})})]

    def test_k_one_matches_ordinary_blocker(self):
        from drbottleneck import blocker_enumerate

        clutter = Clutter((frozenset({1, 2}), frozenset({2, 3})))
        families = topk_blocker_enumerate(clutter, 1)
        as_sets = sorted(
            (frozenset(next(iter(s)) for s in fam) for fam in families), key=sorted
        )
        plain = sorted((b.elements for b in blocker_enumerate(clutter)), key=sorted)
        assert as_sets == plain

    def test_duality_at_tiny_scale(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 30:
            system = random_system(rng)
            if system.ground.n > 8:
                continue
            from drbottleneck import min_member_size

            k = int(rng.integers(1, 3))
            if k > min_member_size(system):
                continue
            costs = rng.uniform(0, 10, size=system.ground.n)
            primal, _ = topk_sum_value(system, costs, k)
            dual = dual_topk_sum_value(system, costs, k)
            assert primal == pytest.approx(dual, abs=1e-12)
            checked += 1

    def test_transversal_limit_refuses_the_k3_tree(self, monkeypatch):
        """An 8-edge tree with 18 spanning trees passes the ground and k
        guards, but at k = 3 its top-k blocker enumeration outgrows the
        candidate limit of ``minimal_transversals`` and is refused at once;
        k = 2 stays admitted.  ``quantify_topk`` is exact there all the same,
        by member generation, and its certificate is rebuilt by brute
        force."""
        system = TreeSystem(
            nodes=6, edges=((2, 4), (3, 5), (0, 1), (1, 2), (0, 3), (0, 5), (2, 4), (0, 2))
        )
        clutter = antichain_reduce(enumerate_members(system))
        assert len(clutter.subsets) == 18
        assert len(topk_blocker_enumerate(clutter, 2)) == 2828
        with pytest.raises(EnumerationLimitError, match="candidate sets"):
            topk_blocker_enumerate(clutter, 3)
        scen = ScenarioSet(np.random.default_rng(7).uniform(0.0, 10.0, size=(1, 8)))
        members = brute_members(system)
        for radius, r in ((0.5, 2.0), (1.0, 1.0)):
            record = topk_record(system, scen, 3)
            assert record.union_size == 8
            quote, rounds = final_rounds(monkeypatch, record, radius, r)
            assert not quote.downgraded and len(rounds) == 1
            c, held, lift, level, value = rounds[0]
            assert quote.exact == level
            assert quote.lower <= quote.exact <= quote.upper
            check_certificate(
                c, held, lift, level, value, radius, r, 3,
                lambda costs: brute_topk(members, costs, 3),
            )
