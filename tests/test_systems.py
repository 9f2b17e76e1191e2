"""Combinatorial system construction, blocker oracles, thresholds."""

import json
import math
import sys
import warnings
import zlib

import numpy as np
import pytest

from _oracles import brute_members, brute_minimal_hitting_sets
from conftest import dyadic_costs, random_system
from drbottleneck import (
    AssignmentSystem,
    Clutter,
    DomainError,
    EnumerationLimitError,
    ExplicitSystem,
    GroundSet,
    InvalidInstanceError,
    PathSystem,
    TreeSystem,
    antichain_reduce,
    blocker_enumerate,
    enumerate_members,
    feasible_at_threshold,
    max_blocker_size,
    min_weight_blocker,
    system_from_json,
    system_to_json,
)
from drbottleneck._graphs import max_bipartite_matching


class TestConstruction:
    def test_ground_set_validation(self):
        with pytest.raises(InvalidInstanceError):
            GroundSet(0)

    def test_path_needs_route(self):
        with pytest.raises(InvalidInstanceError):
            PathSystem(nodes=4, edges=((0, 1), (2, 3)), s=0, t=3)

    def test_self_loops_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PathSystem(nodes=3, edges=((0, 0), (0, 2)), s=0, t=2)

    def test_parallel_edges_allowed(self):
        system = PathSystem(nodes=2, edges=((0, 1), (0, 1)), s=0, t=1)
        assert sorted(map(sorted, enumerate_members(system))) == [[0], [1]]

    def test_tree_needs_connectivity(self):
        with pytest.raises(InvalidInstanceError):
            TreeSystem(nodes=4, edges=((0, 1), (2, 3)))

    def test_explicit_rejects_empty_member(self):
        with pytest.raises(InvalidInstanceError):
            ExplicitSystem(members=(frozenset(),))

    def test_clutter_rejects_nested_sets(self):
        with pytest.raises(InvalidInstanceError):
            Clutter((frozenset({1}), frozenset({1, 2})))


class TestAntichainReduce:
    def test_strict_superset_removed(self):
        out = antichain_reduce([{1, 2}, {1, 2, 3}, {3}])
        assert set(out.subsets) == {frozenset({1, 2}), frozenset({3})}

    def test_antichain_unchanged(self):
        out = antichain_reduce([{1}, {2}])
        assert set(out.subsets) == {frozenset({1}), frozenset({2})}

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInstanceError):
            antichain_reduce([])

    def test_bottleneck_equivalent_on_random_families(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            family = [
                frozenset(int(x) for x in rng.choice(6, size=rng.integers(1, 7), replace=False))
                for _ in range(10)
            ]
            reduced = antichain_reduce(family)
            for _ in range(20):
                costs = rng.uniform(0, 10, size=6)
                full = min(max(costs[j] for j in m) for m in family)
                thin = min(max(costs[j] for j in m) for m in reduced.subsets)
                assert full == thin


class TestBlockerEnumerate:
    def test_cardinality_clutter(self):
        # size-2 subsets of a 4-element ground: blocker is all size-3 subsets
        from itertools import combinations

        clutter = Clutter(tuple(frozenset(c) for c in combinations(range(4), 2)))
        blocker = blocker_enumerate(clutter)
        expected = {frozenset(c) for c in combinations(range(4), 3)}
        assert {b.elements for b in blocker} == expected

    def test_singleton_self_blocking(self):
        blocker = blocker_enumerate(Clutter((frozenset({1}),)))
        assert [b.elements for b in blocker] == [frozenset({1})]

    def test_triangle_paths_blocker_is_the_two_cuts(self):
        clutter = Clutter((frozenset({0, 1}), frozenset({2})))
        blocker = blocker_enumerate(clutter)
        assert {b.elements for b in blocker} == {frozenset({0, 2}), frozenset({1, 2})}

    def test_matches_bitmask_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            members = [
                frozenset(int(x) for x in rng.choice(7, size=rng.integers(1, 5), replace=False))
                for _ in range(rng.integers(1, 7))
            ]
            clutter = antichain_reduce(members)
            ours = {b.elements for b in blocker_enumerate(clutter)}
            brute = set(brute_minimal_hitting_sets(list(clutter.subsets), 7))
            assert ours == brute

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            members = [
                frozenset(int(x) for x in rng.choice(7, size=rng.integers(1, 5), replace=False))
                for _ in range(rng.integers(1, 6))
            ]
            clutter = antichain_reduce(members)
            blocker = blocker_enumerate(clutter)
            double = blocker_enumerate(Clutter(tuple(b.elements for b in blocker)))
            assert {b.elements for b in double} == set(clutter.subsets)

    def test_enumeration_guard(self):
        clutter = Clutter((frozenset({0, 24}),))
        with pytest.raises(EnumerationLimitError):
            blocker_enumerate(clutter)

    def test_cardinality_blocker_size_identity(self):
        from itertools import combinations

        for n, m in ((4, 2), (5, 3), (6, 2)):
            clutter = Clutter(tuple(frozenset(c) for c in combinations(range(n), m)))
            for b in blocker_enumerate(clutter):
                assert len(b.elements) == n - m + 1


class TestMinWeightBlocker:
    def test_triangle_cut(self, triangle):
        value, witness = min_weight_blocker(triangle, [3.0, 1.0, 0.0])
        assert value == 1.0
        assert witness.elements == frozenset({1, 2})
        assert witness.kind == "cut"
        assert triangle.s in witness.partition

    def test_zero_weights(self, triangle):
        value, _ = min_weight_blocker(triangle, np.zeros(3))
        assert value == 0.0

    def test_all_ones_3x3_assignment(self):
        # exhaustive check: 1x3 and 3x1 submatrices weigh 3, 2x2 weighs 4
        value, witness = min_weight_blocker(AssignmentSystem(m=3), np.ones(9))
        assert value == 3.0
        assert len(witness.elements) == 3
        assert len(witness.rows) + len(witness.cols) == 4

    def test_negative_weight_rejected(self, triangle):
        with pytest.raises(DomainError):
            min_weight_blocker(triangle, [-1.0, 0.0, 0.0])

    def test_assignment_guard(self):
        with pytest.raises(EnumerationLimitError):
            min_weight_blocker(AssignmentSystem(m=11), np.ones(121))

    @pytest.mark.parametrize(
        "system",
        [
            PathSystem(nodes=4, edges=((0, 1), (1, 3), (0, 2), (2, 3)), s=0, t=3),
            TreeSystem(nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))),
            AssignmentSystem(m=4),
            ExplicitSystem(members=({0, 1}, {2, 3}), n=4),
        ],
        ids=["path", "tree", "assignment", "explicit"],
    )
    def test_overflowing_sum_is_inf(self, system):
        # finite, valid weights; every blocker element has two or more
        # elements, so every sum exceeds the largest float and rounds to inf,
        # and no overflow warning (the assignment's column sums) reaches the caller
        weights = np.full(system.ground.n, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, witness = min_weight_blocker(system, weights)
        assert value == math.inf
        assert all(witness.elements & m for m in brute_members(system))

    @pytest.mark.parametrize("kind", ["path", "tree", "assignment", "explicit"])
    def test_matches_enumerated_blocker(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        trials = 0
        while trials < 50:
            system = random_system(rng, kind)
            n = system.ground.n
            members = brute_members(system)
            hitting = brute_minimal_hitting_sets(members, n)
            for _ in range(4):
                weights = dyadic_costs(rng, n)
                fast, witness = min_weight_blocker(system, weights)
                brute = min(math.fsum(weights[j] for j in sorted(h)) for h in hitting)
                assert fast == brute
                # the witness hits every feasible subset
                assert all(witness.elements & m for m in members)
                trials += 1


class TestFeasibleAtThreshold:
    def test_triangle_examples(self, triangle):
        costs = [3.0, 5.0, 7.0]
        assert feasible_at_threshold(triangle, costs, 5.0)
        assert not feasible_at_threshold(triangle, costs, 2.0)

    def test_assignment_example(self):
        system = AssignmentSystem(m=2)
        assert feasible_at_threshold(system, [1.0, 2.0, 3.0, 4.0], 3.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            system = random_system(rng)
            costs = rng.uniform(0, 10, size=system.ground.n)
            grid = np.linspace(-1, 11, 25)
            flags = [feasible_at_threshold(system, costs, t) for t in grid]
            assert flags == sorted(flags)


class TestMaxBlockerSize:
    def test_assignment_closed_form(self):
        size, exact = max_blocker_size(AssignmentSystem(m=3))
        assert (size, exact) == (4, True)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            system = random_system(rng)
            hitting = brute_minimal_hitting_sets(
                brute_members(system), system.ground.n
            )
            size, exact = max_blocker_size(system)
            assert exact
            assert size == max(len(h) for h in hitting)


class TestInstanceJson:
    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            system = random_system(rng)
            again = system_from_json(json.dumps(system_to_json(system)))
            assert again == system

    def test_bad_edge_ids(self):
        payload = {
            "type": "path",
            "nodes": 2,
            "edges": [{"id": 1, "u": 0, "v": 1}],
            "s": 0,
            "t": 1,
        }
        with pytest.raises(InvalidInstanceError):
            system_from_json(json.dumps(payload))

    def test_unknown_type(self):
        with pytest.raises(InvalidInstanceError):
            system_from_json('{"type": "matroid"}')


class TestDeepInstances:
    """Flow and matching searches deeper than the interpreter's recursion limit."""

    def test_long_line_path_blocker(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        line = PathSystem(nodes=n, edges=tuple((i, i + 1) for i in range(n - 1)), s=0, t=n - 1)
        value, witness = min_weight_blocker(line, np.ones(n - 1))
        # one unit of flow saturates every edge; the source side is {s}
        assert value == 1.0
        assert witness.elements == frozenset({0})
        assert witness.partition == frozenset({0})

    def test_deep_augmenting_chain(self):
        # rows 0..m-2 take columns 0..m-2; the last row wants column 0, and
        # the augmenting path shifts every earlier row one column right
        m = sys.getrecursionlimit() + 500
        allowed = [[i, i + 1] for i in range(m - 1)] + [[0]]
        assert max_bipartite_matching(m, allowed) == [m - 1] + list(range(m - 1))
