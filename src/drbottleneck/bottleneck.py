"""Deterministic bottleneck and top-k-sum evaluation with dual certificates.

The bottleneck value of a cost vector is the least possible maximum element
cost over feasible subsets.  Its dual form maximizes, over blocker elements,
the minimum element cost.  Every evaluation certifies both: it returns a
member whose largest cost is the value and a blocker element, meeting every
member, whose least cost is the value.  The top-k generalization scores a
subset by the sum of its k largest costs.
"""

from __future__ import annotations

from itertools import combinations

from .decide import _means, _minimize, _TopK
from .errors import EnumerationLimitError, check_count
from .systems import (
    BottleneckResult,
    Clutter,
    CombinatorialSystem,
    min_member_size,
    minimal_transversals,
)

TOPK_BLOCKER_MAX_GROUND = 8
TOPK_BLOCKER_MAX_K = 3


def bottleneck_value(system: CombinatorialSystem, costs) -> BottleneckResult:
    """Least max-cost over feasible subsets, with both certificates.

    Feasibility uses the closed threshold (cost <= t), so the optimum is the
    smallest distinct cost passing the test and is always attained.  The
    returned member is the deterministic feasibility witness at the optimum;
    the dual witness is a blocker element whose minimum cost equals the value.
    One pass per kind: paths and trees join edges in cost order, assignments
    augment a threshold matching over groups of equal costs, and explicit
    systems scan their members.
    """

    return system.bottleneck(system.validated_costs(costs))


def topk_sum_value(
    system: CombinatorialSystem, costs, k: int, force: bool = False
) -> tuple[float, frozenset[int]]:
    """Least sum of the k largest costs over feasible subsets.

    A one-scenario top-k decision: best-first branch and bound on the
    top-k fold of :mod:`decide`, whose bound of a partial set is its top-k
    sum plus the least cost, where negative, once for each element it lacks
    to reach k.  Sums are exact (``math.fsum``).  Every feasible subset must
    have at least k elements.
    """

    c = system.validated_costs(costs)
    k = check_count(k, "k", most=min_member_size(system))
    value, chosen, _ = _minimize(system, _TopK(c[None, :], k), _means, force)
    return value, chosen


def topk_blocker_enumerate(clutter: Clutter, k: int) -> list[frozenset[frozenset[int]]]:
    """Minimal families of k-subsets meeting every member's k-subset family.

    Each returned family intersects, for every clutter member h, the
    collection of size-k subsets of h, and is minimal with that property.
    Exact enumeration, guarded to tiny instances.
    """

    k = check_count(k, "k", most=min(map(len, clutter.subsets)))
    universe = clutter.universe
    if max(universe) + 1 > TOPK_BLOCKER_MAX_GROUND or k > TOPK_BLOCKER_MAX_K:
        raise EnumerationLimitError(
            f"top-k blocker enumeration limited to ground <= {TOPK_BLOCKER_MAX_GROUND} "
            f"and k <= {TOPK_BLOCKER_MAX_K}"
        )

    vertex_of: dict[frozenset[int], int] = {}
    vertices: list[frozenset[int]] = []
    hyperedges = []
    for h in clutter.subsets:
        ids = set()
        for s in combinations(sorted(h), k):
            key = frozenset(s)
            if key not in vertex_of:
                vertex_of[key] = len(vertices)
                vertices.append(key)
            ids.add(vertex_of[key])
        hyperedges.append(frozenset(ids))

    families = minimal_transversals(hyperedges)
    out = [frozenset(vertices[i] for i in fam) for fam in families]
    out.sort(key=lambda fam: (len(fam), sorted(sorted(s) for s in fam)))
    return out

