"""Deterministic bottleneck and top-k-sum evaluation with dual certificates.

The bottleneck value of a cost vector is the least possible maximum element
cost over feasible subsets.  Its dual form maximizes, over blocker elements,
the minimum element cost; the primal comes with a dual witness, and the dual
has its own threshold search through the blocker oracle, so each can certify
the other.  The top-k generalization scores a subset by the sum
of its k largest costs.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .decide import _means, _minimize, _TopK
from .errors import EnumerationLimitError, check_count
from .systems import (
    BottleneckResult,
    Clutter,
    CombinatorialSystem,
    min_member_size,
    min_weight_blocker,
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


def dual_bottleneck_value(system: CombinatorialSystem, costs) -> float:
    """Max over blocker elements of their minimum cost.

    Computed by bisecting the distinct costs with the minimum-weight blocker
    oracle (a level is attainable iff some blocker element avoids every
    cheaper element), which keeps the route independent of the primal
    threshold search.
    """

    c = system.validated_costs(costs)
    levels = np.unique(c)

    def attainable(level: float) -> bool:
        weights = (c < level).astype(float)
        value, _ = min_weight_blocker(system, weights)
        return value == 0.0

    lo, hi = 0, len(levels) - 1
    # the smallest cost is always attainable; find the largest one that is
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if attainable(levels[mid]):
            lo = mid
        else:
            hi = mid - 1
    return float(levels[lo])


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

