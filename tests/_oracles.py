"""Independent brute-force oracles used only by the test suite.

The brute-force oracles are implemented from first principles (itertools,
networkx, bitmask scans, vertex enumeration, bisection and grid searches over
structured perturbations) so library results can be checked against code
that shares none of the library's algorithmic machinery.  The frozen
references at the end are the exception: verbatim copies of library routes
that fast paths replaced, so the fast paths can be compared bit for bit, or,
for the family level, the prefix root and the finite-order value, within the
old solvers' tolerances.  They are the max-flow class that the library's
one-function minimum cut replaced (a frozen copy, with its own arc pair for
every edge and a second residual search for the source side) and a path
witness on the library's breadth-first search, the threshold bisection
that the other kinds' bottlenecks replaced, the assignment blocker's loop
over row subsets, the decision models' from-scratch subset scores, the
top-k sum's set-function bound on the library's search, the top-k family
level's HiGHS and SLSQP solves, the per-prefix level's bracketed ``brentq``
root, the finite-order dual's nested golden sections, the per-state pruned
walk, ``pruned_members``, that the band's block walk replaced, the
best-first search of one state a step, ``per_state_minimize``, that the
budgeted search replaced, and the decision search keyed by exact scores,
``exact_key_minimize``, that float keys for partial states replaced, and
the command line's input and output: the scenario reader of one ``float``
a cell, ``cellwise_load_scenarios``, that a bulk parse replaced, and the
writers that streamed each output, ``streamed_csv``, ``streamed_json`` and
``streamed_save_scenarios``, that one write per output replaced, and the
per-scenario level search that sorted its witness on every call,
``reference_scenario_value``, that the record's sorted starts replaced.  Four
former library functions that only the tests called live here too: every
member listed without a guard, ``enumerate_members``, the bottleneck's dual
by bisection on the blocker oracle, ``dual_bottleneck_value``, the top-k
dual certificate by enumeration, ``dual_topk_sum_value``, and one state's
completion groups, ``reference_completion_groups``, which each row of a
block's ``groups()`` must equal.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import math
from collections import deque
from functools import partial
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
from scipy.optimize import brentq, linprog, minimize as scipy_minimize

from drbottleneck import (
    AssignmentSystem,
    BlockerElement,
    BottleneckResult,
    ConvergenceError,
    DomainError,
    ExplicitSystem,
    InvalidInstanceError,
    PathSystem,
    ScenarioParseError,
    ScenarioSet,
    TreeSystem,
    antichain_reduce,
    bottleneck_value,
    decide,
    element_level,
    iter_members,
    min_member_size,
    min_weight_blocker,
    minimize_members,
    topk_blocker_enumerate,
)
from drbottleneck._blocks import padded_elements
from drbottleneck._graphs import bfs_path_edges
from drbottleneck.decide import _report
from drbottleneck.errors import exact_mean, exact_variance
from drbottleneck.quantify import _family_level, _lift_root


def brute_members(system) -> list[frozenset]:
    """Enumerate the feasible family without using library search code."""
    if isinstance(system, PathSystem):
        graph = nx.MultiGraph()
        graph.add_nodes_from(range(system.nodes))
        for eid, (u, v) in enumerate(system.edges):
            graph.add_edge(u, v, key=eid)
        out = []
        for path in nx.all_simple_edge_paths(graph, system.s, system.t):
            out.append(frozenset(key for _, _, key in path))
        return sorted(set(out), key=sorted)
    if isinstance(system, TreeSystem):
        out = []
        for combo in combinations(range(len(system.edges)), system.nodes - 1):
            graph = nx.MultiGraph()
            graph.add_nodes_from(range(system.nodes))
            for eid in combo:
                u, v = system.edges[eid]
                graph.add_edge(u, v)
            if nx.is_connected(graph):
                out.append(frozenset(combo))
        return out
    if isinstance(system, AssignmentSystem):
        m = system.m
        return [
            frozenset(i * m + perm[i] for i in range(m))
            for perm in permutations(range(m))
        ]
    if isinstance(system, ExplicitSystem):
        return list(system.members)
    raise TypeError(type(system))


def brute_minimal_hitting_sets(members, n: int) -> list[frozenset]:
    """All minimal hitting sets, by scanning every subset of the ground set."""
    masks = [sum(1 << j for j in m) for m in members]
    hitters = []
    for cand in range(1, 1 << n):
        if all(cand & m for m in masks):
            hitters.append(cand)
    minimal = []
    for cand in sorted(hitters, key=lambda c: bin(c).count("1")):
        if not any(prev & cand == prev for prev in minimal):
            minimal.append(cand)
    return [frozenset(j for j in range(n) if cand >> j & 1) for cand in minimal]


def brute_bottleneck(members, costs) -> float:
    return min(max(costs[j] for j in m) for m in members)


def brute_dual_bottleneck(hitting_sets, costs) -> float:
    return max(min(costs[j] for j in h) for h in hitting_sets)


def brute_minimal_cut_side(n: int, edges, weights, s: int, t: int) -> set[int]:
    """The least source side of a minimum s-t cut, by scanning every side.

    For at most 8 nodes and small integer weights, so every cut sum is
    exact.  Minimum cuts are closed under intersection, so the intersection
    of every minimum-weight side is itself one: the side that the residual
    search of any maximum flow reaches.
    """
    assert n <= 8 and all(int(w) == w >= 0 for w in weights)
    best, least = math.inf, set(range(n))
    for mask in range(1 << n):
        if not mask >> s & 1 or mask >> t & 1:
            continue
        side = {v for v in range(n) if mask >> v & 1}
        weight = sum(w for (u, v), w in zip(edges, weights) if (u in side) != (v in side))
        if weight < best:
            best, least = weight, side
        elif weight == best:
            least &= side
    return least


def brute_topk(members, costs, k: int) -> float:
    best = math.inf
    for m in members:
        vals = sorted((costs[j] for j in m), reverse=True)
        best = min(best, math.fsum(vals[:k]))
    return best


def dual_bottleneck_value(system, costs) -> float:
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


def enumerate_members(system) -> list[frozenset[int]]:
    """Every feasible subset of ``system`` in canonical order, unguarded."""
    return list(iter_members(system))


def dual_topk_sum_value(system, costs, k: int) -> float:
    """Max over top-k blocker families of the least member-subset cost sum.

    Tiny-scale dual certificate for ``topk_sum_value``, via explicit
    enumeration of both the feasible family and its top-k blocker.
    """
    c = system.validated_costs(costs)
    clutter = antichain_reduce(enumerate_members(system))
    families = topk_blocker_enumerate(clutter, k)
    return max(
        (min(math.fsum(c[j] for j in sorted(s)) for s in fam) for fam in families),
        default=-math.inf,
    )


def brute_family_level(c, family, radius: float, r: float) -> float:
    """The top-k family level, max over lifts beta >= 0 with ||beta||_r <=
    radius of min over subsets s of (b_s + sum of beta over s), by
    enumeration; r in {1, 2}.

    r = 1: every vertex of the feasible set in (beta, z).  Raising any lift
    raises some subset, so the budget is tight at an optimum, and a vertex
    fixes a support J of beta and |J| subsets whose sums equal z.
    r = 2: every support T of the dual multipliers with independent rows.
    The point of its affine hull where the active sums agree solves a
    quadratic in their common value z; beta is radius * A^T lam normalized.
    Returns the best level over the feasible candidates, each summed with
    ``math.fsum``.
    """
    subsets = [sorted(s) for s in family]
    union = sorted(set().union(*subsets))
    base = [math.fsum(float(c[j]) for j in s) for s in subsets]
    if radius == 0.0:
        return min(base)
    m, n = len(subsets), len(union)
    A = np.array([[1.0 if j in s else 0.0 for j in union] for s in subsets])
    b = np.array(base)
    lifts = []
    if r == 1.0:
        for size in range(1, n + 1):
            for J in combinations(range(n), size):
                for T in combinations(range(m), size):
                    K = np.zeros((size + 1, size + 1))
                    K[:size, :size] = A[np.ix_(T, J)]
                    K[:size, size] = -1.0
                    K[size, :size] = 1.0
                    if abs(np.linalg.det(K)) < 0.5:  # an integer matrix
                        continue
                    sol = np.linalg.solve(K, np.append(-b[list(T)], radius))
                    if sol[:size].min() < -1e-9 * radius:
                        continue
                    beta = np.zeros(n)
                    beta[list(J)] = np.clip(sol[:size], 0.0, None)
                    lifts.append(beta)
    elif r == 2.0:
        for size in range(1, min(m, n) + 1):
            for T in combinations(range(m), size):
                rows = A[list(T)]
                if np.linalg.matrix_rank(rows) < size:
                    continue
                shifted = b[list(T)] - b[list(T)].min()
                inv = np.linalg.inv(rows @ rows.T)
                ones = np.ones(size)
                qa, qh, qc = ones @ inv @ ones, ones @ inv @ shifted, shifted @ inv @ shifted
                disc = qh * qh - qa * (qc - radius**2)
                if disc < 0.0:
                    continue
                lam = inv @ ((qh + math.sqrt(disc)) / qa * ones - shifted)
                if not lam.sum() > 0.0:
                    continue
                lam /= lam.sum()
                if lam.min() < -1e-9:
                    continue
                v = np.clip(lam, 0.0, None) @ rows
                lifts.append(radius * v / np.linalg.norm(v))
    else:
        raise ValueError("brute_family_level enumerates r = 1 and r = 2 only")

    def level(beta):
        norm = math.fsum(beta.tolist()) if r == 1.0 else float(np.linalg.norm(beta))
        if norm > radius:
            beta = beta * (radius / norm)
        return min(
            math.fsum([bs, *(float(beta[union.index(j)]) for j in s)])
            for s, bs in zip(subsets, base)
        )

    return max(level(beta) for beta in lifts)


def common_level_robust_oracle(members, costs, radius: float, r: float) -> float:
    """Worst-case bottleneck value over the per-scenario ball.

    Searches perturbations of the form "raise a subset to a common level"
    (each subset's largest feasible level found by bisection on the budget),
    evaluating the new bottleneck value by scanning the enumerated members.
    The optimum of the ball has this shape, so the search is exact up to the
    bisection tolerance.  The subsets of one size are bisected together, 80
    steps from the bracket [least cost, least cost + radius + 1].
    """

    c = np.asarray(costs, dtype=float)
    n = len(c)
    budget = radius**r
    member_lists = [sorted(m) for m in members]

    def bottleneck(vec) -> np.ndarray:
        # one value per row of vec
        return np.min([np.max(vec[:, m], axis=1) for m in member_lists], axis=0)

    best = float(bottleneck(c[None, :])[0])
    for size in range(1, n + 1):
        idx = np.array(list(combinations(range(n), size)))
        sub = c[idx]
        lo = sub.min(axis=1)
        hi = lo + radius + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            used = np.sum(np.clip(mid[:, None] - sub, 0.0, None) ** r, axis=1)
            fits = used <= budget
            lo = np.where(fits, mid, lo)
            hi = np.where(fits, hi, mid)
        lifted = np.repeat(c[None, :], len(idx), axis=0)
        rows = np.arange(len(idx))[:, None]
        lifted[rows, idx] = np.maximum(sub, lo[:, None])
        best = max(best, float(bottleneck(lifted).max()))
    return best


def exact_topk_oracle(members, costs, radius, r, k) -> float:
    """Worst-case top-k sum over the lifts beta >= 0 with ||beta||_r <=
    radius, exactly; r in {1, 2}.

    min over members S of max over k-subsets T of S is the max over
    selections sigma (one k-subset of each member) of min over S of the sum
    over sigma(S).  Swapping the max over lifts with the max over selections
    makes the worst case the max over selections of the family level of
    {sigma(S)}.  A family that contains another has a level no higher, so
    only the inclusion-minimal families go to ``brute_family_level``.
    Raises ``ValueError`` when a member has fewer than ``k`` elements or
    there are more than 10**6 selections.
    """
    choices = [list(combinations(sorted(m), k)) for m in members]
    if not all(choices):
        raise ValueError("every member needs at least k elements")
    count = math.prod(map(len, choices))
    if count > 10**6:
        raise ValueError(f"{count} selections exceed the cap of 10**6")
    families = {frozenset(pick) for pick in product(*choices)}
    minimal = []
    for family in sorted(families, key=len):
        if not any(kept <= family for kept in minimal):
            minimal.append(family)
    return max(brute_family_level(costs, family, radius, r) for family in minimal)


def enumerated_topk_value(system, scenarios, k: int, radius: float, r: float) -> float:
    """The robust expected top-k sum by the route that member generation
    replaced: per scenario, the max over the enumerated top-k blocker
    families of the library's family level, then the exact mean.  Tiny
    instances only, as the enumeration guard allows."""
    clutter = antichain_reduce(enumerate_members(system))
    families = topk_blocker_enumerate(clutter, k)
    totals = [max(_family_level(c, fam, radius, r)[0] for fam in families) for c in scenarios.costs]
    return math.fsum(totals) / scenarios.count


def two_point_mixture_oracle(members, costs, radius, order, ground_order):
    """Lower bound for the worst-case expectation under a finite transport
    order, single empirical scenario.

    Mixes the empirical point with one moved point of common-level shape;
    the moved point's weight is capped by the transport budget.  The level
    is scanned over a fine grid with a golden polish per support subset.
    """

    c = np.asarray(costs, dtype=float)
    n = len(c)
    q, r = float(order), float(ground_order)
    member_lists = [sorted(m) for m in members]

    def bottleneck(vec) -> float:
        return min(max(vec[j] for j in m) for m in member_lists)

    base_value = bottleneck(c)
    budget = radius**q
    best = base_value

    def mixture_value(subset, level) -> float:
        lifted = c.copy()
        lifted[list(subset)] = np.maximum(lifted[list(subset)], level)
        move = float(np.sum(np.clip(level - c[list(subset)], 0.0, None) ** r)) ** (
            1.0 / r
        )
        cost = move**q
        if cost <= 0.0:
            return bottleneck(lifted)
        p = min(1.0, budget / cost)
        return p * bottleneck(lifted) + (1.0 - p) * base_value

    hi = float(np.max(c)) + 4.0 * (radius + 1.0)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            grid = np.linspace(base_value, hi, 400)
            vals = [mixture_value(subset, t) for t in grid]
            i = int(np.argmax(vals))
            lo_t = grid[max(i - 1, 0)]
            hi_t = grid[min(i + 1, len(grid) - 1)]
            golden = (math.sqrt(5.0) - 1.0) / 2.0
            x1 = hi_t - golden * (hi_t - lo_t)
            x2 = lo_t + golden * (hi_t - lo_t)
            f1, f2 = mixture_value(subset, x1), mixture_value(subset, x2)
            for _ in range(60):
                if f1 < f2:
                    lo_t, x1, f1 = x1, x2, f2
                    x2 = lo_t + golden * (hi_t - lo_t)
                    f2 = mixture_value(subset, x2)
                else:
                    hi_t, x2, f2 = x2, x1, f1
                    x1 = hi_t - golden * (hi_t - lo_t)
                    f1 = mixture_value(subset, x1)
            best = max(best, max(vals), f1, f2)
    return best


# ---------------------------------------------------------------------------
# frozen references: the oracles before their fast paths, kept verbatim
# so the fast paths can be compared with them bit for bit


class MaxFlow:
    """Dinic-style blocking-flow max-flow with real capacities.

    Undirected edges are added as a mutually-reverse arc pair, each carrying
    the full capacity.  The phase count is bounded by the node count, so
    termination does not depend on capacities being integral; a relative
    residual tolerance decides which arcs are usable.
    """

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_undirected(self, u: int, v: int, cap: float) -> int:
        """Add an undirected edge; returns the index of its forward arc."""
        i = len(self.to)
        self.adj[u].append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(i + 1)
        self.to.append(u)
        self.cap.append(cap)
        return i

    def _levels(self, s: int, t: int, eps: float) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in self.adj[u]:
                v = self.to[i]
                if level[v] < 0 and self.cap[i] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int, eps: float) -> float:
        total = 0.0
        while True:
            level = self._levels(s, t, eps)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, eps, level, it)
                if pushed <= 0.0:
                    break
                total += pushed

    def _augment(self, s: int, t: int, eps: float, level: list[int], it: list[int]) -> float:
        """Push flow along one level-graph path from ``s`` to ``t``.

        A depth-first walk with an explicit stack of arcs: it follows each
        node's arc pointer, advances the pointer past an arc only when the
        walk retreats over it, and pushes the path's least capacity.  Returns
        0.0 when ``t`` is cut off.
        """
        adj, to, cap = self.adj, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            while it[u] < len(adj[u]):
                i = adj[u][it[u]]
                v = to[i]
                if cap[i] > eps and level[v] == level[u] + 1:
                    path.append(i)
                    u = v
                    break
                it[u] += 1
            else:
                # dead end: retreat over the arc that led here
                if not path:
                    return 0.0
                u = to[path.pop() ^ 1]
                it[u] += 1
        pushed = min((cap[i] for i in path), default=float("inf"))
        for i in path:
            cap[i] -= pushed
            cap[i ^ 1] += pushed
        return pushed

    def source_side(self, s: int, eps: float) -> set[int]:
        """Nodes reachable from ``s`` in the residual graph."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in self.adj[u]:
                v = self.to[i]
                if v not in seen and self.cap[i] > eps:
                    seen.add(v)
                    queue.append(v)
        return seen


def reference_min_st_cut_side(n: int, edges, weights, s: int, t: int) -> set[int]:
    """Source side of a minimum s-t cut over an arc pair for every edge."""
    scale = max([w for w in weights] + [1.0])
    eps = 1e-12 * scale
    flow = MaxFlow(n)
    for (u, v), w in zip(edges, weights):
        flow.add_undirected(u, v, float(w))
    flow.max_flow(s, t, eps)
    return flow.source_side(s, eps)


def reference_path_blocker(system: PathSystem, weights) -> tuple[float, BlockerElement]:
    """Minimum s-t cut blocker with the crossing edges found by a full scan."""
    w = np.asarray(weights, dtype=float)
    side = reference_min_st_cut_side(system.nodes, system.edges, w, system.s, system.t)
    elements = frozenset(
        eid for eid, (u, v) in enumerate(system.edges) if (u in side) != (v in side)
    )
    value = math.fsum(w[j] for j in sorted(elements))
    return value, BlockerElement(elements, kind="cut", partition=frozenset(side))


def _reference_path_witness(system: PathSystem, costs, t):
    inc = [
        [(eid, v) for eid, v in system.incidence[u] if costs[eid] <= t]
        for u in range(system.nodes)
    ]
    path = bfs_path_edges(system.nodes, inc, system.s, system.t)
    return None if path is None else frozenset(path)


def reference_path_bottleneck(system: PathSystem, costs) -> BottleneckResult:
    """Threshold bisection plus a zero-weight minimum cut, the route that
    ``bottleneck_value`` took for path systems before its one-pass form."""
    c = np.asarray(costs, dtype=float)
    levels = np.unique(c)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _reference_path_witness(system, c, levels[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    value = float(levels[lo])
    member = _reference_path_witness(system, c, value)
    used, witness = reference_path_blocker(system, (c < value).astype(float))
    if used != 0.0:
        raise AssertionError("no blocker element attains the bottleneck level")
    return BottleneckResult(value, member, witness)


def reference_base_bottleneck(system, costs) -> BottleneckResult:
    """Threshold bisection plus a zero-weight minimum-weight blocker, the route
    that ``bottleneck_value`` took for tree, assignment and explicit systems
    before their one-pass forms."""
    c = system.validated_costs(costs)
    levels = np.unique(c)
    lo, hi = 0, len(levels) - 1
    if system.threshold_witness(c, levels[hi]) is None:
        raise DomainError("system is infeasible at the largest cost")
    while lo < hi:
        mid = (lo + hi) // 2
        if system.threshold_witness(c, levels[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    value = float(levels[lo])
    member = system.threshold_witness(c, value)
    used, witness = min_weight_blocker(system, (c < value).astype(float))
    if used != 0.0:
        raise AssertionError(
            "no blocker element attains the bottleneck level; duality is broken"
        )
    return BottleneckResult(value, member, witness)


def reference_bracketed_root(head: np.ndarray, radius: float, budget: float, r: float) -> float:
    """The per-prefix level solve that ``_lift_root`` replaced: SciPy's
    ``brentq`` on [top, top + radius], the bracket padded where rounding left
    no sign change."""
    top = head[-1]
    spent = lambda x: float(np.sum((x - head) ** r)) - budget
    hi_end = top + radius
    if spent(hi_end) < 0.0:
        hi_end = top + radius * (1.0 + 1e-9) + 1e-12 * (1.0 + abs(top))
    if spent(hi_end) < 0.0:
        return float(hi_end)
    return float(brentq(spent, top, hi_end, xtol=1e-15, rtol=8.9e-16))


def reference_prefix_level(sorted_costs: np.ndarray, radius: float, r: float) -> float:
    """The element level solve that evaluates every ascending prefix, with
    the library's per-prefix root."""

    c = np.asarray(sorted_costs, dtype=float)
    budget = radius**r
    m = len(c)
    prefix_sum = np.cumsum(c)
    candidates = []
    for i in range(1, m + 1):
        top = c[i - 1]
        nxt = c[i] if i < m else math.inf
        if r == 1.0:
            t = (prefix_sum[i - 1] + radius) / i
        elif r == 2.0:
            mean = prefix_sum[i - 1] / i
            spread = float(np.sum((c[:i] - mean) ** 2))
            if radius**2 < spread:
                continue
            t = mean + math.sqrt((radius**2 - spread) / i)
        else:
            at_top = float(np.sum((top - c[:i]) ** r))
            if at_top > budget:
                continue
            if at_top == budget:
                t = float(top)
            else:
                t = _lift_root(c[:i], radius, budget, r)
        if top <= t < nxt:
            candidates.append(t)
    if candidates:
        return min(candidates)
    lo, hi = float(c[0]), float(c[0]) + radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        used = float(np.sum(np.clip(mid - c, 0.0, None) ** r))
        if used <= budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + abs(hi)):
            break
    return lo


def reference_assignment_blocker(system: AssignmentSystem, weights) -> tuple[float, BlockerElement]:
    """Minimum-weight submatrix blocker by a loop over every row subset, the
    route ``AssignmentSystem.min_weight_blocker`` took before its screen."""
    w = np.asarray(weights, dtype=float)
    m = system.m
    grid = w.reshape(m, m)
    best = None
    for a in range(1, m + 1):
        b = m + 1 - a
        for rows in combinations(range(m), a):
            col_sums = grid[list(rows), :].sum(axis=0)
            cols = tuple(sorted(range(m), key=lambda j: (col_sums[j], j))[:b])
            value = math.fsum(grid[i, j] for i in rows for j in sorted(cols))
            key = (value, rows, cols)
            if best is None or key < best:
                best = key
    value, rows, cols = best
    elements = frozenset(system.cell(i, j) for i in rows for j in cols)
    return value, BlockerElement(
        elements, kind="submatrix", rows=frozenset(rows), cols=frozenset(cols)
    )


# the decision models' route before their per-scenario accumulators: every
# search state's subset scored from scratch by a set function


def reference_scenario_maxima(costs: np.ndarray, elements: frozenset[int]) -> list[float]:
    cols = sorted(elements)
    return [float(x) for x in costs[:, cols].max(axis=1)]


def reference_scenario_topk(costs: np.ndarray, elements: frozenset[int], k: int) -> list[float]:
    """Per-scenario sums of the k largest costs of ``elements``, padded by the
    scenario's least negative cost for each element a partial set lacks."""
    cols = sorted(elements)
    take = min(k, len(cols))
    block = np.sort(costs[:, cols], axis=1)[:, -take:]
    if take < k:
        floor = np.minimum(costs.min(axis=1, keepdims=True), 0.0)
        block = np.hstack([block, np.repeat(floor, k - take, axis=1)])
    return [math.fsum(row) for row in block]


def reference_score(costs: np.ndarray, k: int | None = None):
    """The set-function score of a decision model: maxima, or top-k sums."""
    if k is None or k == 1:
        return partial(reference_scenario_maxima, costs)
    return partial(reference_scenario_topk, costs, k=k)


def _reference_objective(score, aggregate):
    return lambda elements: aggregate(score(elements)) if elements else -math.inf


def reference_completion_groups(system, state):
    """One row per completion group of ``state``: every member below it takes
    an element of each row, and no row holds an element the state has.  An
    assignment's groups are each unassigned row's free cells; the other
    kinds have none.  Row ``i`` of a block's ``groups()`` is this of its
    state ``i``."""
    if not isinstance(system, AssignmentSystem):
        return ()
    _, _, (row, used) = state
    cells = np.arange(system.m * system.m).reshape(system.m, system.m)
    return cells[row:].take([j for j in range(system.m) if j not in used], axis=1)


# the decision models' band walk before the block walk replaced it: one
# state expanded at a time, with the block of its children scored in one
# call; the enumeration's ``iter_members`` lost ``prune`` and ``extend``


def _union(acc, added):
    return added if acc is None else [acc | a for a in added]


def pruned_members(system, prune=None, *, extend=_union):
    """Yield feasible subsets in canonical order.

    ``prune`` scores the root, then each expanded state's children, one
    block per call, and returns True for each child whose subtree is cut; it
    must never cut a subtree containing a member that the caller still needs.
    Every state visited, partial or complete, is scored once.  Each
    depth-first frame keeps its block of children's accumulators.
    """

    def walk(state, acc):
        elements, complete, _ = state
        if complete:
            yield elements
            return
        children = list(system.expand(state))
        if not children:
            return
        accs = extend(acc, [child[0] - elements for child in children])
        cut = prune(accs, state, children) if prune is not None else [False] * len(children)
        for i, child in enumerate(children):
            if not cut[i]:
                yield from walk(child, accs[i])

    root = system.root()
    accs = extend(None, [root[0]])
    if prune is None or not prune(accs, None, [root])[0]:
        yield from walk(root, accs[0])


# the best-first search before it popped a block of states a step: one state
# a step, its accumulator rebuilt from its elements


def per_state_minimize(system, bound_fn, force=False, *, grow):
    """``(value, chosen)``: the least ``bound_fn`` value over feasible subsets,
    ties to the lexicographically smallest, popping one state a step."""
    blank = system.ground.n
    heap = []
    counter = itertools.count()

    def push(children, accs):
        complete = children.complete().tolist()
        scores = bound_fn(accs, children)
        assert len(scores) == len(children)
        for index, value in enumerate(scores):
            heapq.heappush(heap, (value, next(counter), complete[index], children, index))

    root = system.root_block()
    push(root, grow(None, *padded_elements(root.elements(), blank)))
    limit = None
    champion = None
    champion_key = None
    while heap:
        bound, _, complete, block, index = heapq.heappop(heap)
        if limit is not None and bound > limit:
            break
        state = block.take([index])
        if complete:
            if limit is None:
                limit = bound + 1e-12 * (1.0 + abs(bound))
            elements = state.elements()[0]
            key = (bound, tuple(sorted(elements)))
            if champion_key is None or key < champion_key:
                champion, champion_key = elements, key
            continue
        children, _, added, width = state.expand()
        if len(children):
            acc = grow(None, *padded_elements(state.elements(), blank))
            push(children, grow(acc, added, width))
    if champion is None:
        raise InvalidInstanceError("no feasible subset found")
    return champion_key[0], champion


def exact_key_minimize(system, fold, aggregate, force=False):
    """``(value, chosen, scores)`` of the decision search keyed by exact
    scores: every child by its exact aggregate, a mean's raised to its
    lookahead over the completion groups less the pad where the pad is
    finite; the empty set by -inf.  The callback that float keys for partial
    states replaced."""
    n = len(fold.ones)

    def bound(block, groups):
        keys = aggregate(fold.values(block))
        if groups is None:
            return keys
        aheads = fold.lookaheads(block, groups).tolist()
        return [max(key, (ahead - fold.pad) / n) for key, ahead in zip(keys, aheads)]

    lookahead = aggregate is decide._means and fold.pad < math.inf

    def callback(accs, children):
        empty = children.empty()
        if empty is None:
            return bound(accs, children.groups() if lookahead else None)
        kept = np.flatnonzero(~empty)
        values = iter(bound(accs[kept], None) if kept.size else ())
        return [-math.inf if e else next(values) for e in empty.tolist()]

    value, chosen = minimize_members(system, callback, force, grow=fold.grow)
    return value, chosen, fold.score(chosen)


def each_state(fn):
    """A ``pruned_members`` callback that scores the children of a state one
    element set at a time, with ``fn``."""
    return lambda accs, state, children: [fn(elements) for elements in accs]


def each_child(fn):
    """A search callback that scores a block of children one element set at a
    time, with ``fn``; it reads no accumulator, so ``no_accumulators`` is its
    ``grow``."""
    return lambda accs, children: [fn(elements) for elements in children.elements()]


def no_accumulators(accs, index, width):
    """A zero-width block: one empty accumulator row per child."""
    return np.empty((len(index) // width, 0))


def reference_minimize(system, score, aggregate, force=False):
    """``(value, chosen, scores)`` of the subset of least aggregate score."""
    bound = each_child(_reference_objective(score, aggregate))
    value, chosen = minimize_members(system, bound, force, grow=no_accumulators)
    return value, chosen, score(chosen)


def reference_band(system, score, threshold: float):
    """Members whose mean score is at most ``threshold``: ``(member, values, mean)``."""
    bound = _reference_objective(score, exact_mean)
    limit = threshold + 1e-12 * (1.0 + abs(threshold))
    prune = each_state(lambda elements: bool(elements) and bound(elements) > limit)
    for member in pruned_members(system, prune):
        values = score(member)
        mean = exact_mean(values)
        if mean <= threshold:
            yield member, values, mean


def reference_least_variance_in_band(system, score, shift: float, model: str):
    saa_value, _, _ = reference_minimize(system, score, exact_mean)
    band = reference_band(system, score, saa_value + shift)
    keyed = ((exact_variance(v, mean), tuple(sorted(m)), m, v) for m, v, mean in band)
    variance, _, member, values = min(keyed)
    return _report(member, variance, values, model)


def reference_tv_objective(values, d: float) -> float:
    worst = max(values)
    n = len(values)
    best = math.inf
    for beta in sorted(set(values)):
        shortfall = math.fsum(v - beta for v in values if v > beta) / n
        best = min(best, (1.0 - d / 2.0) * beta + shortfall + d / 2.0 * worst)
    return best


# the top-k sum search before it ran on the decision models' top-k fold: a
# set-function bound whose block sum is rounded before the floor is added


def _reference_topk_sum(values: np.ndarray, k: int) -> float:
    take = min(k, len(values))
    if take == 0:
        return 0.0
    return float(np.sort(values)[-take:].sum())


def reference_topk_sum_value(system, costs, k: int, force: bool = False):
    c = system.validated_costs(costs)
    if k < 1:
        raise DomainError("k must be a positive integer")
    if k > min_member_size(system):
        raise DomainError(
            f"k={k} exceeds the smallest feasible subset ({min_member_size(system)})"
        )

    floor = min(0.0, float(c.min()))

    def bound(elements: frozenset[int]) -> float:
        short = k - min(k, len(elements))
        return _reference_topk_sum(c[sorted(elements)], k) + short * floor

    return minimize_members(system, each_child(bound), force=force, grow=no_accumulators)


# the top-k family level before its numpy solve: HiGHS for r = 1, and for
# r > 1 the best rescaled SLSQP point from three starts (a lower bound)


def reference_family_level(c: np.ndarray, family, radius: float, r: float) -> float:
    subsets = [sorted(s) for s in family]
    if all(len(s) == 1 for s in subsets):
        return element_level(c, {s[0] for s in subsets}, radius, r)
    union = sorted(set().union(*subsets))
    base = [math.fsum(c[j] for j in s) for s in subsets]
    if radius == 0.0:
        return min(base)
    pos = {j: i for i, j in enumerate(union)}
    dim = len(union)

    if r == 1.0:
        cost = np.zeros(dim + 1)
        cost[-1] = -1.0
        rows = []
        rhs = []
        for s, b in zip(subsets, base):
            row = np.zeros(dim + 1)
            for j in s:
                row[pos[j]] = -1.0
            row[-1] = 1.0
            rows.append(row)
            rhs.append(b)
        budget_row = np.zeros(dim + 1)
        budget_row[:dim] = 1.0
        rows.append(budget_row)
        rhs.append(radius)
        bounds = [(0.0, radius)] * dim + [(None, None)]
        res = linprog(
            cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs"
        )
        if not res.success:
            raise ConvergenceError(f"family level LP failed: {res.message}")
        return float(-res.fun)

    def neg_z(x):
        return -x[-1]

    constraints = [
        {
            "type": "ineq",
            "fun": (lambda x, s=s, b=b: math.fsum(x[pos[j]] for j in s) + b - x[-1]),
        }
        for s, b in zip(subsets, base)
    ]
    constraints.append(
        {"type": "ineq", "fun": lambda x: radius**r - float(np.sum(x[:dim] ** r))}
    )
    bounds = [(0.0, radius)] * dim + [(None, None)]
    best = None
    uniform = radius * dim ** (-1.0 / r)
    for frac in (0.5, 0.05, 0.95):
        x0 = np.full(dim + 1, uniform * frac)
        x0[-1] = min(base)
        res = scipy_minimize(
            neg_z,
            x0,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if res.success:
            beta = np.clip(res.x[:dim], 0.0, None)
            norm = float(np.sum(beta**r)) ** (1.0 / r)
            if norm > radius:
                beta *= radius / norm
            achieved = min(
                math.fsum(beta[pos[j]] for j in s) + b for s, b in zip(subsets, base)
            )
            if best is None or achieved > best:
                best = achieved
    if best is None:
        raise ConvergenceError("family level optimization failed from all starts")
    return best


def _reference_power(base: float, exponent: float) -> float:
    if base <= 0.0:
        return 0.0
    return math.exp(exponent * math.log(base))


def _reference_max_on_segment(fn, a: float, b: float, samples: int = 9, iters: int = 48):
    if b <= a:
        return fn(a)
    xs = np.linspace(a, b, samples)
    vals = [fn(x) for x in xs]
    best = int(np.argmax(vals))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, samples - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
    return max(max(vals), f1, f2)


def _reference_dual_sup(system, c: np.ndarray, lam: float, q: float, r: float) -> float:
    if lam <= 0.0:
        return math.inf
    base = bottleneck_value(system, c).value
    cmax = float(np.max(c))

    def h(t: float) -> float:
        used, _ = min_weight_blocker(system, np.clip(t - c, 0.0, None) ** r)
        return t - lam * _reference_power(used, q / r)

    if q > 1.0:
        slack = (lam * q) ** (-1.0 / (q - 1.0))
    else:
        slack = 1.0 + float(np.max(c) - np.min(c))
    hi = cmax + slack
    for _ in range(8):
        breaks = sorted({base, hi} | {float(x) for x in np.unique(c) if base < x < hi})
        best = -math.inf
        for a, b in zip(breaks, breaks[1:]):
            best = max(best, _reference_max_on_segment(h, a, b))
        best = max(best, h(base))
        if q > 1.0 or h(hi) < best - 1e-12 * (1.0 + abs(best)):
            return best
        probe = hi + slack
        if h(probe) <= best + 1e-12 * (1.0 + abs(best)):
            return best
        hi = probe
        slack *= 2.0
    return math.inf


def reference_finite_order(system, scenarios, radius: float, order: float, ground_order: float = 1.0):
    """The finite-order dual before the exact lift envelope: golden sections
    over the multiplier and, between distinct costs, over the level, with a
    blocker call for every level tried.  Returns (value, multiplier)."""
    q, r = float(order), float(ground_order)
    evals = 0

    def phi(lam: float) -> float:
        nonlocal evals
        evals += 1
        if evals > 600:
            raise ConvergenceError("multiplier search exceeded its evaluation budget")
        if lam < 0.0:
            return math.inf
        total = math.fsum(
            _reference_dual_sup(system, scenarios.costs[k], lam, q, r)
            for k in range(scenarios.count)
        )
        if math.isinf(total):
            return math.inf
        return lam * radius**q + total / scenarios.count

    lam_mid, f_mid = 1.0, phi(1.0)
    lam_hi, f_hi = 2.0, phi(2.0)
    steps = 0
    while f_hi < f_mid:
        lam_mid, f_mid = lam_hi, f_hi
        lam_hi *= 2.0
        f_hi = phi(lam_hi)
        steps += 1
        if steps > 200:
            raise ConvergenceError("multiplier search failed to bracket a minimum")
    lam_lo, f_lo = lam_mid / 2.0, phi(lam_mid / 2.0)
    steps = 0
    while f_lo < f_mid and lam_lo > 1e-300:
        lam_mid, f_mid = lam_lo, f_lo
        lam_lo /= 2.0
        f_lo = phi(lam_lo)
        steps += 1
        if steps > 200:
            raise ConvergenceError("multiplier search failed to bracket a minimum")

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = lam_lo, lam_hi
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    best_lam, best_val = (x1, f1) if f1 <= f2 else (x2, f2)
    if f_mid < best_val:
        best_lam, best_val = lam_mid, f_mid
    for _ in range(120):
        if hi - lo <= 1e-10 * (1.0 + hi):
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = phi(x2)
        if f1 < best_val:
            best_lam, best_val = x1, f1
        if f2 < best_val:
            best_lam, best_val = x2, f2
    return best_val, best_lam


def reference_scenario_value(system, costs, empirical, radius: float, r: float):
    """The per-scenario level search that the record's sorted starts
    replaced: the witness re-sorted by ``element_level`` on every call and
    every lift, and ``raised`` read cost by cost.  Returns ``(level,
    witness, raised)``; the iteration cap is the library's."""
    from drbottleneck import quantify

    c = system.validated_costs(costs)
    witness = empirical.dual_witness
    if float(np.min(c[sorted(witness.elements)])) != empirical.value:
        raise DomainError("the empirical bottleneck result is not that of these costs")
    if radius == 0.0:
        raised = frozenset(j for j in witness.elements if c[j] <= empirical.value)
        return empirical.value, witness, raised
    level = element_level(c, witness.elements, radius, r)
    calls = 0
    while level < empirical.value + radius:
        if calls == quantify.LEVEL_SEARCH_MAX_ITER:
            raise ConvergenceError(f"level search still rising after {calls} blocker calls")
        calls += 1
        with np.errstate(over="ignore"):
            weights = np.clip(level - c, 0.0, None) ** r
        _, lift = min_weight_blocker(system, weights)
        cand = element_level(c, lift.elements, radius, r)
        if not cand > level:
            break
        level, witness = cand, lift
    raised = frozenset(j for j in witness.elements if c[j] <= level)
    return level, witness, raised


def _cellwise_header(row: list[str]) -> int:
    for col, cell in enumerate(row):
        try:
            value = int(cell)
        except ValueError:
            raise ScenarioParseError(
                f"header cell {cell!r} is not an element id", row=0, column=col
            )
        if value != col:
            raise ScenarioParseError(
                f"header ids must be dense 0..n-1; got {value} at column {col}",
                row=0,
                column=col,
            )
    if not row:
        raise ScenarioParseError("empty header row", row=0)
    return len(row)


def cellwise_load_scenarios(path) -> ScenarioSet:
    """The scenario reader that a bulk parse replaced: one ``float`` a cell."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioParseError("scenario file is empty", row=0)
        width = _cellwise_header(header)
        rows = []
        for idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise ScenarioParseError(
                    f"row {idx} has {len(row)} cells, expected {width}", row=idx
                )
            values = []
            for col, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ScenarioParseError(
                        f"cell {cell!r} is not numeric", row=idx, column=col
                    )
            rows.append(values)
        if not rows:
            raise ScenarioParseError("no scenario rows found", row=1)
        return ScenarioSet(np.array(rows, dtype=float))


def streamed_csv(path, header, rows) -> None:
    """The command line's CSV writer that one write per output replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def streamed_json(path, payload, schema_version: int) -> None:
    """The command line's JSON writer that one write per output replaced."""
    payload = {"schema_version": schema_version, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def streamed_save_scenarios(path, scenarios) -> None:
    """``save_scenarios`` as it wrote one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(range(scenarios.width))
        for row in scenarios.costs:
            writer.writerow([repr(float(x)) for x in row])
