"""Robust decision models over empirical scenarios.

The sample-average decision minimizes the mean of per-scenario maxima.  Its
worst-case counterpart over the order-infinity Wasserstein ball keeps the
same minimizer and shifts the value by exactly the radius, which motivates
two refinements implemented here: the variance-robust model (least sampling
variance among near-optimal subsets) and the total-variation model.  Top-k
variants score subsets by the per-scenario sum of their k largest costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DECISION_OBJECTIVE, DomainError, InvariantViolationError, check_element_ids, check_ground_order,
    check_radius, exact_mean, exact_row_sums, exact_sum, exact_variance, overflow_error,
)
from .scenarios import ScenarioSet, require_matching_width
from .search import iter_members, minimize_members
from .systems import AssignmentSystem, CombinatorialSystem, min_member_size


@dataclass(frozen=True)
class DecisionReport:
    """A chosen subset with its per-scenario objective profile.

    ``variance`` uses the population convention (divisor N), matching the
    sampling-variance objective of the variance-robust model.
    """

    chosen: frozenset[int]
    objective: float
    per_scenario: tuple[float, ...]
    mean: float
    variance: float
    model: str

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "chosen": sorted(self.chosen),
            "objective": self.objective,
            "per_scenario": list(self.per_scenario),
            "mean": self.mean,
            "variance": self.variance,
        }


@dataclass(frozen=True)
class IndifferenceSet:
    """Subsets whose empirical mean objective is within the threshold."""

    threshold: float
    baseline: DecisionReport
    members: tuple[frozenset[int], ...] | None
    scenarios: ScenarioSet

    def contains(self, elements) -> bool:
        """Membership test: mean per-scenario maximum within the threshold."""
        elements = frozenset(check_element_ids(elements, self.scenarios.width))
        values = _Maxima(self.scenarios.costs).score(elements)
        return exact_mean(values) <= self.threshold


class _Maxima:
    """Per-scenario maxima of a subset's costs, folded one element at a time
    into an N-vector, ``None`` for the empty set.  A maximum is exact, so the
    order the elements arrive in does not change it.

    ``screen`` and ``lookahead`` sum such vectors in floating point, each
    within ``pad`` of the exact sum (see the comment above ``_mean_pad``).
    """

    def __init__(self, costs: np.ndarray):
        self.columns = np.ascontiguousarray(costs.T)  # one row per element
        self.ones = np.ones(costs.shape[0])
        self.pad = _mean_pad(costs)

    def extend(self, acc, added):
        for j in added:
            acc = self.columns[j] if acc is None else np.maximum(acc, self.columns[j])
        return acc

    def values(self, acc) -> list[float]:
        return acc.tolist()

    def score(self, elements) -> list[float]:
        return self.values(self.extend(None, elements))

    def screen(self, acc) -> float:
        """N times the mean of ``acc``, screened."""
        return float(acc @ self.ones)

    def lookahead(self, acc, groups) -> float:
        """The max over ``groups`` of the least screened sum of max(acc, column)
        over the group's cells; less the pad, it bounds N times the mean of
        every completion that takes a cell of each group."""
        cells = self.columns.take(groups, axis=0)
        np.maximum(cells, acc, out=cells)
        return float(np.maximum.reduce(np.minimum.reduce(cells @ self.ones, axis=1)))


# The float screen of the maximum fold.  With N scenarios, M = max |cost| and
# unit roundoff w = 2**-53, a dot product with a ones vector adds N terms of
# magnitude at most M in some order (BLAS may block or pair them); every order
# errs by at most (N - 1) w NM to first order, the products by one are exact,
# and additions lose nothing to underflow.  So a screened sum s and the exact
# sum S of the same maxima differ by at most N^2 wM.  The exact mean is
# V = fl(fl(S) / N), with |fl(S) - S| <= wNM.  Rounding is monotone, so for a
# float L, fl(x) <= L whenever x <= L; hence V <= L once fl(S) <= NL, and
# V > L once fl(S) >= N succ(L), where succ(L) - L <= 2w|L| + 2**-1074.
# Lookahead: a completion C takes a cell e of each group and its maxima are at
# least max(acc, column e) in every scenario, so S_C >= S_e; with pad >= N^2 wM
# the lookahead less the pad is at most S_C, so fl(lookahead - pad) <= fl(S_C)
# and fl(fl(lookahead - pad) / N) <= V_C.  Band test against T = fl(NL), which
# errs by wN|L|: fl(x - T) > slack gives x - T > slack, and then fl(S) (or
# fl(S_C)) >= N succ(L) when slack >= (N^2 + N) wM + 3wN|L| + N 2**-1074;
# fl(s - T) < -slack gives fl(S) <= NL by the same count.  The pad is
# (N^2 M + N 2**-1020) 2**-50, four times the first term and sixteen times the
# last, and the band adds |T| 2**-50 for the |L| term; the margins cover the
# rounding of the pad, the slack and the comparisons.  A finite pad needs
# N^2 M finite, so no screened sum (at most NM) overflows; an infinite pad or
# slack leaves only the exact path.
def _mean_pad(costs: np.ndarray) -> float:
    n = costs.shape[0]
    return (n * n * float(np.abs(costs).max()) + n * 2.0**-1020) * 2.0**-50


class _TopK(_Maxima):
    """Per-scenario sums of a subset's k largest costs, folded into the
    N-by-min(k, |S|) block of those costs, rows ascending.

    A set of fewer than k elements also counts the scenario's least cost,
    where it is negative, once for each element it lacks: no superset scores
    lower, so the value of a partial set is an admissible bound.
    """

    def __init__(self, costs: np.ndarray, k: int):
        super().__init__(costs)
        self.k = k
        self.floor = np.minimum(costs.min(axis=1, keepdims=True), 0.0)
        self.pad = math.inf  # no screen or lookahead: the exact path only

    def extend(self, acc, added):
        if not added:
            return acc
        block = self.columns[list(added)].T
        block = block if acc is None else np.hstack([acc, block])
        return np.sort(block, axis=1)[:, -self.k:]

    def values(self, acc) -> list[float]:
        short = self.k - acc.shape[1]
        if short:
            acc = np.hstack([acc, np.repeat(self.floor, short, axis=1)])
        return exact_row_sums(acc.tolist(), DECISION_OBJECTIVE)


Aggregate = Callable[[list[float]], float]


def _fold(
    system: CombinatorialSystem, scenarios: ScenarioSet, radius: float = 0.0,
    k: int | None = None, ground_order: float = 1.0,
) -> _Maxima:
    """The checks every decision model shares, then its per-scenario fold: the
    maximum, or with ``k`` the sum of the k largest (at k = 1, the maximum)."""
    check_radius(radius)
    check_ground_order(ground_order)
    require_matching_width(scenarios, system)
    if k is not None and not 1 <= k <= min_member_size(system):
        raise DomainError("k must lie between 1 and the smallest member size")
    if k is None or k == 1:
        return _Maxima(scenarios.costs)
    return _TopK(scenarios.costs, k)


def _minimize(system: CombinatorialSystem, fold: _Maxima, aggregate: Aggregate, force: bool):
    """``(value, chosen, scores)`` of the subset of least aggregate score; ties go
    to the lexicographically smallest set.  The aggregate is monotone, so its
    value on a partial set bounds every completion; the empty set scores -inf.
    The mean's key is the larger of that and the lookahead over the state's
    completion groups, which never exceeds a completion's mean either, so the
    champion is the same."""
    lookahead = aggregate is exact_mean and fold.pad < math.inf

    def bound(acc, state) -> float:
        if acc is None:
            return -math.inf
        value = aggregate(fold.values(acc))
        groups = system.completion_groups(state) if lookahead else ()
        if len(groups):
            value = max(value, (fold.lookahead(acc, groups) - fold.pad) / len(fold.ones))
        return value

    value, chosen = minimize_members(system, bound, force, extend=fold.extend)
    return value, chosen, fold.score(chosen)


def _radius_shift(radius: float, k: int, ground_order: float) -> float:
    """k^((r-1)/r) times the radius: how far the ball lifts a top-k objective."""
    return k ** ((ground_order - 1.0) / ground_order) * radius


def _band(system: CombinatorialSystem, fold: _Maxima, threshold: float):
    """Members whose mean score is at most ``threshold``, in canonical order.

    Yields ``(member, values, mean)``.  The search prunes on the mean score,
    which is monotone; since monotone bounds can invert by an ulp on partial
    sets, the prune keeps a tolerance band above the threshold.  It prunes
    where the screen, or the lookahead over the completion groups, clears the
    limit by the pad, keeps where the screen lies below it by the pad, and
    takes the exact mean only in between.
    """

    limit = threshold + 1e-12 * (1.0 + abs(threshold))
    bar = len(fold.ones) * limit
    slack = fold.pad + abs(bar) * 2.0**-50

    def prune(acc, state) -> bool:
        if acc is None:
            return False
        if slack < math.inf:
            screen = fold.screen(acc) - bar
            if screen > slack:
                return True
            groups = system.completion_groups(state)
            if len(groups) and fold.lookahead(acc, groups) - bar > slack:
                return True
            if screen < -slack:
                return False
        return exact_mean(fold.values(acc)) > limit

    for member in iter_members(system, prune, extend=fold.extend):
        values = fold.score(member)
        mean = exact_mean(values)
        if mean <= threshold:
            yield member, values, mean


def _least_variance_in_band(
    system: CombinatorialSystem, fold: _Maxima, shift: float, force: bool, model: str
) -> DecisionReport:
    """The least population variance among subsets whose mean score is within
    ``shift`` of the sample-average optimum, ties lexicographic."""
    saa_value, _, _ = _minimize(system, fold, exact_mean, force)
    band = _band(system, fold, saa_value + shift)
    keyed = ((exact_variance(v, mean), tuple(sorted(m)), m, v) for m, v, mean in band)
    best = min(keyed, default=None)
    if best is None:
        raise InvariantViolationError(
            f"{model} indifference set came back empty; it must contain the optimum"
        )
    variance, _, member, values = best
    return _report(member, variance, values, model)


def _report(chosen, objective, values, model) -> DecisionReport:
    mean = exact_mean(values)
    return DecisionReport(
        chosen=chosen,
        objective=objective,
        per_scenario=tuple(values),
        mean=mean,
        variance=exact_variance(values, mean),
        model=model,
    )


def _shifted(base: DecisionReport, radius: float) -> DecisionReport:
    """The sample-average optimum ``base`` as the robust decision at ``radius``."""
    check_radius(radius)
    return replace(base, objective=base.objective + radius, model="wasserstein-robust")


def saa_decision(
    system: CombinatorialSystem, scenarios: ScenarioSet, force: bool = False
) -> DecisionReport:
    """Exact minimizer of the mean of per-scenario maxima.

    Best-first branch and bound; the mean of maxima over the elements forced
    so far is an admissible bound.  Ties are broken by the lexicographically
    smallest element set.
    """

    value, chosen, values = _minimize(system, _fold(system, scenarios), exact_mean, force)
    return _report(chosen, value, values, "saa")


def robust_decision(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    force: bool = False,
) -> DecisionReport:
    """Worst-case expected decision over the order-infinity ball.

    The optimal subset coincides with the sample-average optimum for every
    radius and every ground norm; the objective shifts by exactly the radius.
    """

    check_radius(radius)
    return _shifted(saa_decision(system, scenarios, force), radius)


def decision_worst_case_distribution(
    chosen: frozenset[int], scenarios: ScenarioSet, radius: float
) -> np.ndarray:
    """Support points of the worst case for a fixed subset.

    Per scenario, the cost of the subset's most expensive element (smallest
    index on ties) is raised by the radius; the subset's worst-case mean is
    then its empirical mean plus the radius, exactly.
    """

    check_radius(radius)
    cols = check_element_ids(chosen, scenarios.width)
    support = np.array(scenarios.costs, dtype=float)
    for k in range(scenarios.count):
        row = support[k]
        peak = max(cols, key=lambda j: (row[j], -j))
        row[peak] += radius
    return support


def indifference_set(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    materialize: bool = False,
    force: bool = False,
) -> IndifferenceSet:
    """Subsets whose mean objective is at most the optimum plus the radius.

    Materialization enumerates the set (guarded); otherwise only the
    threshold and the baseline report are returned, and membership can be
    tested against the threshold.
    """

    check_radius(radius)
    base = saa_decision(system, scenarios, force=force)
    threshold = base.objective + radius
    members = None
    if materialize:
        band = _band(system, _Maxima(scenarios.costs), threshold)
        members = tuple(sorted((m for m, _, _ in band), key=lambda m: tuple(sorted(m))))
    return IndifferenceSet(
        threshold=threshold, baseline=base, members=members, scenarios=scenarios
    )


def variance_robust_decision(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    force: bool = False,
) -> DecisionReport:
    """Least sampling variance among subsets within the indifference set.

    Enumerates members whose mean objective stays under the sample-average
    optimum plus the radius (mean bound pruned during search; the variance
    itself admits no useful lower bound) and returns the variance minimizer,
    ties broken lexicographically.
    """

    fold = _fold(system, scenarios, radius)
    return _least_variance_in_band(system, fold, radius, force, "variance-robust")


def tv_robust_decision(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    tv_radius: float,
    force: bool = False,
) -> DecisionReport:
    """Worst-case expected decision over a total-variation ball.

    For a fixed subset with per-scenario values v^k the inner worst case is
    min over beta of (1 - d/2) beta + mean((v - beta)_+) + (d/2) max v; the
    objective is convex and piecewise linear in beta with breakpoints at the
    v^k, so its minimum lies at a breakpoint.  Every breakpoint is screened
    in floating point from one sorted pass, and those whose screen lies
    within a proven rounding bound of the least are scored exactly, so the
    value is that of scoring every breakpoint exactly.  At d = 0 this is the
    sample mean, at d = 2 the worst scenario.
    """

    if not 0.0 <= tv_radius <= 2.0:
        raise DomainError("total-variation radius must lie in [0, 2]")
    aggregate = partial(_tv_objective, d=tv_radius)
    value, chosen, values = _minimize(system, _fold(system, scenarios), aggregate, force)
    return _report(chosen, value, values, "total-variation")


# The total-variation objective f(beta) = ((1 - d/2) beta + s(beta)/n) + d max/2,
# with s(beta) the sum of (v - beta)_+, is scored exactly by fsum-ing s at each
# breakpoint.  A float screen scores every breakpoint u_j of the ascending
# values u at once, s_j = S_j - (n - j) u_j with suffix sums S_j, and only the
# breakpoints it keeps are scored exactly.  The padding, with M = max |u| and
# unit roundoff w = 2**-53, to first order in w: the outer terms (1 - d/2) u_j
# and d max/2 are the same floats on both sides.  The screen's suffix sum errs
# by at most (n - 1) w nM (a sequential sum), the product (n - j) u_j by w nM
# and their difference, at most 2nM, by 2w nM; so s_j / n errs by (n + 2) wM,
# plus 2wM for the division.  The exact side's s_j / n errs by 2wM from the
# differences v - beta (each at most 2M), 2wM from the fsum and 2wM from the
# division.  Each side's two outer additions, of sums at most 3M and 4M, err
# by 7wM.  Only the divisions can lose accuracy to underflow, 2**-1075 on each
# side.  So a screened value and its exact value differ by at most
# B = (n + 24) wM + 2**-1074, and the exact argmin's screen lies within 2B of
# the least screen.  The padding is (n + 32) 2**-49 M + 2**-1070, eight times
# 2B and more, which also covers the rounding of the padding and of the
# comparison.  Every quantity on either side is at most 2nM in magnitude, so a
# finite padding (its first product is (4n + 128) M) rules out overflow on
# both sides, and screened values are then finite; an infinite padding keeps
# every breakpoint.
def _tv_breakpoints(u: np.ndarray, d: float) -> np.ndarray:
    """Indices into the ascending values ``u`` of the breakpoints whose
    screened objective lies within the proven padding of the least; the
    exact minimizer is among them.  Tied breakpoints score the same exactly."""
    n = len(u)
    top = float(max(-u[0], u[-1]))
    pad = (4.0 * n + 128.0) * top * 2.0**-51 + 2.0**-1070
    if not math.isfinite(pad):
        return np.arange(n)
    shortfall = np.cumsum(u[::-1])[::-1] - np.arange(n, 0, -1) * u
    screened = (1.0 - d / 2.0) * u + shortfall / n + d * u[-1] / 2.0
    return np.flatnonzero(screened <= screened.min() + pad)


def _tv_objective(values, d: float) -> float:
    # each kept breakpoint's shortfall is the fsum of (v - beta)_+ over the
    # values above it; the zeros of its ties leave the sum unchanged
    u = np.sort(values)
    n, lean, worst = len(u), 1.0 - d / 2.0, d * u[-1] / 2.0
    if float(u[-1]) - float(u[0]) == math.inf:  # a difference past the float range
        raise overflow_error(DECISION_OBJECTIVE)
    return float(min(
        lean * u[j] + exact_sum((u[j:] - u[j]).tolist(), DECISION_OBJECTIVE) / n + worst
        for j in _tv_breakpoints(u, d).tolist()
    ))


def topk_decision(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    k: int,
    ground_order: float = 1.0,
    force: bool = False,
) -> DecisionReport:
    """Robust top-k-sum decision over the order-infinity ball.

    The sample-average top-k optimum is found by branch and bound (the
    per-scenario top-k sum of the forced elements is admissible), then the
    objective is shifted by k^((r-1)/r) times the radius; the minimizer is
    shared with the sample-average problem.
    """

    fold = _fold(system, scenarios, radius, k, ground_order)
    value, chosen, values = _minimize(system, fold, exact_mean, force)
    return _report(chosen, value + _radius_shift(radius, k, ground_order), values, "topk-robust")


def topk_variance_robust_decision(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    k: int,
    ground_order: float = 1.0,
    force: bool = False,
) -> DecisionReport:
    """Variance-robust model with per-scenario top-k sums.

    The indifference threshold is the sample-average top-k optimum plus
    k^((r-1)/r) times the radius.
    """

    fold = _fold(system, scenarios, radius, k, ground_order)
    shift = _radius_shift(radius, k, ground_order)
    return _least_variance_in_band(system, fold, shift, force, "topk-variance-robust")


def matching_permutation(system: AssignmentSystem, chosen: frozenset[int]) -> list[int]:
    """Column assigned to each row, for matchings of an assignment system."""
    ids = check_element_ids(chosen, system.m * system.m)
    perm = [-1] * system.m
    for element in ids:
        i, j = system.cell_position(element)
        perm[i] = j
    if len(ids) != system.m or sorted(perm) != list(range(system.m)):
        raise DomainError("chosen subset is not a perfect matching")
    return perm
