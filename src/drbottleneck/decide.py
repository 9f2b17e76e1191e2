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

from .errors import DomainError, InvariantViolationError, check_element_ids, check_ground_order
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
        return _mean(values) <= self.threshold


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _population_variance(values, mean: float) -> float:
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


class _Maxima:
    """Per-scenario maxima of a subset's costs, folded one element at a time
    into an N-vector, ``None`` for the empty set.  A maximum is exact, so the
    order the elements arrive in does not change it."""

    def __init__(self, costs: np.ndarray):
        self.columns = np.ascontiguousarray(costs.T)  # one row per element

    def extend(self, acc, added):
        for j in added:
            acc = self.columns[j] if acc is None else np.maximum(acc, self.columns[j])
        return acc

    def values(self, acc) -> list[float]:
        return acc.tolist()

    def score(self, elements) -> list[float]:
        return self.values(self.extend(None, elements))


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
        return [math.fsum(row) for row in acc.tolist()]


Aggregate = Callable[[list[float]], float]


def _fold(
    system: CombinatorialSystem, scenarios: ScenarioSet, radius: float = 0.0,
    k: int | None = None, ground_order: float = 1.0,
) -> _Maxima:
    """The checks every decision model shares, then its per-scenario fold: the
    maximum, or with ``k`` the sum of the k largest (at k = 1, the maximum)."""
    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
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
    value on a partial set bounds every completion; the empty set scores -inf."""

    def bound(acc) -> float:
        return -math.inf if acc is None else aggregate(fold.values(acc))

    value, chosen = minimize_members(system, bound, force, extend=fold.extend)
    return value, chosen, fold.score(chosen)


def _radius_shift(radius: float, k: int, ground_order: float) -> float:
    """k^((r-1)/r) times the radius: how far the ball lifts a top-k objective."""
    return k ** ((ground_order - 1.0) / ground_order) * radius


def _band(system: CombinatorialSystem, fold: _Maxima, threshold: float):
    """Members whose mean score is at most ``threshold``, in canonical order.

    Yields ``(member, values, mean)``.  The search prunes on the mean score,
    which is monotone; since monotone bounds can invert by an ulp on partial
    sets, the prune keeps a tolerance band above the threshold.
    """

    limit = threshold + 1e-12 * (1.0 + abs(threshold))

    def prune(acc) -> bool:
        return acc is not None and _mean(fold.values(acc)) > limit

    for member in iter_members(system, prune, extend=fold.extend):
        values = fold.score(member)
        mean = _mean(values)
        if mean <= threshold:
            yield member, values, mean


def _least_variance_in_band(
    system: CombinatorialSystem, fold: _Maxima, shift: float, force: bool, model: str
) -> DecisionReport:
    """The least population variance among subsets whose mean score is within
    ``shift`` of the sample-average optimum, ties lexicographic."""
    saa_value, _, _ = _minimize(system, fold, _mean, force)
    band = _band(system, fold, saa_value + shift)
    keyed = ((_population_variance(v, mean), tuple(sorted(m)), m, v) for m, v, mean in band)
    best = min(keyed, default=None)
    if best is None:
        raise InvariantViolationError(
            f"{model} indifference set came back empty; it must contain the optimum"
        )
    variance, _, member, values = best
    return _report(member, variance, values, model)


def _report(chosen, objective, values, model) -> DecisionReport:
    mean = _mean(values)
    return DecisionReport(
        chosen=chosen,
        objective=objective,
        per_scenario=tuple(values),
        mean=mean,
        variance=_population_variance(values, mean),
        model=model,
    )


def _shifted(base: DecisionReport, radius: float) -> DecisionReport:
    """The sample-average optimum ``base`` as the robust decision at ``radius``."""
    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    return replace(base, objective=base.objective + radius, model="wasserstein-robust")


def saa_decision(
    system: CombinatorialSystem, scenarios: ScenarioSet, force: bool = False
) -> DecisionReport:
    """Exact minimizer of the mean of per-scenario maxima.

    Best-first branch and bound; the mean of maxima over the elements forced
    so far is an admissible bound.  Ties are broken by the lexicographically
    smallest element set.
    """

    value, chosen, values = _minimize(system, _fold(system, scenarios), _mean, force)
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

    fold = _fold(system, scenarios, radius)
    value, chosen, values = _minimize(system, fold, _mean, force)
    return _shifted(_report(chosen, value, values, "saa"), radius)


def decision_worst_case_distribution(
    chosen: frozenset[int], scenarios: ScenarioSet, radius: float
) -> np.ndarray:
    """Support points of the worst case for a fixed subset.

    Per scenario, the cost of the subset's most expensive element (smallest
    index on ties) is raised by the radius; the subset's worst-case mean is
    then its empirical mean plus the radius, exactly.
    """

    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    cols = check_element_ids(chosen, scenarios.width)
    support = np.array(scenarios.costs, dtype=float)
    for k in range(scenarios.count):
        row = support[k]
        peak = max(cols, key=lambda j: (row[j], -j))
        row[peak] += radius
    return support


def calibrate_radius_decision(
    sample_count: int, sigma: float, epsilon: float, ground_n: int
) -> float:
    """Decision-side radius: sigma * sqrt(-3 log eps + 3 n log 2) / sqrt(N).

    ``ground_n = 0`` drops the union-bound term, leaving the per-solution
    confidence half-width sigma * sqrt(-3 log eps) / sqrt(N).
    """

    if sample_count < 1:
        raise DomainError("sample count must be at least 1")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if ground_n < 0:
        raise DomainError("ground size must be nonnegative")
    return sigma * math.sqrt(
        -3.0 * math.log(epsilon) + 3.0 * ground_n * math.log(2.0)
    ) / math.sqrt(sample_count)


def normal_approx_radius(per_scenario_values, z: float = 1.645) -> float:
    """Rule-of-thumb indifference radius: z * sqrt(variance / N).

    Approximates the one-sided confidence half-width of the empirical mean
    objective (population-variance convention).
    """

    values = list(per_scenario_values)
    mean = _mean(values)
    return z * math.sqrt(_population_variance(values, mean) / len(values))


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

    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
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
    objective is piecewise linear in beta with breakpoints at the v^k, so
    scanning the breakpoints is exact.  At d = 0 this is the sample mean, at
    d = 2 the worst scenario.
    """

    if not 0.0 <= tv_radius <= 2.0:
        raise DomainError("total-variation radius must lie in [0, 2]")
    aggregate = partial(_tv_objective, d=tv_radius)
    value, chosen, values = _minimize(system, _fold(system, scenarios), aggregate, force)
    return _report(chosen, value, values, "total-variation")


def _tv_objective(values, d: float) -> float:
    # every breakpoint at once; each shortfall is the fsum of its row of
    # (v - beta)_+, whose zeros leave the sum unchanged
    v = np.array(values)
    betas = np.unique(v)
    excess = np.maximum(v - betas[:, None], 0.0).tolist()
    shortfall = np.array([math.fsum(row) for row in excess]) / len(values)
    return float(((1.0 - d / 2.0) * betas + shortfall + d * v.max() / 2.0).min())


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
    value, chosen, values = _minimize(system, fold, _mean, force)
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


def calibrate_radius_topk_decision(
    sample_count: int,
    sigma: float,
    epsilon: float,
    ground_n: int,
    k: int,
    ground_order: float = 1.0,
) -> float:
    """Top-k decision radius: the plain decision radius times k^(-(r-1)/r)."""
    r = check_ground_order(ground_order)
    if not k >= 1:
        raise DomainError("k must be at least 1")
    return calibrate_radius_decision(sample_count, sigma, epsilon, ground_n) * k ** (
        -(r - 1.0) / r
    )


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
