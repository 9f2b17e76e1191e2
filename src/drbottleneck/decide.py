"""Robust decision models over empirical scenarios.

The sample-average decision minimizes the mean of per-scenario maxima.  Its
worst-case counterpart over the order-infinity Wasserstein ball keeps the
same minimizer and shifts the value by exactly the radius, which motivates
two refinements implemented here: the variance-robust model (least sampling
variance among near-optimal subsets) and the total-variation model.  Top-k
variants score subsets by the per-scenario sum of their k largest costs.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DECISION_OBJECTIVE, DomainError, InvariantViolationError, check_count, check_element_ids,
    check_ground_order, check_radius, exact_mean, exact_row_sums, exact_sum, exact_variance,
    overflow_error,
)
from .scenarios import ScenarioSet, require_matching_width
from ._blocks import padded_elements
from .search import minimize_members, walk_blocks
from .systems import AssignmentSystem, CombinatorialSystem, min_member_size

_FLOAT_MAX = sys.float_info.max


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
    """Per-scenario maxima of a subset's costs as an N-vector, all -inf for the
    empty set.  ``grow`` grows the parents' vectors into the block of their
    children's, one row each, by one gather and one maximum, from the flat
    index ``padded_elements`` gives.  A maximum is exact, so the order the
    elements arrive in does not change it.

    ``screens`` and ``lookaheads`` sum such vectors in floating point, each
    within ``pad`` of the exact sum (see the comment above ``_mean_pad``),
    and ``keys`` turns them into the search's keys for partial states; an
    infinite ``pad`` leaves only the exact path.  ``k`` is the number of
    largest costs each value sums.
    """

    k = 1

    def __init__(self, costs: np.ndarray, pad: float | None = None):
        # one contiguous row per element, so a gather copies whole rows, then
        # a row of -inf: the index that pads the lists of children adding
        # fewer elements than their siblings
        self.blank = costs.shape[1]
        self.columns = np.full((self.blank + 1, costs.shape[0]), -math.inf)
        self.columns[:-1] = costs.T
        self.ones = np.ones(costs.shape[0])
        self.pad = _mean_pad(costs) if pad is None else pad

    def grow(self, acc, index, width):
        block = self.columns.take(index, axis=0)
        if width > 1:
            block = np.maximum.reduce(block.reshape(-1, width, block.shape[1]), axis=1)
        if acc is not None:
            np.maximum(block, acc, out=block)
        return block

    def values(self, block) -> np.ndarray:
        """Each child's per-scenario values, one row each."""
        return block

    def score(self, elements) -> list[float]:
        return self.values(self.grow(None, *padded_elements([elements], self.blank)))[0].tolist()

    def screens(self, block) -> np.ndarray:
        """N times the mean of each row, screened: one matrix-vector product."""
        return block @ self.ones

    def lookaheads(self, block, groups) -> np.ndarray:
        """For each child, the max over its groups of the least screened sum of
        max(acc, column) over the group's cells; less the pad, it bounds N
        times the mean of every completion that takes a cell of each group.
        ``groups`` is the (children, groups, cells) block of the children."""
        # gathered as (cells, groups, children, N), so both reductions run
        # over leading axes
        cells = self.columns.take(groups.transpose(2, 1, 0), axis=0)
        np.maximum(cells, block, out=cells)
        sums = (cells.reshape(-1, len(self.ones)) @ self.ones).reshape(cells.shape[:3])
        return np.maximum.reduce(np.minimum.reduce(sums, axis=0), axis=0)

    def keys(self, block, groups) -> np.ndarray:
        """Each child's key as a partial state, fl(fl(max(screen, lookahead)
        - pad) / N), at most the exact mean of every completion (the comment
        above ``_mean_pad``); ``groups`` is as ``lookaheads`` takes it, or
        None for the screen alone."""
        sums = self.screens(block)
        if groups is not None:
            np.maximum(sums, self.lookaheads(block, groups), out=sums)
        return (sums - self.pad) / len(self.ones)


# The float screen of the maximum fold.  With N scenarios, M = max |cost| and
# unit roundoff w = 2**-53, a dot product with a ones vector adds N terms of
# magnitude at most M in some order (BLAS may block or pair them, and a
# matrix-vector product may order each row differently); every order errs by
# at most (N - 1) w NM to first order, the products by one are exact, and
# additions lose nothing to underflow.  So a screened sum s and the exact
# sum S of the same maxima differ by at most N^2 wM.  The exact mean is
# V = fl(fl(S) / N), with |fl(S) - S| <= wNM.  Rounding is monotone, so for a
# float L, fl(x) <= L whenever x <= L; hence V <= L once fl(S) <= NL, and
# V > L once fl(S) >= N succ(L), where succ(L) - L <= 2w|L| + 2**-1074.
# Lookahead: a completion C takes a cell e of each group and its maxima are at
# least max(acc, column e) in every scenario, so S_C >= S_e; with pad >= N^2 wM
# the lookahead less the pad is at most S_C, so fl(lookahead - pad) <= fl(S_C)
# and fl(fl(lookahead - pad) / N) <= V_C.  The screen is the lookahead of no
# groups: it lies within N^2 wM of the state's own exact sum, which is at most
# S_C.  So fl(fl(max(screen, lookahead) - pad) / N) <= V_C, and the best-first
# search keys a partial state by it, summing only complete members exactly.
# Band test against T = fl(NL), which errs by wN|L|: fl(x - T) > slack gives
# x - T > slack, and then fl(S) (or fl(S_C)) >= N succ(L) when
# slack >= (N^2 + N) wM + 3wN|L| + N 2**-1074; fl(s - T) < -slack gives
# fl(S) <= NL by the same count.  The pad is (N^2 M + N 2**-1020) 2**-50, four
# times the first term and sixteen times the last, and the band adds
# |T| 2**-50 for the |L| term; the margins cover the rounding of the pad, the
# slack and the comparisons.  A finite pad needs N^2 M finite, so no screened
# sum (at most NM) overflows; an infinite pad or slack leaves only the exact
# path.
def _mean_pad(costs: np.ndarray) -> float:
    n = costs.shape[0]
    return (n * n * float(np.abs(costs).max()) + n * 2.0**-1020) * 2.0**-50


class _TopK(_Maxima):
    """Per-scenario sums of a subset's k largest costs, folded into the N-by-k
    block of those costs, rows ascending; a block of children stacks one such
    block per child.

    A set of fewer than k elements fills its block with the scenario's least
    cost, where it is negative (else 0), once for each element it lacks: no
    superset scores lower, so the value of a partial set is an admissible
    bound.  That floor is at most every cost, so a sort keeps it below the
    costs a set takes, and above the -inf rows that pad a gather.
    """

    def __init__(self, costs: np.ndarray, k: int):
        super().__init__(costs, pad=math.inf)  # no screen or lookahead
        self.k = k
        self.empty = np.repeat(np.minimum(costs.min(axis=1, keepdims=True), 0.0), k, axis=1)

    def scenario(self, i: int) -> _TopK:
        """The fold of scenario ``i`` alone, on views of this fold's arrays."""
        fold = copy.copy(self)
        fold.columns, fold.ones, fold.empty = (
            self.columns[:, i:i + 1], self.ones[i:i + 1], self.empty[i:i + 1]
        )
        return fold

    def grow(self, acc, index, width):
        block = self.columns.take(index, axis=0).reshape(-1, width, len(self.ones))
        grown = np.empty((len(block), len(self.ones), self.k + width))
        grown[:, :, :self.k] = self.empty if acc is None else acc
        grown[:, :, self.k:] = block.transpose(0, 2, 1)
        grown.sort(axis=2)
        return grown[:, :, -self.k:]

    def values(self, block) -> np.ndarray:
        # one flat list, summed a slice at a time: a list per row would put a
        # large block's rows all in the collector's care at once
        flat, k = block.ravel().tolist(), self.k
        rows = (flat[i:i + k] for i in range(0, len(flat), k))
        return np.array(exact_row_sums(rows, DECISION_OBJECTIVE)).reshape(block.shape[:2])


#: The exact score of each row of a block of values; total variation also
#: takes ``partial_rows``, the mask of rows it may key by a bound instead.
Aggregate = Callable[..., list[float]]


def _means(values: np.ndarray) -> list[float]:
    """The exact mean of each row of ``values``."""
    n = values.shape[1]
    return [total / n for total in exact_row_sums(values.tolist(), DECISION_OBJECTIVE)]


def _fold(
    system: CombinatorialSystem, scenarios: ScenarioSet, radius: float = 0.0,
    k: int | None = None, ground_order: float = 1.0,
) -> _Maxima:
    """The checks every decision model shares, then its per-scenario fold: the
    maximum, or with ``k`` the sum of the k largest (at k = 1, the maximum)."""
    check_radius(radius)
    check_ground_order(ground_order)
    require_matching_width(scenarios, system)
    if k is not None:
        k = check_count(k, "k", most=min_member_size(system))
    if k is None or k == 1:
        return _Maxima(scenarios.costs)
    return _TopK(scenarios.costs, k)


def _callback(score, fill):
    """A search callback that scores a block of children with ``score(accs,
    children)``.  Two kinds of child get ``fill``, a value that bounds, or
    keeps, every member below them: the empty set, held only by the root and
    a tree's first skip branches, unscored (elements only grow along a branch,
    so a nonempty parent's children are nonempty); and a partial state whose
    score leaves the float range, found a child at a time once the block's
    score is refused.  A complete member's score past the range is refused."""

    def scored(accs, children):
        try:
            return score(accs, children)
        except DomainError:  # an overflow: find the children it came from
            pass
        scores = []
        for i, complete in enumerate(children.complete().tolist()):
            try:
                scores.extend(score(accs[i:i + 1], children.take([i])))
            except DomainError:
                if complete:
                    raise
                scores.append(fill)
        return scores

    def callback(accs, children):
        empty = children.empty()
        if empty is None:
            return scored(accs, children)
        kept = np.flatnonzero(~empty)
        values = iter(scored(accs[kept], children.take(kept)) if kept.size else ())
        return [fill if e else next(values) for e in empty.tolist()]

    return callback


def _minimize(system: CombinatorialSystem, fold: _Maxima, aggregate: Aggregate, force: bool):
    """``(value, chosen, scores)`` of the subset of least aggregate score; ties go
    to the lexicographically smallest set.  A complete member's key is its
    exact score, and a partial state's a bound on every completion's, so the
    champion is the same: the mean fold's, where its pad is finite, is
    fl(fl(max(screen, lookahead) - pad) / N), with the lookahead over the
    state's completion groups (the comment above ``_mean_pad``), and total
    variation's is its least breakpoint screen less the padding (the comment
    above ``_tv_breakpoints``).  The top-k fold, and a mean fold whose pad is
    infinite, key a partial state by its exact score, which is monotone.  The
    empty set, and a partial state whose score leaves the float range, key at
    -inf."""

    def bound(block, children) -> list[float]:
        values = fold.values(block)
        if aggregate is not _means:  # total variation, with its own screen
            return aggregate(values, partial_rows=~children.complete())
        if fold.pad == math.inf:  # no screen: the exact mean
            return _means(values)
        keys = fold.keys(block, children.groups())
        complete = np.flatnonzero(children.complete())
        if complete.size:
            keys[complete] = _means(values[complete])
        return keys.tolist()

    value, chosen = minimize_members(system, _callback(bound, -math.inf), force, grow=fold.grow)
    return value, chosen, fold.score(chosen)


def _radius_shift(radius: float, k: int, ground_order: float) -> float:
    """k^((r-1)/r) times the radius: how far the ball lifts a top-k objective."""
    return k ** ((ground_order - 1.0) / ground_order) * radius


def _band(system: CombinatorialSystem, fold: _Maxima, threshold: float):
    """Members whose mean score is at most ``threshold``, in no fixed order.

    Yields ``(member, values, mean)``.  The block walk prunes on the mean
    score, which is monotone; since monotone bounds can invert by an ulp on
    partial sets, the prune keeps a tolerance band above the threshold.  It
    prunes where the screen, or the lookahead over the completion groups,
    clears the limit by the pad, keeps where the screen lies below it by the
    pad, and takes the exact mean only in between.  The empty set, held only
    by the root and a tree's first skip branches, is kept unscored.
    """

    limit = threshold + 1e-12 * (1.0 + abs(threshold))
    bar = len(fold.ones) * limit
    slack = fold.pad + abs(bar) * 2.0**-50

    def cuts(block, children) -> np.ndarray:
        if slack == math.inf:
            return np.array(_means(fold.values(block))) > limit
        groups = children.groups()
        with np.errstate(over="ignore"):  # a difference past the float range is inf
            screens = fold.screens(block) - bar
            aheads = screens if groups is None else fold.lookaheads(block, groups) - bar
        cut = (screens > slack) | (aheads > slack)
        unsure = np.flatnonzero(~cut & (screens >= -slack))
        if unsure.size:
            cut[unsure] = np.array(_means(fold.values(block[unsure]))) > limit
        return cut

    for members, block in walk_blocks(system, _callback(cuts, False), fold.grow):
        values = fold.values(block)
        for member, row, mean in zip(members, values.tolist(), _means(values)):
            if mean <= threshold:
                yield member, row, mean


def _least_variance_in_band(
    system: CombinatorialSystem, fold: _Maxima, shift: float, force: bool, model: str
) -> DecisionReport:
    """The least population variance among subsets whose mean score is within
    ``shift`` of the sample-average optimum, ties lexicographic."""
    saa_value, _, _ = _minimize(system, fold, _means, force)
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

    value, chosen, values = _minimize(system, _fold(system, scenarios), _means, force)
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
    aggregate = partial(_tv_objectives, d=tv_radius)
    value, chosen, values = _minimize(system, _fold(system, scenarios), aggregate, force)
    return _report(chosen, value, values, "total-variation")


# The total-variation objective f(beta) = ((1 - d/2) beta + s(beta)/n) + d/2 max,
# with s(beta) the sum of (v - beta)_+, is scored exactly by fsum-ing s at each
# breakpoint.  A float screen scores every breakpoint u_j of the ascending
# values u at once, s_j = S_j - (n - j) u_j with suffix sums S_j, and only the
# breakpoints it keeps are scored exactly.  The padding, with M = max |u| and
# unit roundoff w = 2**-53, to first order in w: the outer terms (1 - d/2) u_j
# and d/2 max are the same floats on both sides.  The screen's suffix sum errs
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
# comparison.  Every quantity on either side is at most 2nM in magnitude, so
# no row whose M is at most the largest float over 4n + 128 overflows on
# either side; every other row is screened as zeros, and so keeps every
# breakpoint.  The sums and reductions run along rows only, so a row screens
# the same in any block.
# The key of a partial state is its row's least screen less the padding.  The
# exact side lies within 15wM + 2**-1075 of the true f at each breakpoint (the
# roundings above and of its two products), and the true objective, the min
# over beta of f, is attained at a breakpoint; so the least screen is at most
# the true objective plus B + 15wM, and the key, less a padding of
# 16 (n + 32) wM and rounded, at most the true objective less 15 (n + 30) wM.
# A completion C has values at least the row's in every scenario, and f is
# monotone, so its true objective is no lower; its exact objective lies within
# 15 wM_C + 2**-1075 of that, with M_C its own largest magnitude.  If
# M_C <= 2M the padding left covers it.  Else C's largest value is M_C, above
# the row's largest by more than M_C / 2; the objective is (1 - d/2) times the
# mean of the largest (1 - d/2) share of the values plus d/2 times the
# largest, which weighs the largest by at least 1/n, so C's objective is more
# than M_C / (2n) above the row's, which covers it too.
def _tv_breakpoints(u: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ascending values ``u``: a mask of the breakpoints whose
    screened objective lies within the proven padding of the row's least, the
    exact minimizer among them (tied breakpoints score the same exactly); and
    the least less the padding, a bound on the exact objective of the row and
    of every row at least as large in each value, or NaN for a row too large
    to screen."""
    n = u.shape[1]
    top = np.maximum(-u[:, :1], u[:, -1:])
    fits = top <= _FLOAT_MAX / (4.0 * n + 128.0)  # the largest M a row is screened at
    if not fits.all():
        u = np.where(fits, u, 0.0)
    screened = np.cumsum(u[:, ::-1], axis=1)[:, ::-1]
    screened -= np.arange(n, 0, -1) * u
    screened /= n
    screened += (1.0 - d / 2.0) * u
    screened += d / 2.0 * u[:, -1:]
    least = np.minimum.reduce(screened, axis=1, keepdims=True)
    padding = top * ((n + 32) * 2.0**-49) + 2.0**-1070
    return screened <= least + padding, np.where(fits, least - padding, math.nan)[:, 0]


def _tv_objectives(
    values: np.ndarray, d: float, partial_rows: np.ndarray | None = None
) -> list[float]:
    """The total-variation objective of each row of ``values``, from one
    sorted screen of the block; only the breakpoints each row keeps are summed
    exactly.  A kept breakpoint's shortfall is the fsum of (v - beta)_+ over
    the values above it; the zeros of its ties leave the sum unchanged.  A row
    that ``partial_rows`` marks, where the screen reaches it, gets its bound
    from ``_tv_breakpoints`` instead and is not summed."""
    u = np.sort(values, axis=1)
    kept, floors = _tv_breakpoints(u, d)
    keyed = np.zeros(len(u), dtype=bool) if partial_rows is None else partial_rows
    keyed = keyed & ~np.isnan(floors)
    best = np.where(keyed, floors, math.inf).tolist()
    exact = np.flatnonzero(~keyed)
    if not exact.size:
        return best
    rows, exact = u[exact].tolist(), exact.tolist()
    if any(row[-1] - row[0] == math.inf for row in rows):  # a difference past the float range
        raise overflow_error(DECISION_OBJECTIVE)
    n, lean, half = len(rows[0]), 1.0 - d / 2.0, d / 2.0
    for i, j in zip(*(index.tolist() for index in np.nonzero(kept[exact]))):
        row, r = rows[i], exact[i]
        shortfall = exact_sum([v - row[j] for v in row[j:]], DECISION_OBJECTIVE)
        best[r] = min(best[r], lean * row[j] + shortfall / n + half * row[-1])
    return best


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
    value, chosen, values = _minimize(system, fold, _means, force)
    shift = _radius_shift(radius, fold.k, ground_order)
    return _report(chosen, value + shift, values, "topk-robust")


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
    shift = _radius_shift(radius, fold.k, ground_order)
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
