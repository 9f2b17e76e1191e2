"""Worst-case expected bottleneck values over Wasserstein balls.

Under the order-infinity ball of radius theta, every empirical cost vector
may move at most theta in the ground r-norm, and the worst-case expectation
decomposes into one robust subproblem per scenario: find the largest level t
such that raising some blocker element's cheap costs up to t fits the budget,

    minimum over blocker elements y of  sum_{j in y} (t - c_j)_+^r  <=  theta^r.

Each scenario's empirical bottleneck value and dual witness do not depend on
the radius, so ``empirical_record`` computes them once (one
``bottleneck_value`` call per scenario) and every radius of a grid is quoted
from that record; ``quantify_robust`` is the one-radius case.  The level
search starts at the exact level of the empirical dual witness and asks the
minimum-weight blocker oracle for the cheapest lift to the current level,
moving to that element's exact level while it is higher; it stops on a
certificate, with the level attained by an explicit blocker element.
A per-element level is closed-form for r in {1, 2} and otherwise a Newton
root of the convex prefix budget, taken from the right, whose level meets
the budget as computed.
Finite transport orders minimize a univariate convex dual whose inner sups
come from each scenario's lift envelope, built once per radius from the same
record by Eisner-Severance discovery (exact at r = 1); the multiplier is
bisected to adjacent floats and the value is certified by an explicit
feasible distribution.  The top-k-sum generalization reports certified
brackets and, at tiny scale, the exact value; its SAA and its enumerated
blocker families are likewise computed once, by ``topk_record``, and
``quantify_topk`` prices one radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bottleneck import bottleneck_value, topk_blocker_enumerate, topk_sum_value
from .errors import (
    ConvergenceError,
    DomainError,
    EnumerationLimitError,
    InvariantViolationError,
    check_element_ids,
    check_ground_order,
    check_radius,
    exact_row_sums,
    exact_sum,
)
from .scenarios import ScenarioSet, require_matching_width
from .search import enumerate_members
from .systems import (
    BlockerElement,
    BottleneckResult,
    CombinatorialSystem,
    antichain_reduce,
    max_blocker_size,
    min_weight_blocker,
)

LEVEL_SEARCH_MAX_ITER = 200


@dataclass(frozen=True)
class WassersteinBall:
    """Order-infinity (essential-sup) transport ambiguity ball.

    ``ground_order`` is the r of the ground r-norm, ``radius`` the ball
    radius theta.  Finite transport orders are handled by
    ``quantify_robust_finite_order``.
    """

    radius: float
    ground_order: float = 1.0

    def __post_init__(self):
        check_radius(self.radius)
        check_ground_order(self.ground_order)


@dataclass(frozen=True)
class ScenarioRobustness:
    """Per-scenario robust level with its certifying blocker element.

    ``raised`` lists the elements of the witness whose cost is at most the
    level; moving exactly those costs up to the level spends the whole
    budget and attains the level.
    """

    level: float
    witness: BlockerElement
    raised: frozenset[int]


@dataclass(frozen=True)
class RobustQuote:
    """Result of robust uncertainty quantification over all scenarios."""

    value: float
    per_scenario: tuple[ScenarioRobustness, ...]
    worst_case_support: np.ndarray
    config: WassersteinBall
    sense: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "sense": self.sense,
            "config": {
                "radius": self.config.radius,
                "order": "inf",
                "ground_order": self.config.ground_order,
            },
            "per_scenario": [
                {
                    "level": rec.level,
                    "witness": sorted(rec.witness.elements),
                    "raised": sorted(rec.raised),
                }
                for rec in self.per_scenario
            ],
        }


@dataclass(frozen=True)
class GapReport:
    """Margins of the two-sided robust-versus-empirical gap bounds."""

    gap: float
    lower_bound: float
    upper_bound: float

    @property
    def lower_slack(self) -> float:
        return self.gap - self.lower_bound

    @property
    def upper_slack(self) -> float:
        return self.upper_bound - self.gap


# ---------------------------------------------------------------------------
# per-blocker-element level solves


def _screened_prefixes(c: np.ndarray, radius: float, budget: float, r: float) -> list[int]:
    """The prefix lengths i whose level can lie in [c_i, c_{i+1}).

    g(x) = sum_j (x - c_j)_+^r is nondecreasing and equals the prefix-i
    budget function on [c_i, c_{i+1}], so the prefix-i level lies there only
    if g(c_i) <= budget <= g(c_{i+1}).  The scan walks up the costs with
    running sums (one power sum per step for r outside {1, 2}) and stops at
    the first cost where g exceeds the budget.  The padding exceeds the
    rounding of the scan and of the per-prefix solves by orders of
    magnitude, so every prefix those solves accept is kept; an overflow to
    NaN keeps its prefix too.
    """

    costs = c.tolist()
    first, m = costs[0], len(costs)
    try:
        reach = (costs[-1] - first + radius) ** (r - 1.0)
    except OverflowError:
        reach = math.inf
    # a level error of ulps of the cost magnitude, or of the per-prefix root,
    # times the largest slope of g
    slack = budget + r * m * reach * (max(abs(first), abs(costs[-1])) + radius + 1.0)
    kept = []
    run = run_sq = 0.0
    fits = True
    for i in range(m):
        x = costs[i] - first
        if r == 1.0:
            g = i * x - run
        elif r == 2.0:
            g = i * x * x - 2.0 * x * run + run_sq
        else:
            g = float(np.sum((c[i] - c[:i]) ** r))
        run += x
        run_sq += x * x
        pad = 1e-9 * (slack + g)
        if i and fits and not g < budget - pad:
            kept.append(i)
        fits = not g > budget + pad
        if not fits:
            return kept
    return kept + [m]


def _lift_root(head: np.ndarray, radius: float, budget: float, r: float) -> float:
    """Largest t >= top = head[-1] with sum (t - head)^r at most the budget,
    for r outside {1, 2} and a budget above the sum at t = top.

    The sum is convex and increasing on [top, inf) and at least radius^r =
    budget at top + radius, so Newton's method from there falls monotonically
    onto the root.  The first iterate whose computed sum fits the budget is
    returned, so the level is attained; where rounding stalls an iterate
    above the root, it steps down one ulp, and where a step rounds below
    top, the iterate stops at top, whose sum fits the budget.
    """
    top = float(head[-1])
    t = top + radius
    for _ in range(LEVEL_SEARCH_MAX_ITER):
        gap = t - head
        excess = float(np.sum(gap**r)) - budget
        if excess <= 0.0:
            return t
        step = t - excess / (r * float(np.sum(gap ** (r - 1.0))))
        t = max(step, top) if step < t else float(np.nextafter(t, -math.inf))
    raise ConvergenceError(
        f"prefix level root stayed over its budget after {LEVEL_SEARCH_MAX_ITER} steps"
    )


def _prefix_level(sorted_costs: np.ndarray, radius: float, r: float) -> float:
    """Largest t with sum over {j : c_j <= t} of (t - c_j)^r within radius^r.

    Exactly one ascending prefix I satisfies c_{|I|} <= t(I) < c_{|I|+1}; the
    prefix solve is closed-form for r in {1, 2} and otherwise the Newton root
    of ``_lift_root``, which is attained: its prefix budget, as computed,
    is within radius^r.  The solve runs only on the prefixes a monotone
    screen keeps.  Where rounding puts several prefixes in range, the least
    level is kept, since a larger one can overshoot the budget.  Falls back
    to ``_bisected_level`` if rounding rejects every prefix.
    """

    c = np.asarray(sorted_costs, dtype=float)
    budget = radius**r
    m = len(c)
    prefixes = _screened_prefixes(c, radius, budget, r)
    # np.cumsum's running sums up to the last prefix kept, in Python floats,
    # which overflow to inf without a warning and fail the range test
    prefix_sum = list(accumulate(c[: max(prefixes, default=0)].tolist()))
    candidates = []
    for i in prefixes:
        top = c[i - 1]
        nxt = c[i] if i < m else math.inf
        if r == 1.0:
            t = (prefix_sum[i - 1] + radius) / i
        elif r == 2.0:
            mean = prefix_sum[i - 1] / i
            with np.errstate(over="ignore"):  # an infinite spread skips its prefix
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
    return _bisected_level(c, radius, budget, r)


def _bisected_level(c: np.ndarray, radius: float, budget: float, r: float) -> float:
    """``_prefix_level`` where rounding rejects every prefix: bisect the
    budget, monotone as computed, until the level fits and the next float up
    does not.  Lifting c_0 alone by twice the radius overspends."""
    lo, hi = float(c[0]), float(c[0]) + 2.0 * radius
    for _ in range(LEVEL_SEARCH_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        used = float(np.sum(np.clip(mid - c, 0.0, None) ** r))
        if used <= budget:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"prefix level bisection left a gap of {hi - lo!r} after "
        f"{LEVEL_SEARCH_MAX_ITER} steps"
    )


def element_level(costs, elements, radius: float, r: float = 1.0) -> float:
    """Robust level of one blocker element: raise its cheap costs to a
    common level within the r-norm budget and report that level."""
    check_radius(radius)
    r = check_ground_order(r)
    costs = np.asarray(costs, dtype=float)
    c = np.sort(costs[check_element_ids(elements, len(costs))])
    return _prefix_level(c, radius, r)


def l1_robust_level(sorted_costs, radius: float) -> float:
    """Closed-form robust level under the ground 1-norm.

    The level is (prefix sum + radius) / prefix length for the unique
    ascending prefix bracketed by its own largest cost and the next one;
    equivalently, the best average of the several smallest costs after
    spending the budget.
    """

    c = np.asarray(sorted_costs, dtype=float)
    if c.ndim != 1 or len(c) == 0:
        raise DomainError("expected a nonempty cost vector")
    if np.any(np.diff(c) < 0):
        raise DomainError("costs must be sorted ascending")
    check_radius(radius)
    return _prefix_level(c, radius, 1.0)


def _raise_cost(system, c: np.ndarray, t: float, r: float):
    """Cheapest r-norm budget that lifts some blocker element to level t."""
    with np.errstate(over="ignore"):  # a lift past the float range weighs inf
        weights = np.clip(t - c, 0.0, None) ** r
    return min_weight_blocker(system, weights)


def robust_scenario_value(
    system: CombinatorialSystem,
    costs,
    empirical: BottleneckResult,
    radius: float,
    ground_order: float = 1.0,
) -> ScenarioRobustness:
    """Single-scenario worst-case bottleneck level under an r-norm budget.

    ``empirical`` is ``bottleneck_value(system, costs)``, which no radius
    changes, so a sweep over radii computes it once per scenario; a result
    whose dual witness's least cost is not its value is refused.  From the
    exact level of its dual witness, each step asks the minimum-weight
    blocker oracle for the cheapest lift to the level and moves to that
    element's exact level while it is higher.  The stop is a certificate: a
    lift cheaper than radius^r reaches strictly higher, and one costing at
    least radius^r leaves every blocker element at or below the level, which
    is attained by the returned witness.  At radius 0 the level is the
    empirical value itself.
    """

    check_radius(radius)
    r = check_ground_order(ground_order)
    c = system.validated_costs(costs)
    witness = empirical.dual_witness
    if float(np.min(c[sorted(witness.elements)])) != empirical.value:
        raise DomainError("the empirical bottleneck result is not that of these costs")
    if radius == 0.0:
        raised = frozenset(j for j in witness.elements if c[j] <= empirical.value)
        return ScenarioRobustness(empirical.value, witness, raised)

    level = element_level(c, witness.elements, radius, r)
    calls = 0
    while level < empirical.value + radius:
        if calls == LEVEL_SEARCH_MAX_ITER:
            raise ConvergenceError(f"level search still rising after {calls} blocker calls")
        calls += 1
        _, lift = _raise_cost(system, c, level, r)
        cand = element_level(c, lift.elements, radius, r)
        if not cand > level:
            break
        level, witness = cand, lift
    raised = frozenset(j for j in witness.elements if c[j] <= level)
    return ScenarioRobustness(level, witness, raised)


def _oriented(x, sense: str):
    """Costs or values as the cost-sense solvers see them; an involution."""
    if sense == "cost":
        return x
    if sense == "capacity":
        return -x
    raise DomainError("sense must be 'cost' or 'capacity'")


@dataclass(frozen=True)
class EmpiricalRecord:
    """Each scenario's empirical bottleneck, which no radius changes.

    ``results[k]`` is ``bottleneck_value`` of scenario k's costs as the
    solvers see them (negated in the capacity sense), with the dual witness
    every level search starts from; ``values[k]`` is its value in the
    caller's sense and ``saa`` their mean, summed exactly.  Made once by
    ``empirical_record``; ``quote`` prices one radius from it, so a radius
    grid computes each bottleneck once.
    """

    system: CombinatorialSystem
    scenarios: ScenarioSet
    sense: str
    results: tuple[BottleneckResult, ...]
    values: tuple[float, ...]
    saa: float

    def quote(self, config: WassersteinBall) -> RobustQuote:
        """Worst-case expected bottleneck value over the order-infinity ball.

        Each scenario's level is raised or, in the capacity sense, lowered
        from its empirical result; contributions are accumulated with exact
        summation, making the value independent of scenario order bit for
        bit.
        """
        costs = self.scenarios.costs
        per: list[ScenarioRobustness] = []
        support = np.array(costs, dtype=float)
        for k, empirical in enumerate(self.results):
            rec = robust_scenario_value(
                self.system,
                _oriented(costs[k], self.sense),
                empirical,
                config.radius,
                config.ground_order,
            )
            level = _oriented(rec.level, self.sense)
            per.append(ScenarioRobustness(level, rec.witness, rec.raised))
            if rec.raised:
                support[k, sorted(rec.raised)] = level
        value = exact_sum(rec.level for rec in per) / self.scenarios.count
        support.setflags(write=False)
        return RobustQuote(value, tuple(per), support, config, self.sense)


def empirical_record(
    system: CombinatorialSystem, scenarios: ScenarioSet, sense: str = "cost"
) -> EmpiricalRecord:
    """One ``bottleneck_value`` call per scenario, kept for every radius.

    ``sense='cost'`` takes the adversary to raise costs of a min-max
    problem; ``sense='capacity'`` quantifies a max-min (widest-path style)
    objective, realized by negating costs and swapping the primal and dual
    roles, so the adversary lowers capacities.
    """
    require_matching_width(scenarios, system)
    results = tuple(
        bottleneck_value(system, _oriented(row, sense)) for row in scenarios.costs
    )
    values = tuple(_oriented(res.value, sense) for res in results)
    saa = exact_sum(values) / scenarios.count
    return EmpiricalRecord(system, scenarios, sense, results, values, saa)


def quantify_robust(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    config: WassersteinBall,
    sense: str = "cost",
) -> RobustQuote:
    """Worst-case expected bottleneck value over the order-infinity ball.

    The one-radius case of a grid: ``empirical_record(system, scenarios,
    sense).quote(config)``.  A sweep over radii should build the record once
    and quote each radius from it.
    """
    return empirical_record(system, scenarios, sense).quote(config)


def worst_case_distribution(quote: RobustQuote, scenarios: ScenarioSet) -> np.ndarray:
    """Support points of a worst-case distribution attaining the quote.

    Each scenario's raised elements are moved to the scenario level; all
    other costs keep their empirical values.  Only quotes computed in the
    cost sense are supported.  Returns a writable copy of the quote's
    ``worst_case_support``.
    """

    if quote.sense != "cost":
        raise DomainError("worst-case support is defined for the cost sense")
    if len(quote.per_scenario) != scenarios.count:
        raise DomainError("quote and scenario set disagree on the sample count")
    return np.array(quote.worst_case_support)


def saa_value(
    system: CombinatorialSystem, scenarios: ScenarioSet, sense: str = "cost"
) -> float:
    """Empirical (sample-average) expected bottleneck value: the ``saa`` of
    ``empirical_record(system, scenarios, sense)``."""
    return empirical_record(system, scenarios, sense).saa


def check_gap_bounds(
    robust_value: float,
    empirical_value: float,
    radius: float,
    ground_order: float,
    blocker_size: int,
    sense: str = "cost",
) -> GapReport:
    """Verify radius / size^(1/r) <= gap <= radius with 1e-9 slack.

    ``blocker_size`` is the largest blocker-element cardinality (an upper
    bound keeps the check valid).  Raises on violation.
    """

    check_radius(radius)
    r = check_ground_order(ground_order)
    if not blocker_size >= 1:
        raise DomainError("blocker size must be at least 1")
    gap = _oriented(robust_value - empirical_value, sense)
    lower = radius / blocker_size ** (1.0 / r)
    report = GapReport(gap=gap, lower_bound=lower, upper_bound=radius)
    if gap < lower - 1e-9 or gap > radius + 1e-9:
        raise InvariantViolationError(
            f"robust-empirical gap {gap} escapes [{lower}, {radius}]"
        )
    return report


# ---------------------------------------------------------------------------
# finite transport order


def quantify_robust_finite_order(
    record: EmpiricalRecord,
    radius: float,
    order: float,
    ground_order: float = 1.0,
) -> tuple[float, float]:
    """Worst-case expected bottleneck value under a finite transport order.

    ``record`` is the cost-sense ``empirical_record(system, scenarios)``; each
    scenario's lift model starts from its empirical result, so a radius grid
    computes each bottleneck once.  Minimizes the convex dual function
    phi(lam) = lam * theta^q + mean_k sup_t [t - lam * g_k(t)^(q/r)]
    over lam >= 0.  Each scenario's lift model is built once (exactly at
    r = 1, by Eisner-Severance discovery of the concave piecewise-linear
    g_k); lam is bisected on the sign of the subgradient
    theta^q - mean_k g_k(t_k)^(q/r) until its bracket is two adjacent floats.
    The answer is certified: the returned upper bound phi(lam) is within
    1e-12 relative of the expected bottleneck of an explicit feasible
    distribution mixed from the maximizers at the bracket's ends;
    otherwise ``ConvergenceError`` is raised.  At r != 1 the models are
    refined until the bracket closes.  At radius 0 the value is the record's
    SAA.  Returns (value, multiplier).
    """

    if record.sense != "cost":
        raise DomainError("finite transport orders support the cost sense only")
    check_radius(radius)
    if not 1 <= order < math.inf:
        raise DomainError("transport order must be finite and at least 1")
    r = check_ground_order(ground_order)
    if radius == 0.0:
        return record.saa, math.inf
    # loaded on first use, like the family level's solvers: compiling it at
    # package import would raise the peak memory of every other run
    from ._finite import finite_order_bracket

    bracket = finite_order_bracket(record, radius, float(order), r)
    return bracket.upper, bracket.multiplier


# ---------------------------------------------------------------------------
# top-k-sum quantification


@dataclass(frozen=True)
class TopkQuote:
    """Top-k robust quantification: certified bracket, optional exact value."""

    saa: float
    lower: float
    upper: float
    exact: float | None
    downgraded: bool
    union_size: int


def _family_level(c: np.ndarray, family, radius: float, r: float) -> float:
    """max over feasible lifts of the family's cheapest member-subset sum.

    ``family`` is a set of element subsets; the lift beta >= 0 lives on the
    family union with r-norm at most the radius.  Families of singletons
    reduce to the closed-form element level.  Otherwise the program

        maximize min over s of (b_s + a_s . beta)   (b_s the subset's cost sum)

    is solved exactly: for r = 1 by a dense simplex, whose optimal basis
    certifies the value; for r > 1 through its conic dual, the minimum over
    the simplex of lambda . b + radius * ||A^T lambda||_{r*}, whose value
    certifies the level within ``_family.FAMILY_LEVEL_GAP``.  The returned
    level is attained by an explicit feasible lift.
    """

    subsets = [sorted(s) for s in family]
    if all(len(s) == 1 for s in subsets):
        return element_level(c, {s[0] for s in subsets}, radius, r)
    union = sorted(set().union(*subsets))
    base = exact_row_sums([c[j] for j in s] for s in subsets)
    if radius == 0.0:
        return min(base)
    pos = {j: i for i, j in enumerate(union)}
    rows = [[pos[j] for j in s] for s in subsets]
    A = np.zeros((len(rows), len(union)))
    for i, row in enumerate(rows):
        A[i, row] = 1.0

    def level(beta: np.ndarray) -> float:
        # the least subset sum under an explicit lift, scaled into the ball
        beta = np.clip(beta, 0.0, None)
        if r == 1.0:
            norm = exact_sum(beta.tolist())
        else:
            norm = float(np.sum(beta**r)) ** (1.0 / r)
        if norm > radius:
            beta = beta * (radius / norm)
        lift = beta.tolist()
        return min(exact_row_sums([b, *(lift[j] for j in row)] for row, b in zip(rows, base)))

    # loaded on the first family level: compiling the solvers at package
    # import would raise the peak memory of every run that never needs them
    from ._family import dual_level, simplex_lift

    if r == 1.0:
        return level(simplex_lift(A, np.array(base) - min(base), radius))
    return dual_level(A, np.array(base), radius, r, level)


@dataclass(frozen=True)
class TopkRecord:
    """The part of a top-k quote that no radius or ground order changes.

    ``saa`` is the mean over scenarios of the least top-k sum (one branch
    and bound each); ``families`` are the top-k blocker families of the
    system's members, or None where enumeration is refused; ``union_size``
    is the largest family union, or the ground size where refused.  Made
    once by ``topk_record``; ``quantify_topk`` prices one radius from it.
    """

    system: CombinatorialSystem
    scenarios: ScenarioSet
    k: int
    saa: float
    families: list | None
    union_size: int


def topk_record(
    system: CombinatorialSystem, scenarios: ScenarioSet, k: int, force: bool = False
) -> TopkRecord:
    """The SAA top-k sum and the enumerated top-k blocker families."""
    require_matching_width(scenarios, system)
    sums = [topk_sum_value(system, costs, k, force=force)[0] for costs in scenarios.costs]
    saa = exact_sum(sums) / scenarios.count
    try:
        clutter = antichain_reduce(enumerate_members(system, force=force))
        families = topk_blocker_enumerate(clutter, k)
    except EnumerationLimitError:
        families = None
    union_size = system.ground.n
    if families is not None:
        union_size = max(len(frozenset().union(*fam)) for fam in families)
    return TopkRecord(system, scenarios, k, saa, families, union_size)


def quantify_topk(record: TopkRecord, radius: float, ground_order: float = 1.0) -> TopkQuote:
    """Robust expected top-k-sum value: bracket always, exact where tiny.

    The bracket is [saa + k * radius / U^(1/r), saa + k^((r-1)/r) * radius]
    with U the record's ``union_size``.  The exact value is, per scenario,
    the best family level over the enumerated top-k blocker; where the
    record holds no families the quote is downgraded to the bracket.
    """

    check_radius(radius)
    r = check_ground_order(ground_order)
    saa, k, families = record.saa, record.k, record.families
    exact_value = None
    if families is not None:
        totals = [
            max(_family_level(c, fam, radius, r) for fam in families)
            for c in record.scenarios.costs
        ]
        exact_value = exact_sum(totals) / record.scenarios.count
    lower = saa + k * radius / record.union_size ** (1.0 / r)
    upper = saa + k ** ((r - 1.0) / r) * radius
    return TopkQuote(
        saa=saa,
        lower=lower,
        upper=upper,
        exact=exact_value,
        downgraded=families is None,
        union_size=record.union_size,
    )


def structure_constant(system: CombinatorialSystem, ground_order: float = 1.0) -> float:
    """max blocker size to the power 1/r (upper bound where not exact)."""
    r = check_ground_order(ground_order)
    size, _ = max_blocker_size(system)
    return size ** (1.0 / r)
