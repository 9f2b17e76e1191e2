"""Worst-case expected bottleneck values over Wasserstein balls.

Under the order-infinity ball of radius theta, every empirical cost vector
may move at most theta in the ground r-norm, and the worst-case expectation
decomposes into one robust subproblem per scenario: find the largest level t
such that raising some blocker element's cheap costs up to t fits the budget,

    minimum over blocker elements y of  sum_{j in y} (t - c_j)_+^r  <=  theta^r.

The level search brackets t between the empirical bottleneck value and that
value plus theta, and tightens the bracket with exact per-element level
solves, so the returned level is attained by an explicit blocker element.
A per-element level is closed-form for r in {1, 2} and otherwise a Newton
root of the convex prefix budget, taken from the right, whose level meets
the budget as computed.
Finite transport orders are handled by a univariate convex dual search; the
top-k-sum generalization reports certified brackets and, at tiny scale, the
exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import bottleneck_value, topk_blocker_enumerate, topk_sum_value
from .errors import (
    ConvergenceError,
    DomainError,
    EnumerationLimitError,
    InvariantViolationError,
    check_element_ids,
    check_ground_order,
)
from .scenarios import ScenarioSet, require_matching_width
from .search import enumerate_members
from .systems import (
    BlockerElement,
    CombinatorialSystem,
    antichain_reduce,
    max_blocker_size,
    min_weight_blocker,
)

LEVEL_SEARCH_MAX_ITER = 200
MULTIPLIER_SEARCH_MAX_EVALS = 200


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
        if not self.radius >= 0:
            raise DomainError("radius must be nonnegative")
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
class RadiusSpec:
    """A calibrated ball radius with the quantities it was derived from."""

    sample_count: int
    sigma: float
    epsilon: float
    structure_constant: float
    ground_order: float
    theta: float


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
    above the root, it steps down one ulp.
    """
    t = float(head[-1]) + radius
    for _ in range(LEVEL_SEARCH_MAX_ITER):
        gap = t - head
        excess = float(np.sum(gap**r)) - budget
        if excess <= 0.0:
            return t
        step = t - excess / (r * float(np.sum(gap ** (r - 1.0))))
        t = step if step < t else float(np.nextafter(t, -math.inf))
    raise ConvergenceError(
        f"prefix level root stayed over its budget after {LEVEL_SEARCH_MAX_ITER} steps"
    )


def _prefix_level(sorted_costs: np.ndarray, radius: float, r: float) -> float:
    """Largest t with sum over {j : c_j <= t} of (t - c_j)^r within radius^r.

    Exactly one ascending prefix I satisfies c_{|I|} <= t(I) < c_{|I|+1}; the
    prefix solve is closed-form for r in {1, 2} and otherwise the Newton root
    of ``_lift_root``, which is attained: its prefix budget, as computed,
    is within radius^r.  The solve runs only on the prefixes a monotone
    screen keeps.  Falls back to bisection if rounding rejects every prefix.
    """

    c = np.asarray(sorted_costs, dtype=float)
    budget = radius**r
    m = len(c)
    prefix_sum = np.cumsum(c)
    candidates = []
    for i in _screened_prefixes(c, radius, budget, r):
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
        return max(candidates)
    # rounding rejected all prefixes; bisect the monotone budget function
    lo, hi = float(c[0]), float(c[0]) + radius
    for _ in range(LEVEL_SEARCH_MAX_ITER):
        mid = 0.5 * (lo + hi)
        used = float(np.sum(np.clip(mid - c, 0.0, None) ** r))
        if used <= budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + abs(hi)):
            break
    else:
        raise ConvergenceError(
            f"prefix level bisection left a gap of {hi - lo!r} after "
            f"{LEVEL_SEARCH_MAX_ITER} steps"
        )
    return lo


def element_level(costs, elements, radius: float, r: float = 1.0) -> float:
    """Robust level of one blocker element: raise its cheap costs to a
    common level within the r-norm budget and report that level."""
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
    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    return _prefix_level(c, radius, 1.0)


def _raise_cost(system, c: np.ndarray, t: float, r: float):
    """Cheapest r-norm budget that lifts some blocker element to level t."""
    weights = np.clip(t - c, 0.0, None) ** r
    return min_weight_blocker(system, weights)


def robust_scenario_value(
    system: CombinatorialSystem, costs, radius: float, ground_order: float = 1.0
) -> ScenarioRobustness:
    """Single-scenario worst-case bottleneck level under an r-norm budget.

    Bisects the level t over [Z, Z + radius] (Z the empirical bottleneck
    value), querying the minimum-weight blocker oracle at each probe; every
    probed blocker element also contributes its exact closed-form level, so
    the search converges in a handful of oracle calls and returns an
    attained level.
    """

    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    r = check_ground_order(ground_order)
    c = np.asarray(costs, dtype=float)
    base = bottleneck_value(system, c)
    if radius == 0.0:
        raised = frozenset(
            j for j in base.dual_witness.elements if c[j] <= base.value
        )
        return ScenarioRobustness(base.value, base.dual_witness, raised)

    budget = radius**r
    tol = 1e-13 * (1.0 + float(np.max(np.abs(c))) + radius)
    best_level = element_level(c, base.dual_witness.elements, radius, r)
    best_witness = base.dual_witness
    hi = base.value + radius
    for _ in range(LEVEL_SEARCH_MAX_ITER):
        if hi - best_level <= tol:
            break
        mid = 0.5 * (best_level + hi)
        used, witness = _raise_cost(system, c, mid, r)
        cand = element_level(c, witness.elements, radius, r)
        if cand > best_level:
            best_level, best_witness = cand, witness
        if used > budget:
            hi = mid
    else:
        if hi - best_level > tol:
            raise ConvergenceError(
                f"level search left a gap of {hi - best_level!r} above the tolerance "
                f"{tol!r} after {LEVEL_SEARCH_MAX_ITER} blocker calls"
            )
    raised = frozenset(j for j in best_witness.elements if c[j] <= best_level)
    return ScenarioRobustness(best_level, best_witness, raised)


def _oriented(costs: np.ndarray, sense: str) -> np.ndarray:
    if sense == "cost":
        return costs
    if sense == "capacity":
        return -costs
    raise DomainError("sense must be 'cost' or 'capacity'")


def quantify_robust(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    config: WassersteinBall,
    sense: str = "cost",
) -> RobustQuote:
    """Worst-case expected bottleneck value over the order-infinity ball.

    ``sense='cost'`` takes the adversary to raise costs of a min-max
    problem; ``sense='capacity'`` quantifies a max-min (widest-path style)
    objective, realized by negating costs and swapping the primal and dual
    roles, so the adversary lowers capacities.  Scenario contributions are
    accumulated with exact summation, making the value independent of
    scenario order bit for bit.
    """

    require_matching_width(scenarios, system)
    per: list[ScenarioRobustness] = []
    support = np.array(scenarios.costs, dtype=float)
    for k in range(scenarios.count):
        oriented = _oriented(scenarios.costs[k], sense)
        rec = robust_scenario_value(
            system, oriented, config.radius, config.ground_order
        )
        level = rec.level if sense == "cost" else -rec.level
        per.append(ScenarioRobustness(level, rec.witness, rec.raised))
        if rec.raised:
            support[k, sorted(rec.raised)] = level
    value = math.fsum(rec.level for rec in per) / scenarios.count
    support.setflags(write=False)
    return RobustQuote(value, tuple(per), support, config, sense)


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


def scenario_bottlenecks(
    system: CombinatorialSystem, scenarios: ScenarioSet, sense: str = "cost"
) -> list[float]:
    """Empirical bottleneck value of each scenario, in the given sense."""
    values = []
    for k in range(scenarios.count):
        z = bottleneck_value(system, _oriented(scenarios.costs[k], sense)).value
        values.append(z if sense == "cost" else -z)
    return values


def saa_value(
    system: CombinatorialSystem, scenarios: ScenarioSet, sense: str = "cost"
) -> float:
    """Empirical (sample-average) expected bottleneck value."""
    require_matching_width(scenarios, system)
    return math.fsum(scenario_bottlenecks(system, scenarios, sense)) / scenarios.count


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

    r = check_ground_order(ground_order)
    if not blocker_size >= 1:
        raise DomainError("blocker size must be at least 1")
    gap = robust_value - empirical_value
    if sense == "capacity":
        gap = empirical_value - robust_value
    elif sense != "cost":
        raise DomainError("sense must be 'cost' or 'capacity'")
    lower = radius / blocker_size ** (1.0 / r)
    report = GapReport(gap=gap, lower_bound=lower, upper_bound=radius)
    if gap < lower - 1e-9 or gap > radius + 1e-9:
        raise InvariantViolationError(
            f"robust-empirical gap {gap} escapes [{lower}, {radius}]"
        )
    return report


def calibrate_radius(
    sample_count: int,
    sigma: float,
    epsilon: float,
    blocker_size: int,
    ground_order: float = 1.0,
    transport_order: float = math.inf,
) -> RadiusSpec:
    """Radius guaranteeing two-sided coverage of the true expected value.

    theta = sigma * sqrt(-3 log eps) / sqrt(N) times the structural constant
    (largest blocker size to the power 1/r); finite transport orders add a
    q^(-1/q) factor.  ``blocker_size=1`` makes the structural constant 1,
    which yields the per-solution confidence half-width.
    """

    if sample_count < 1:
        raise DomainError("sample count must be at least 1")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not blocker_size >= 1:
        raise DomainError("blocker size must be at least 1")
    check_ground_order(ground_order)
    structure = blocker_size ** (1.0 / ground_order)
    qfac = 1.0 if math.isinf(transport_order) else transport_order ** (-1.0 / transport_order)
    theta = sigma * math.sqrt(-3.0 * math.log(epsilon)) * qfac * structure / math.sqrt(sample_count)
    return RadiusSpec(
        sample_count=sample_count,
        sigma=sigma,
        epsilon=epsilon,
        structure_constant=structure,
        ground_order=ground_order,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# finite transport order


def _power(base: float, exponent: float) -> float:
    if base <= 0.0:
        return 0.0
    return math.exp(exponent * math.log(base))


def _max_on_segment(fn, a: float, b: float, samples: int = 9, iters: int = 48):
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


def _scenario_dual_sup(system, c: np.ndarray, lam: float, q: float, r: float) -> float:
    """sup over t of t - lam * g(t)^(q/r), g the cheapest lift budget."""
    if lam <= 0.0:
        return math.inf
    base = bottleneck_value(system, c).value
    cmax = float(np.max(c))

    def h(t: float) -> float:
        used, _ = _raise_cost(system, c, t, r)
        return t - lam * _power(used, q / r)

    if q > 1.0:
        slack = (lam * q) ** (-1.0 / (q - 1.0))
    else:
        slack = 1.0 + float(np.max(c) - np.min(c))
    hi = cmax + slack
    for _ in range(8):
        breaks = sorted({base, hi} | {float(x) for x in np.unique(c) if base < x < hi})
        best = -math.inf
        for a, b in zip(breaks, breaks[1:]):
            best = max(best, _max_on_segment(h, a, b))
        best = max(best, h(base))
        if q > 1.0 or h(hi) < best - 1e-12 * (1.0 + abs(best)):
            return best
        # order 1 with a too-small multiplier: objective may be unbounded
        probe = hi + slack
        if h(probe) <= best + 1e-12 * (1.0 + abs(best)):
            return best
        hi = probe
        slack *= 2.0
    return math.inf


def quantify_robust_finite_order(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    order: float,
    ground_order: float = 1.0,
) -> tuple[float, float]:
    """Worst-case expected bottleneck value under a finite transport order.

    Minimizes the convex dual function
    phi(lam) = lam * theta^q + mean_k sup_t [t - lam * g_k(t)^(q/r)]
    over lam >= 0 by bracket expansion plus golden-section; the inner sup is
    evaluated on the distinct-cost breakpoint grid with golden refinement.
    Returns (value, minimizing multiplier).  Intended for desk-scale systems.
    """

    require_matching_width(scenarios, system)
    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    if not 1 <= order < math.inf:
        raise DomainError("transport order must be finite and at least 1")
    r = check_ground_order(ground_order)
    if radius == 0.0:
        return saa_value(system, scenarios), math.inf

    q = float(order)
    evals = 0

    def phi(lam: float) -> float:
        nonlocal evals
        evals += 1
        if evals > MULTIPLIER_SEARCH_MAX_EVALS + 400:
            raise ConvergenceError("multiplier search exceeded its evaluation budget")
        if lam < 0.0:
            return math.inf
        total = math.fsum(
            _scenario_dual_sup(system, scenarios.costs[k], lam, q, r)
            for k in range(scenarios.count)
        )
        if math.isinf(total):
            return math.inf
        return lam * radius**q + total / scenarios.count

    # bracket a finite minimum around lam = 1
    lam_mid, f_mid = 1.0, phi(1.0)
    lam_hi, f_hi = 2.0, phi(2.0)
    steps = 0
    while f_hi < f_mid:
        lam_mid, f_mid = lam_hi, f_hi
        lam_hi *= 2.0
        f_hi = phi(lam_hi)
        steps += 1
        if steps > MULTIPLIER_SEARCH_MAX_EVALS:
            raise ConvergenceError("multiplier search failed to bracket a minimum")
    lam_lo, f_lo = lam_mid / 2.0, phi(lam_mid / 2.0)
    steps = 0
    while f_lo < f_mid and lam_lo > 1e-300:
        lam_mid, f_mid = lam_lo, f_lo
        lam_lo /= 2.0
        f_lo = phi(lam_lo)
        steps += 1
        if steps > MULTIPLIER_SEARCH_MAX_EVALS:
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
    base = [math.fsum(c[j] for j in s) for s in subsets]
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
            norm = math.fsum(beta.tolist())
        else:
            norm = float(np.sum(beta**r)) ** (1.0 / r)
        if norm > radius:
            beta = beta * (radius / norm)
        lift = beta.tolist()
        return min(math.fsum([b, *(lift[j] for j in row)]) for row, b in zip(rows, base))

    # loaded on the first family level: compiling the solvers at package
    # import would raise the peak memory of every run that never needs them
    from ._family import dual_level, simplex_lift

    if r == 1.0:
        return level(simplex_lift(A, np.array(base) - min(base), radius))
    return dual_level(A, np.array(base), radius, r, level)


def quantify_topk(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radius: float,
    k: int,
    ground_order: float = 1.0,
    force: bool = False,
) -> TopkQuote:
    """Robust expected top-k-sum value: bracket always, exact where tiny.

    The bracket is [saa + k * radius / U^(1/r), saa + k^((r-1)/r) * radius]
    with U the largest union of a top-k blocker family (ground size when the
    family cannot be enumerated).  The exact value is, per scenario, the
    best family level over the enumerated top-k blocker; when enumeration is
    refused the quote is downgraded to the bracket.
    """

    require_matching_width(scenarios, system)
    if not radius >= 0:
        raise DomainError("radius must be nonnegative")
    r = check_ground_order(ground_order)

    saa = (
        math.fsum(
            topk_sum_value(system, scenarios.costs[i], k, force=force)[0]
            for i in range(scenarios.count)
        )
        / scenarios.count
    )

    try:
        clutter = antichain_reduce(enumerate_members(system, force=force))
        families = topk_blocker_enumerate(clutter, k)
    except EnumerationLimitError:
        families = None

    exact_value = None
    union_size = system.ground.n
    if families is not None:
        union_size = max(len(frozenset().union(*fam)) for fam in families)
        totals = []
        for i in range(scenarios.count):
            c = scenarios.costs[i]
            totals.append(
                max(_family_level(c, fam, radius, r) for fam in families)
            )
        exact_value = math.fsum(totals) / scenarios.count
    lower = saa + k * radius / union_size ** (1.0 / r)
    upper = saa + k ** ((r - 1.0) / r) * radius
    return TopkQuote(
        saa=saa,
        lower=lower,
        upper=upper,
        exact=exact_value,
        downgraded=families is None,
        union_size=union_size,
    )


def calibrate_radius_topk(
    sample_count: int,
    sigma: float,
    epsilon: float,
    k: int,
    ground_order: float = 1.0,
    union_size: int = 1,
) -> tuple[float, float]:
    """Radii for the top-k coverage guarantees (lower-side, upper-side).

    The lower-side rule scales by union_size^(1/r) / k, the upper-side rule
    by k^(-(r-1)/r).
    """

    r = check_ground_order(ground_order)
    if not k >= 1:
        raise DomainError("k must be at least 1")
    if not union_size >= 1:
        raise DomainError("union size must be at least 1")
    base = calibrate_radius(
        sample_count, sigma, epsilon, blocker_size=1, ground_order=1.0
    ).theta
    part_i = base * union_size ** (1.0 / r) / k
    part_ii = base * k ** (-(r - 1.0) / r)
    return part_i, part_ii


def structure_constant(system: CombinatorialSystem, ground_order: float = 1.0) -> float:
    """max blocker size to the power 1/r (upper bound where not exact)."""
    r = check_ground_order(ground_order)
    size, _ = max_blocker_size(system)
    return size ** (1.0 / r)
