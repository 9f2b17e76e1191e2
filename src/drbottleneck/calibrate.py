"""Statistical calibration: confidence intervals, the radius rules,
radius selection, cross-validation, and Monte Carlo coverage experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bottleneck import bottleneck_value
from .decide import (
    _Maxima, robust_decision, saa_decision, tv_robust_decision, variance_robust_decision
)
from .errors import (
    ROBUST_VALUE, DomainError, check_ground_order, exact_mean, exact_sum, exact_variance,
    overflow_error,
)
from .quantify import WassersteinBall, quantify_robust
from .scenarios import ScenarioSet
from .systems import CombinatorialSystem


@dataclass(frozen=True)
class CiReport:
    """A symmetric confidence interval around a point estimate."""

    point: float
    half_width: float
    level: float
    method: str

    def __post_init__(self):
        if not self.half_width >= 0:
            raise DomainError("half width must be nonnegative")

    @property
    def lower(self) -> float:
        return self.point - self.half_width

    @property
    def upper(self) -> float:
        return self.point + self.half_width

    def overlaps(self, other: "CiReport") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper


def estimate_sigma(values) -> float:
    """Sample standard deviation (divisor N - 1) of objective samples, summed
    exactly; a spread past the float range is refused."""
    samples = [float(v) for v in values]
    if len(samples) < 2:
        raise DomainError("need at least two samples to estimate sigma")
    if not all(math.isfinite(v) for v in samples):
        raise DomainError("sigma samples must be finite")
    mean = exact_sum(samples) / len(samples)
    sigma = math.sqrt(exact_sum((v - mean) ** 2 for v in samples) / (len(samples) - 1))
    if sigma == math.inf:  # a difference past the float range squares to inf
        raise overflow_error(ROBUST_VALUE)
    return sigma


def asymptotic_ci(values) -> CiReport:
    """Normal-approximation 0.95 interval: mean +/- 1.96 * s / sqrt(N)."""

    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise DomainError("need at least two values for a confidence interval")
    if not np.all(np.isfinite(arr)):
        raise DomainError("confidence interval values must be finite")
    mean = float(exact_sum(arr) / arr.size)
    with np.errstate(over="ignore", invalid="ignore"):
        half = 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    if not math.isfinite(half):  # the spread, or numpy's pairwise mean, leaves the range
        raise overflow_error(ROBUST_VALUE)
    return CiReport(point=mean, half_width=half, level=0.95, method="asymptotic")


def theoretical_ci(point: float, theta: float, epsilon: float) -> CiReport:
    """Interval point +/- theta at level 1 - 2 epsilon, for theta from a radius
    rule whose coverage guarantee fails with probability epsilon each side."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    return CiReport(point=point, half_width=theta, level=1.0 - 2.0 * epsilon, method="theoretical")


def _check_rule_inputs(sample_count: int, sigma: float, epsilon: float) -> None:
    if sample_count < 1:
        raise DomainError("sample count must be at least 1")
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be positive and finite")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")


def calibrate_radius(
    sample_count: int,
    sigma: float,
    epsilon: float,
    blocker_size: int,
    ground_order: float = 1.0,
    transport_order: float = math.inf,
) -> float:
    """Radius guaranteeing two-sided coverage of the true expected value.

    theta = sigma * sqrt(-3 log eps) / sqrt(N) times the structural constant
    (largest blocker size to the power 1/r); finite transport orders add a
    q^(-1/q) factor.  ``blocker_size=1`` makes the structural constant 1,
    which yields the per-solution confidence half-width.
    """

    _check_rule_inputs(sample_count, sigma, epsilon)
    if not blocker_size >= 1:
        raise DomainError("blocker size must be at least 1")
    check_ground_order(ground_order)
    structure = blocker_size ** (1.0 / ground_order)
    qfac = 1.0 if math.isinf(transport_order) else transport_order ** (-1.0 / transport_order)
    return sigma * math.sqrt(-3.0 * math.log(epsilon)) * qfac * structure / math.sqrt(sample_count)


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
    base = calibrate_radius(sample_count, sigma, epsilon, blocker_size=1, ground_order=1.0)
    part_i = base * union_size ** (1.0 / r) / k
    part_ii = base * k ** (-(r - 1.0) / r)
    return part_i, part_ii


def calibrate_radius_decision(
    sample_count: int, sigma: float, epsilon: float, ground_n: int
) -> float:
    """Decision-side radius: sigma * sqrt(-3 log eps + 3 n log 2) / sqrt(N).

    ``ground_n = 0`` drops the union-bound term, leaving the per-solution
    confidence half-width sigma * sqrt(-3 log eps) / sqrt(N).
    """

    _check_rule_inputs(sample_count, sigma, epsilon)
    if ground_n < 0:
        raise DomainError("ground size must be nonnegative")
    return sigma * math.sqrt(
        -3.0 * math.log(epsilon) + 3.0 * ground_n * math.log(2.0)
    ) / math.sqrt(sample_count)


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


def normal_approx_radius(per_scenario_values, z: float = 1.645) -> float:
    """Rule-of-thumb indifference radius: z * sqrt(variance / N).

    Approximates the one-sided confidence half-width of the empirical mean
    objective (population-variance convention).
    """

    values = list(per_scenario_values)
    if not values:
        raise DomainError("need at least one value for an indifference radius")
    mean = exact_mean(values)
    return z * math.sqrt(exact_variance(values, mean) / len(values))


def smallest_radius_in_band(
    radii,
    values,
    band: CiReport,
    orientation: str = "capacity",
    endpoint: str = "upper",
) -> float | None:
    """Smallest grid radius whose value enters the confidence band.

    Capacity-oriented curves decrease with the radius and qualify by falling
    below the chosen band endpoint; cost-oriented curves increase and
    qualify by rising above it (default endpoint "lower" in that case is the
    caller's choice).  Returns None when no grid point qualifies.
    """

    radii = list(radii)
    values = list(values)
    if not radii or len(radii) != len(values):
        raise DomainError("radius grid and value curve must align and be nonempty")
    if endpoint not in ("upper", "lower"):
        raise DomainError("endpoint must be 'upper' or 'lower'")
    if orientation not in ("capacity", "cost"):
        raise DomainError("orientation must be 'capacity' or 'cost'")
    threshold = band.upper if endpoint == "upper" else band.lower
    for theta, v in zip(radii, values):
        if orientation == "capacity" and v < threshold:
            return theta
        if orientation == "cost" and v > threshold:
            return theta
    return None


@dataclass(frozen=True)
class CrossValReport:
    """Cross-validation summary over a radius grid."""

    radii: tuple[float, ...]
    mean_cis: tuple[CiReport, ...]
    variance_cis: tuple[CiReport, ...]
    recommended: float | None
    repeats: int
    train_size: int
    test_size: int
    model: str

    def rows(self) -> list[dict]:
        return [
            {
                "theta": theta,
                "test_mean": mc.point,
                "test_mean_half_width": mc.half_width,
                "test_variance": vc.point,
                "test_variance_half_width": vc.half_width,
            }
            for theta, mc, vc in zip(self.radii, self.mean_cis, self.variance_cis)
        ]


_CV_SOLVERS: dict[str, Callable] = {
    "variance-robust": variance_robust_decision,
    "total-variation": tv_robust_decision,
    "wasserstein-robust": robust_decision,
}


def cross_validate(
    system: CombinatorialSystem,
    scenarios: ScenarioSet,
    radii,
    train_size: int,
    repeats: int,
    seed: int,
    model: str = "variance-robust",
) -> CrossValReport:
    """Random-split cross-validation of a decision model over a radius grid.

    Each repeat draws a train/test split, solves the model on the training
    scenarios for every grid radius, and scores the chosen subset's mean and
    population variance on the test scenarios.  Intervals aggregate over
    repeats.  The recommended radius is the smallest grid value whose
    test-mean interval overlaps the first grid point's interval while
    attaining the least test variance among those candidates.  Identical
    seeds reproduce the report exactly.
    """

    if model not in _CV_SOLVERS:
        raise DomainError(f"unknown cross-validation model {model!r}")
    radii = [float(x) for x in radii]
    if not radii:
        raise DomainError("radius grid must be nonempty")
    if sorted(radii) != radii:
        raise DomainError("radius grid must be sorted ascending")
    if repeats < 1:
        raise DomainError("repeats must be at least 1")
    total = scenarios.count
    if not 0 < train_size < total:
        raise DomainError("train size must leave a nonempty test set")
    solver = _CV_SOLVERS[model]

    streams = np.random.SeedSequence(seed).spawn(repeats)
    means = np.zeros((repeats, len(radii)))
    variances = np.zeros((repeats, len(radii)))
    for rep, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        order = rng.permutation(total)
        train = ScenarioSet(scenarios.costs[order[:train_size]])
        test = _Maxima(scenarios.costs[order[train_size:]])
        for col, theta in enumerate(radii):
            values = test.score(solver(system, train, theta).chosen)
            mean = exact_mean(values)
            means[rep, col] = mean
            variances[rep, col] = exact_variance(values, mean)

    def column_ci(matrix, col) -> CiReport:
        column = matrix[:, col]
        if repeats == 1:
            return CiReport(float(column[0]), 0.0, 0.95, "asymptotic")
        return asymptotic_ci(column)

    mean_cis = tuple(column_ci(means, c) for c in range(len(radii)))
    variance_cis = tuple(column_ci(variances, c) for c in range(len(radii)))

    baseline = mean_cis[0]
    candidates = [
        (variance_cis[i].point, radii[i])
        for i in range(len(radii))
        if mean_cis[i].overlaps(baseline)
    ]
    recommended = min(candidates)[1] if candidates else None
    return CrossValReport(
        radii=tuple(radii),
        mean_cis=mean_cis,
        variance_cis=variance_cis,
        recommended=recommended,
        repeats=repeats,
        train_size=train_size,
        test_size=total - train_size,
        model=model,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Empirical frequencies of the two coverage guarantees."""

    theta: float
    reference_value: float
    reference_error: float
    lower_frequency: float
    upper_frequency: float
    trials: int


def coverage_experiment(
    system: CombinatorialSystem,
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    sample_count: int,
    trials: int,
    epsilon: float,
    radius_rule: Callable[[float, int], float],
    kind: str = "quantify",
    seed: int = 0,
    reference_count: int = 100_000,
    ground_order: float = 1.0,
) -> CoverageReport:
    """Monte Carlo check of the coverage guarantees behind the radius rules.

    ``sampler(rng, count)`` draws iid cost vectors.  The ground truth is
    approximated by a large reference sample (its own Monte Carlo error is
    reported), sigma is estimated from the same sample, and the rule maps
    (sigma, N) to a radius.  Each trial draws N scenarios and checks
    value >= truth and value <= truth + 2 theta.
    """

    if trials < 1:
        raise DomainError("need at least one trial")
    if kind not in ("quantify", "decision"):
        raise DomainError("kind must be 'quantify' or 'decision'")
    streams = np.random.SeedSequence(seed).spawn(trials + 1)
    ref_rng = np.random.default_rng(streams[0])
    reference = sampler(ref_rng, reference_count)

    if kind == "quantify":
        objective = np.array(
            [bottleneck_value(system, row).value for row in reference]
        )
        truth = float(objective.mean())
    else:
        base = saa_decision(system, ScenarioSet(reference[: min(len(reference), 50_000)]))
        cols = sorted(base.chosen)
        objective = reference[:, cols].max(axis=1)
        truth = float(objective.mean())
    sigma_hat = float(np.std(objective, ddof=1))
    ref_error = sigma_hat / math.sqrt(len(objective))
    theta = float(radius_rule(sigma_hat, sample_count))

    hits_lower = 0
    hits_upper = 0
    for trial in range(trials):
        rng = np.random.default_rng(streams[trial + 1])
        draws = ScenarioSet(sampler(rng, sample_count))
        if kind == "quantify":
            ball = WassersteinBall(theta, ground_order=ground_order)
            value = quantify_robust(system, draws, ball).value
        else:
            value = saa_decision(system, draws).objective + theta
        if value >= truth:
            hits_lower += 1
        if value <= truth + 2.0 * theta:
            hits_upper += 1
    return CoverageReport(
        theta=theta,
        reference_value=truth,
        reference_error=ref_error,
        lower_frequency=hits_lower / trials,
        upper_frequency=hits_upper / trials,
        trials=trials,
    )
