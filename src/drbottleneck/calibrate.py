"""Statistical calibration: confidence intervals, radius selection,
cross-validation, and Monte Carlo coverage experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bottleneck import bottleneck_value
from .decide import (
    _Maxima,
    _mean,
    _population_variance,
    calibrate_radius_decision,
    calibrate_radius_topk_decision,
    robust_decision,
    saa_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from .errors import DomainError
from .quantify import WassersteinBall, calibrate_radius, calibrate_radius_topk, quantify_robust
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
    """Sample standard deviation (divisor N - 1) of objective samples."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise DomainError("need at least two samples to estimate sigma")
    return float(np.std(arr, ddof=1))


def asymptotic_ci(values) -> CiReport:
    """Normal-approximation 0.95 interval: mean +/- 1.96 * s / sqrt(N)."""

    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise DomainError("need at least two values for a confidence interval")
    if not np.all(np.isfinite(arr)):
        raise DomainError("confidence interval values must be finite")
    mean = float(math.fsum(arr) / arr.size)
    half = 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    return CiReport(point=mean, half_width=half, level=0.95, method="asymptotic")


def theoretical_ci(
    point: float,
    sample_count: int,
    sigma: float,
    epsilon: float,
    kind: str = "quantify",
    *,
    blocker_size: int | None = None,
    ground_order: float = 1.0,
    ground_n: int | None = None,
    k: int | None = None,
    union_size: int | None = None,
) -> CiReport:
    """Interval point +/- theta with theta from the matching coverage rule.

    ``kind`` selects the rule: "quantify" needs ``blocker_size`` (largest
    blocker element) and ``ground_order``; "decision" needs ``ground_n``
    (0 gives the per-solution variant); the top-k kinds additionally take
    ``k`` and, for quantification, the blocker-family ``union_size``.
    """

    if kind == "quantify":
        if blocker_size is None:
            raise DomainError("kind='quantify' needs blocker_size")
        theta = calibrate_radius(
            sample_count, sigma, epsilon, blocker_size, ground_order
        ).theta
    elif kind == "decision":
        if ground_n is None:
            raise DomainError("kind='decision' needs ground_n")
        theta = calibrate_radius_decision(sample_count, sigma, epsilon, ground_n)
    elif kind == "topk-quantify":
        if k is None or union_size is None:
            raise DomainError("kind='topk-quantify' needs k and union_size")
        theta, _ = calibrate_radius_topk(
            sample_count, sigma, epsilon, k, ground_order, union_size
        )
    elif kind == "topk-decision":
        if k is None or ground_n is None:
            raise DomainError("kind='topk-decision' needs k and ground_n")
        theta = calibrate_radius_topk_decision(
            sample_count, sigma, epsilon, ground_n, k, ground_order
        )
    else:
        raise DomainError(f"unknown theoretical interval kind {kind!r}")
    level = 1.0 - 2.0 * epsilon
    return CiReport(point=point, half_width=theta, level=level, method=f"theoretical-{kind}")


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
            mean = _mean(values)
            means[rep, col] = mean
            variances[rep, col] = _population_variance(values, mean)

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
