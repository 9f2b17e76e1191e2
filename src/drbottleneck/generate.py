"""Reproducible scenario generation.

Two generators ship with the toolkit: a complete-graph wireless network
whose link capacities follow the Shannon formula with exponential fading,
and a square matching whose travel times are independent truncated
Gaussians.  Both run on numpy's seeded PCG64 generator; identical parameters
and seed reproduce the scenario matrix byte for byte, and every generated
set comes with a metadata record (generator name, parameters, seed) meant to
be persisted alongside it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, check_count
from .scenarios import ScenarioSet
from .systems import AssignmentSystem, PathSystem

RNG_NAME = "numpy-pcg64"


def _check_counts(params, **least) -> None:
    """Set each named integer field of frozen ``params`` to its checked int."""
    for name, low in least.items():
        value = check_count(getattr(params, name), name.replace("_", " "), low)
        object.__setattr__(params, name, value)


@dataclass(frozen=True)
class MultihopParams:
    """Complete-graph wireless instance: one ground element per link.

    Per link, the transmit power and distance are drawn once from uniform
    ranges; each scenario then draws unit-exponential fading and computes
    the capacity  bandwidth * log2(1 + snr * fading)  with
    snr = power / noise * 10^(-12.81 - 3.76 log10(distance)).
    """

    nodes: int = 20
    bandwidth: float = 1.0
    power_low: float = 0.1
    power_high: float = 0.2
    noise: float = 1e-10
    distance_low: float = 0.03
    distance_high: float = 0.07
    source: int = 0
    sink: int = 1
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, nodes=2, source=0, sink=0, sample_count=1, seed=0)
        if min(self.power_low, self.distance_low, self.noise, self.bandwidth) <= 0:
            raise DomainError("physical parameters must be positive")
        if self.power_high < self.power_low or self.distance_high < self.distance_low:
            raise DomainError("parameter ranges must be nondecreasing")


def shannon_capacity(power, distance, fading, bandwidth=1.0, noise=1e-10):
    """Shannon capacity of a link for the given fading realization."""
    snr = power / noise * 10.0 ** (-12.81 - 3.76 * np.log10(distance))
    return bandwidth * np.log2(1.0 + snr * fading)


def generate_multihop(params: MultihopParams) -> tuple[PathSystem, ScenarioSet, dict]:
    """Build the complete graph and draw capacity scenarios.

    Draw order is fixed (powers, then distances, then the fading matrix), so
    a seed pins the whole output.  Exponential fading is drawn by inverse
    CDF, -log(1 - U).
    """

    edges = [
        (u, v) for u in range(params.nodes) for v in range(u + 1, params.nodes)
    ]
    system = PathSystem(
        nodes=params.nodes, edges=tuple(edges), s=params.source, t=params.sink
    )
    rng = np.random.default_rng(params.seed)
    m = len(edges)
    power = rng.uniform(params.power_low, params.power_high, size=m)
    distance = rng.uniform(params.distance_low, params.distance_high, size=m)
    uniforms = rng.random(size=(params.sample_count, m))
    fading = -np.log1p(-uniforms)
    capacities = shannon_capacity(
        power, distance, fading, bandwidth=params.bandwidth, noise=params.noise
    )
    scenarios = ScenarioSet(capacities)
    metadata = {
        "generator": "multihop-shannon",
        "rng": RNG_NAME,
        "params": asdict(params),
    }
    return system, scenarios, metadata


@dataclass(frozen=True)
class TruncatedGaussianParams:
    """Square-matching travel times: independent Gaussians truncated at zero.

    ``means`` and ``base_std`` have one entry per cell (length m*m); the
    standard deviation of cell j is scale * base_std[j].
    """

    means: tuple[float, ...]
    base_std: tuple[float, ...]
    scale: float
    sample_count: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(x) for x in self.means))
        object.__setattr__(self, "base_std", tuple(float(x) for x in self.base_std))
        if len(self.means) != len(self.base_std):
            raise DomainError("means and base_std must have equal length")
        side = math.isqrt(len(self.means))
        if side * side != len(self.means) or side < 1:
            raise DomainError("cell count must be a perfect square")
        if self.scale <= 0:
            raise DomainError("scale must be positive")
        if any(s < 0 for s in self.base_std):
            raise DomainError("standard deviations must be nonnegative")
        _check_counts(self, sample_count=1, seed=0)

    @property
    def side(self) -> int:
        return math.isqrt(len(self.means))


def generate_matching_gaussian(
    params: TruncatedGaussianParams,
) -> tuple[AssignmentSystem, ScenarioSet, dict]:
    """Draw truncated-Gaussian travel-time scenarios by rejection.

    Negative draws are redrawn cell by cell until all entries are
    nonnegative, which samples the Gaussian conditioned on [0, inf).
    """

    system = AssignmentSystem(m=params.side)
    rng = np.random.default_rng(params.seed)
    mu = np.asarray(params.means)
    sd = params.scale * np.asarray(params.base_std)
    draws = rng.normal(mu, sd, size=(params.sample_count, len(mu)))
    for _ in range(10_000):
        negative = draws < 0.0
        if not negative.any():
            break
        rows, cols = np.nonzero(negative)
        draws[rows, cols] = rng.normal(mu[cols], sd[cols])
    else:
        raise DomainError(
            "rejection sampling failed to produce nonnegative draws; "
            "check the mean/scale configuration"
        )
    scenarios = ScenarioSet(draws)
    metadata = {
        "generator": "matching-truncated-gaussian",
        "rng": RNG_NAME,
        "params": asdict(params),
    }
    return system, scenarios, metadata
