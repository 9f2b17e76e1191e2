"""Confidence intervals, radius selection, cross-validation, coverage."""

import math

import numpy as np
import pytest

from drbottleneck import (
    AssignmentSystem,
    CiReport,
    DomainError,
    PathSystem,
    ScenarioSet,
    asymptotic_ci,
    calibrate_radius,
    calibrate_radius_decision,
    coverage_experiment,
    cross_validate,
    estimate_sigma,
    smallest_radius_in_band,
    theoretical_ci,
)


class TestAsymptoticCi:
    def test_constant_values(self):
        report = asymptotic_ci([1.0, 1.0, 1.0, 1.0])
        assert report.point == 1.0
        assert report.half_width == 0.0

    def test_two_values(self):
        report = asymptotic_ci([0.0, 2.0])
        assert report.point == 1.0
        # s = sqrt(2), so 1.96 * sqrt(2) / sqrt(2) = 1.96
        assert report.half_width == pytest.approx(1.96, rel=1e-12)

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        small = asymptotic_ci(rng.normal(0, 1, size=50))
        large = asymptotic_ci(rng.normal(0, 1, size=5000))
        assert large.half_width < small.half_width

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            asymptotic_ci([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            asymptotic_ci([1.0, bad, 2.0])

    def test_nan_half_width_rejected(self):
        with pytest.raises(DomainError):
            CiReport(point=1.0, half_width=math.nan, level=0.95, method="x")


class TestEstimateSigma:
    def test_constant(self):
        assert estimate_sigma([3.0, 3.0, 3.0]) == 0.0

    def test_two_points(self):
        assert estimate_sigma([0.0, 2.0]) == pytest.approx(math.sqrt(2.0))

    def test_scaling(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, size=100)
        assert estimate_sigma(4.0 * values) == pytest.approx(4.0 * estimate_sigma(values))

    def test_matches_numpy(self):
        values = np.random.default_rng(4).normal(5.0, 2.0, size=50)
        assert estimate_sigma(values) == pytest.approx(float(np.std(values, ddof=1)), rel=1e-14)

    @pytest.mark.parametrize(
        "values",
        [[1e308, -1e308, 1e308], [1e308, 1e308, 1e308], [1.7e308, -1.7e308]],
        ids=["spread", "sum", "difference"],
    )
    def test_overflowing_spread_refused(self, values):
        with pytest.raises(DomainError, match="overflows the float range"):
            estimate_sigma(values)

    def test_non_finite_samples_refused(self):
        with pytest.raises(DomainError, match="finite"):
            estimate_sigma([1.0, math.inf])

    @pytest.mark.parametrize(
        "rule",
        [lambda sigma: calibrate_radius(10, sigma, 0.05, 4),
         lambda sigma: calibrate_radius_decision(10, sigma, 0.05, 4)],
        ids=["quantify", "decision"],
    )
    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0])
    def test_rules_refuse_bad_sigma(self, rule, sigma):
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            rule(sigma)


class TestTheoreticalCi:
    def test_quantify_kind(self):
        report = theoretical_ci(5.0, calibrate_radius(100, 1.0, 0.025, 4, 1.0), 0.025)
        expected = math.sqrt(3.0 * math.log(40.0)) * 4 / 10
        assert report.half_width == pytest.approx(expected, rel=1e-12)
        assert report.half_width == pytest.approx(1.33066, abs=1e-4)
        assert report.level == 0.95

    def test_smaller_epsilon_widens(self):
        tight = theoretical_ci(5.0, calibrate_radius(100, 1.0, 0.05, 4), 0.05)
        wide = theoretical_ci(5.0, calibrate_radius(100, 1.0, 0.025, 4), 0.025)
        assert wide.half_width > tight.half_width

    def test_decision_kind_per_solution_variant(self):
        report = theoretical_ci(5.0, calibrate_radius_decision(100, 1.0, 0.05, 0), 0.05)
        assert report.half_width == pytest.approx(math.sqrt(-3 * math.log(0.05)) / 10)

    @pytest.mark.parametrize("theta, epsilon", [(0.1, 0.0), (0.1, math.nan), (math.nan, 0.05)])
    def test_bad_epsilon_or_radius_refused(self, theta, epsilon):
        with pytest.raises(DomainError):
            theoretical_ci(5.0, theta, epsilon)


class TestSmallestRadiusInBand:
    def test_synthetic_curve(self):
        band = CiReport(point=5.40, half_width=0.0, level=0.95, method="x")
        theta = smallest_radius_in_band(
            [0.0, 0.1, 0.2], [5.45, 5.41, 5.38], band, "capacity", "upper"
        )
        assert theta == 0.2

    def test_curve_never_entering(self):
        band = CiReport(point=1.0, half_width=0.1, level=0.95, method="x")
        assert (
            smallest_radius_in_band([0.0, 0.1], [5.0, 4.9], band, "capacity", "upper")
            is None
        )

    def test_first_entry_wins(self):
        band = CiReport(point=5.0, half_width=0.5, level=0.95, method="x")
        theta = smallest_radius_in_band(
            [0.0, 0.1, 0.2, 0.3], [6.0, 5.4, 5.2, 5.0], band, "capacity", "upper"
        )
        assert theta == 0.1

    def test_wider_band_never_increases_choice(self):
        values = [6.0, 5.8, 5.5, 5.2, 4.9]
        radii = [0.0, 0.1, 0.2, 0.3, 0.4]
        picks = []
        for hw in (0.0, 0.3, 0.6, 1.0):
            band = CiReport(point=5.0, half_width=hw, level=0.95, method="x")
            picks.append(
                smallest_radius_in_band(radii, values, band, "capacity", "upper")
            )
        cleaned = [p for p in picks if p is not None]
        assert cleaned == sorted(cleaned, reverse=True)

    def test_cost_orientation(self):
        band = CiReport(point=5.0, half_width=0.2, level=0.95, method="x")
        theta = smallest_radius_in_band(
            [0.0, 0.1, 0.2], [4.5, 4.9, 5.1], band, "cost", "lower"
        )
        assert theta == 0.1


class TestCrossValidate:
    def _instance(self):
        system = AssignmentSystem(m=2)
        rng = np.random.default_rng(11)
        # element 3 is noisy; the diagonal {0, 3} is cheap on average but
        # volatile, the anti-diagonal is steady
        base = np.array([2.0, 4.0, 4.0, 2.0])
        costs = np.tile(base, (12, 1))
        costs[:, 3] += rng.normal(0.0, 3.0, size=12)
        costs = np.abs(costs)
        return system, ScenarioSet(costs)

    def test_reproducible(self):
        system, scen = self._instance()
        a = cross_validate(system, scen, [0.0, 0.5, 1.0], 8, 10, seed=42)
        b = cross_validate(system, scen, [0.0, 0.5, 1.0], 8, 10, seed=42)
        assert a == b

    def test_single_repeat_zero_grid(self):
        system, scen = self._instance()
        report = cross_validate(system, scen, [0.0], 8, 1, seed=1)
        assert report.radii == (0.0,)
        assert report.recommended == 0.0

    def test_identical_scenarios_zero_variance(self):
        system = AssignmentSystem(m=2)
        scen = ScenarioSet(np.tile([1.0, 2.0, 3.0, 4.0], (10, 1)))
        report = cross_validate(system, scen, [0.0, 0.5], 6, 5, seed=2)
        assert all(ci.point == 0.0 for ci in report.variance_cis)

    def test_recommends_variance_reduction_when_available(self):
        system, scen = self._instance()
        report = cross_validate(system, scen, [0.0, 0.5, 1.0, 1.5, 2.0], 8, 30, seed=7)
        assert report.recommended is not None
        assert report.recommended > 0.0
        idx = report.radii.index(report.recommended)
        assert report.variance_cis[idx].point <= report.variance_cis[0].point

    def test_three_by_three_monthly_style_instance(self):
        # twelve samples, nine cells: one cheap-but-volatile matching and a
        # steadier alternative inside the band
        system = AssignmentSystem(m=3)
        rng = np.random.default_rng(31)
        base = np.array([2.0, 5.0, 5.0, 5.0, 2.0, 5.0, 5.0, 5.0, 2.5])
        costs = np.tile(base, (12, 1))
        costs[:, 8] += rng.normal(0.0, 2.5, size=12)  # diagonal cell is noisy
        scen = ScenarioSet(np.abs(costs))
        grid = [round(0.1 * i, 1) for i in range(11)]
        report = cross_validate(system, scen, grid, 8, 50, seed=13)
        assert report.recommended is not None
        assert report.recommended > 0.0
        idx = report.radii.index(report.recommended)
        assert report.variance_cis[idx].point < report.variance_cis[0].point

    def test_split_validation(self):
        system, scen = self._instance()
        with pytest.raises(DomainError):
            cross_validate(system, scen, [0.0], scen.count, 3, seed=0)


class TestCoverageExperiment:
    triangle = PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2)), s=0, t=2)

    @staticmethod
    def gaussian_sampler(rng, count):
        mu = np.array([3.0, 5.0, 7.0])
        return rng.normal(mu, 0.8, size=(count, 3))

    def test_huge_radius_covers_everything(self):
        report = coverage_experiment(
            self.triangle,
            self.gaussian_sampler,
            sample_count=10,
            trials=40,
            epsilon=0.1,
            radius_rule=lambda sigma, n: 50.0,
            seed=5,
            reference_count=4000,
        )
        assert report.lower_frequency == 1.0

    def test_zero_radius_is_symmetric(self):
        report = coverage_experiment(
            self.triangle,
            self.gaussian_sampler,
            sample_count=30,
            trials=120,
            epsilon=0.1,
            radius_rule=lambda sigma, n: 0.0,
            seed=6,
            reference_count=8000,
        )
        assert 0.3 <= report.lower_frequency <= 0.7

    def test_lower_frequency_monotone_in_radius(self):
        freqs = []
        for theta in (0.0, 0.1, 0.4):
            report = coverage_experiment(
                self.triangle,
                self.gaussian_sampler,
                sample_count=15,
                trials=60,
                epsilon=0.1,
                radius_rule=lambda sigma, n, theta=theta: theta,
                seed=9,
                reference_count=4000,
            )
            freqs.append(report.lower_frequency)
        assert freqs == sorted(freqs)

    def test_decision_kind_runs(self):
        report = coverage_experiment(
            self.triangle,
            self.gaussian_sampler,
            sample_count=10,
            trials=20,
            epsilon=0.1,
            radius_rule=lambda sigma, n: sigma / math.sqrt(n),
            kind="decision",
            seed=10,
            reference_count=3000,
        )
        assert 0.0 <= report.lower_frequency <= 1.0
        assert 0.0 <= report.upper_frequency <= 1.0
