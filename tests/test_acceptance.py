"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margins (run with -s to see them live)."""

import math
import time

import numpy as np
import pytest

from _oracles import (
    brute_members,
    brute_minimal_hitting_sets,
    common_level_robust_oracle,
    exact_topk_oracle,
    two_point_mixture_oracle,
)
from conftest import (
    random_assignment_system,
    random_explicit_system,
    random_path_system,
    random_tree_system,
)
from drbottleneck import (
    AssignmentSystem,
    PathSystem,
    MultihopParams,
    ScenarioSet,
    WassersteinBall,
    bottleneck_value,
    calibrate_radius,
    calibrate_radius_decision,
    calibrate_radius_topk_decision,
    check_gap_bounds,
    coverage_experiment,
    decision_worst_case_distribution,
    dual_bottleneck_value,
    element_level,
    generate_multihop,
    min_member_size,
    quantify_robust,
    quantify_robust_finite_order,
    quantify_topk,
    robust_decision,
    saa_decision,
    saa_value,
    topk_decision,
    topk_sum_value,
    topk_variance_robust_decision,
    tv_robust_decision,
    variance_robust_decision,
    worst_case_distribution,
)
from drbottleneck import ExplicitSystem, enumerate_members
from drbottleneck.quantify import _scenario_dual_sup


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_instance_small(rng):
    kind = rng.choice(["path", "tree", "assignment", "explicit"])
    if kind == "path":
        return random_path_system(rng, max_nodes=5, max_extra=3)
    if kind == "tree":
        return random_tree_system(rng, max_nodes=5, max_extra=3)
    if kind == "assignment":
        return random_assignment_system(rng, max_side=3)
    return random_explicit_system(rng, n=6, max_sets=8)


def test_criterion_01_duality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    makers = {
        "path": lambda: random_path_system(rng, max_nodes=8, max_extra=6),
        "tree": lambda: random_tree_system(rng, max_nodes=8, max_extra=6),
        "assignment": lambda: random_assignment_system(rng, max_side=4),
        "explicit": lambda: random_explicit_system(rng, n=8, max_sets=64),
    }
    mismatches = 0
    for kind, make in makers.items():
        for i in range(500):
            system = make()
            n = system.ground.n
            if i % 2 == 0:
                costs = rng.integers(0, 20, size=n).astype(float)
                tolerance = 0.0
            else:
                costs = rng.uniform(0.0, 10.0, size=n)
                tolerance = 1e-12
            primal = bottleneck_value(system, costs).value
            dual = dual_bottleneck_value(system, costs)
            if abs(primal - dual) > tolerance:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"2000 instances, {mismatches} primal/dual mismatches, {elapsed:.1f}s (<60s)",
    )


@pytest.fixture(scope="module")
def robust_suite():
    """200 random small instances shared by criteria 2, 3, and 5."""
    rng = np.random.default_rng(2002)
    suite = []
    for _ in range(200):
        system = _random_instance_small(rng)
        costs = rng.uniform(0.0, 10.0, size=system.ground.n)
        suite.append((system, costs))
    return suite


def test_criterion_02_robust_value_oracles(robust_suite):
    start = time.perf_counter()
    worst_closed = 0.0
    worst_grid = 0.0
    for system, costs in robust_suite:
        members = brute_members(system)
        hitting = brute_minimal_hitting_sets(members, system.ground.n)
        for r in (1.0, 2.0):
            for theta in (0.0, 0.1, 1.0):
                from drbottleneck import robust_scenario_value

                level = robust_scenario_value(system, costs, theta, r).level
                closed = max(element_level(costs, h, theta, r) for h in hitting)
                worst_closed = max(worst_closed, abs(level - closed))
                if theta > 0.0:
                    grid = common_level_robust_oracle(members, costs, theta, r)
                    worst_grid = max(worst_grid, abs(level - grid))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_closed <= 1e-9 and worst_grid <= 1e-4 and elapsed < 180.0,
        f"closed-form gap {worst_closed:.2e} (<=1e-9), grid gap {worst_grid:.2e} "
        f"(<=1e-4), {elapsed:.1f}s (<180s)",
    )


def test_criterion_03_gap_bounds(robust_suite):
    violations = 0
    min_lower_slack = math.inf
    min_upper_slack = math.inf
    for system, costs in robust_suite:
        hitting = brute_minimal_hitting_sets(
            brute_members(system), system.ground.n
        )
        size = max(len(h) for h in hitting)
        scen = ScenarioSet(costs.reshape(1, -1))
        for r in (1.0, 2.0):
            for theta in (0.0, 0.1, 1.0):
                quote = quantify_robust(
                    system, scen, WassersteinBall(theta, ground_order=r)
                )
                try:
                    rep = check_gap_bounds(
                        quote.value, saa_value(system, scen), theta, r, size
                    )
                    min_lower_slack = min(min_lower_slack, rep.lower_slack)
                    min_upper_slack = min(min_upper_slack, rep.upper_slack)
                except Exception:
                    violations += 1
    report(
        3,
        violations == 0,
        f"two-sided gap bounds held on 1200 runs; tightest slacks "
        f"{min_lower_slack:.2e} / {min_upper_slack:.2e} (>= -1e-9)",
    )


def test_criterion_04_shift_identities():
    rng = np.random.default_rng(4004)
    worst_plain = 0.0
    worst_topk = 0.0
    for _ in range(200):
        system = _random_instance_small(rng)
        scen = ScenarioSet(
            rng.uniform(0, 10, size=(int(rng.integers(1, 6)), system.ground.n))
        )
        theta = float(rng.uniform(0, 2))
        base = saa_decision(system, scen)
        rob = robust_decision(system, scen, theta)
        worst_plain = max(worst_plain, abs(rob.objective - base.objective - theta))
    count_topk = 0
    while count_topk < 200:
        system = _random_instance_small(rng)
        if min_member_size(system) < 2:
            continue
        scen = ScenarioSet(
            rng.uniform(0, 10, size=(int(rng.integers(1, 6)), system.ground.n))
        )
        theta = float(rng.uniform(0, 2))
        r = float(rng.choice([1.0, 2.0]))
        shifted = topk_decision(system, scen, theta, 2, r)
        base = topk_decision(system, scen, 0.0, 2, r)
        expected = 2.0 ** ((r - 1.0) / r) * theta
        worst_topk = max(
            worst_topk, abs(shifted.objective - base.objective - expected)
        )
        count_topk += 1
    report(
        4,
        worst_plain <= 1e-12 and worst_topk <= 1e-12,
        f"decision shift gap {worst_plain:.2e}, top-k shift gap {worst_topk:.2e} "
        "(<=1e-12, 200 instances each)",
    )


def test_criterion_05_worst_case_attainment(robust_suite):
    worst_attain_u = 0.0
    worst_attain_d = 0.0
    worst_excess = -math.inf
    rng = np.random.default_rng(5005)
    for system, costs in robust_suite[:120]:
        n = system.ground.n
        scen = ScenarioSet(rng.uniform(0, 10, size=(int(rng.integers(1, 5)), n)))
        theta = float(rng.choice([0.0, 0.3, 1.0]))
        r = float(rng.choice([1.0, 2.0]))
        quote = quantify_robust(system, scen, WassersteinBall(theta, ground_order=r))
        support = worst_case_distribution(quote, scen)
        replay = math.fsum(
            bottleneck_value(system, row).value for row in support
        ) / scen.count
        worst_attain_u = max(worst_attain_u, abs(replay - quote.value))
        moves = np.abs(support - scen.costs)
        norms = (moves**r).sum(axis=1) ** (1.0 / r)
        worst_excess = max(worst_excess, float(norms.max()) - theta)

        base = saa_decision(system, scen)
        support_d = decision_worst_case_distribution(base.chosen, scen, theta)
        cols = sorted(base.chosen)
        worst_mean = math.fsum(support_d[:, cols].max(axis=1)) / scen.count
        worst_attain_d = max(worst_attain_d, abs(worst_mean - base.mean - theta))
        moves_d = np.abs(support_d - scen.costs)
        norms_d = (moves_d**r).sum(axis=1) ** (1.0 / r)
        worst_excess = max(worst_excess, float(norms_d.max()) - theta)
    report(
        5,
        worst_attain_u <= 1e-9 and worst_attain_d <= 1e-12 and worst_excess <= 1e-12,
        f"attainment gaps {worst_attain_u:.2e} (<=1e-9) / {worst_attain_d:.2e} "
        f"(<=1e-12); ball excess {worst_excess:.2e} (<=1e-12)",
    )


def test_criterion_06_variance_robust_exactness():
    from itertools import permutations

    start = time.perf_counter()
    rng = np.random.default_rng(6006)
    failures = 0
    for _ in range(100):
        system = AssignmentSystem(m=4)
        scen = ScenarioSet(rng.uniform(0, 10, size=(int(rng.integers(2, 11)), 16)))
        theta = float(rng.uniform(0, 3))
        base = saa_decision(system, scen)
        threshold = base.objective + theta

        records = []
        for perm in permutations(range(4)):
            cells = tuple(sorted(4 * i + perm[i] for i in range(4)))
            values = scen.costs[:, list(cells)].max(axis=1)
            mean = math.fsum(values) / scen.count
            var = math.fsum((v - mean) ** 2 for v in values) / scen.count
            records.append((cells, mean, var))
        eligible = [rec for rec in records if rec[1] <= threshold]
        best = min(eligible, key=lambda rec: (rec[2], rec[0]))
        lib = variance_robust_decision(system, scen, theta)
        if tuple(sorted(lib.chosen)) != best[0]:
            failures += 1
        if tuple(sorted(base.chosen)) not in {rec[0] for rec in eligible}:
            failures += 1

        k = 2
        topk_records = []
        for perm in permutations(range(4)):
            cells = tuple(sorted(4 * i + perm[i] for i in range(4)))
            vals = np.sort(scen.costs[:, list(cells)], axis=1)[:, -k:].sum(axis=1)
            mean = math.fsum(vals) / scen.count
            var = math.fsum((v - mean) ** 2 for v in vals) / scen.count
            topk_records.append((cells, mean, var))
        saa_topk = min(rec[1] for rec in topk_records)
        threshold_topk = saa_topk + k ** 0.0 * theta  # ground order 1
        eligible_topk = [rec for rec in topk_records if rec[1] <= threshold_topk + 1e-12]
        best_topk = min(eligible_topk, key=lambda rec: (rec[2], rec[0]))
        lib_topk = topk_variance_robust_decision(system, scen, theta, k, 1.0)
        if tuple(sorted(lib_topk.chosen)) != best_topk[0]:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        failures == 0 and elapsed < 120.0,
        f"100 4x4 instances, exact argmin match, {failures} failures, "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_07_total_variation_endpoints():
    rng = np.random.default_rng(7007)
    worst_zero = 0.0
    worst_two = 0.0
    monotone_breaks = 0
    for _ in range(100):
        system = _random_instance_small(rng)
        scen = ScenarioSet(
            rng.uniform(0, 10, size=(int(rng.integers(2, 7)), system.ground.n))
        )
        at_zero = tv_robust_decision(system, scen, 0.0).objective
        worst_zero = max(
            worst_zero, abs(at_zero - saa_decision(system, scen).objective)
        )
        at_two = tv_robust_decision(system, scen, 2.0).objective
        min_max = min(
            float(scen.costs[:, sorted(m)].max(axis=1).max())
            for m in enumerate_members(system)
        )
        worst_two = max(worst_two, abs(at_two - min_max))
        values = [
            tv_robust_decision(system, scen, d).objective
            for d in (0.0, 0.5, 1.0, 1.5, 2.0)
        ]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            monotone_breaks += 1
    report(
        7,
        worst_zero <= 1e-9 and worst_two <= 1e-9 and monotone_breaks == 0,
        f"endpoint gaps {worst_zero:.2e} / {worst_two:.2e} (<=1e-9), "
        f"{monotone_breaks} monotonicity breaks on 100 instances",
    )


def test_criterion_08_topk_one_reductions():
    rng = np.random.default_rng(8008)
    failures = []
    done = 0
    while done < 50:
        system = _random_instance_small(rng)
        if system.ground.n > 8:
            continue
        n = system.ground.n
        scen = ScenarioSet(rng.uniform(0, 10, size=(int(rng.integers(1, 4)), n)))
        theta = float(rng.choice([0.0, 0.4, 1.0]))
        costs = scen.costs[0]

        if topk_sum_value(system, costs, 1)[0] != bottleneck_value(system, costs).value:
            failures.append("sum")
        quote = quantify_topk(system, scen, theta, 1, 1.0)
        plain = quantify_robust(system, scen, WassersteinBall(theta)).value
        if quote.exact is None or abs(quote.exact - plain) > 0.0:
            failures.append("quantify")
        a = topk_decision(system, scen, theta, 1, 1.0)
        b = robust_decision(system, scen, theta)
        if a.objective != b.objective or a.chosen != b.chosen:
            failures.append("decision")
        va = topk_variance_robust_decision(system, scen, theta, 1, 1.0)
        vb = variance_robust_decision(system, scen, theta)
        if va.objective != vb.objective or va.chosen != vb.chosen:
            failures.append("variance")
        if calibrate_radius_topk_decision(50, 1.0, 0.1, n, 1, 2.0) != (
            calibrate_radius_decision(50, 1.0, 0.1, n)
        ):
            failures.append("radius")
        done += 1
    report(
        8,
        not failures,
        f"k=1 pipelines equal their bottleneck counterparts exactly on 50 "
        f"instances ({len(failures)} failures)",
    )


def test_criterion_09_topk_brackets_and_oracle():
    rng = np.random.default_rng(9009)
    worst_oracle = 0.0
    bracket_breaks = 0
    done = 0
    while done < 50:
        system = _random_instance_small(rng)
        n = system.ground.n
        if n > 6 or n < 2:
            continue
        k = int(rng.integers(1, 3))
        if min_member_size(system) < k:
            continue
        scen = ScenarioSet(rng.uniform(0, 10, size=(1, n)))
        theta = float(rng.uniform(0.1, 1.0))
        r = float(rng.choice([1.0, 2.0]))
        quote = quantify_topk(system, scen, theta, k, r)
        if quote.exact is None:
            continue
        if not (quote.lower - 1e-9 <= quote.exact <= quote.upper + 1e-9):
            bracket_breaks += 1
        oracle = exact_topk_oracle(brute_members(system), scen.costs[0], theta, r, k)
        worst_oracle = max(worst_oracle, abs(quote.exact - oracle) / (1.0 + abs(oracle)))
        done += 1
    report(
        9,
        bracket_breaks == 0 and worst_oracle <= 1e-12,
        f"50 instances: {bracket_breaks} bracket violations, exact-oracle gap "
        f"{worst_oracle:.2e} (<=1e-12 relative to 1 + |oracle|)",
    )


def test_criterion_10_radius_formulas():
    quant = calibrate_radius(100, 1.0, 0.05, 4, 1.0).theta
    decis = calibrate_radius_decision(100, 1.0, 0.05, 10)
    ok = abs(quant - 1.19915) <= 1e-4 and abs(decis - 0.54572) <= 1e-4
    mono_n = all(
        calibrate_radius(n, 1.0, 0.05, 4).theta
        > calibrate_radius(4 * n, 1.0, 0.05, 4).theta
        for n in (25, 100, 400)
    )
    mono_eps = all(
        calibrate_radius(100, 1.0, e1, 4).theta > calibrate_radius(100, 1.0, e2, 4).theta
        for e1, e2 in ((0.01, 0.05), (0.05, 0.2))
    )
    mono_d = calibrate_radius_decision(100, 1.0, 0.01, 10) > calibrate_radius_decision(
        100, 1.0, 0.05, 10
    )
    report(
        10,
        ok and mono_n and mono_eps and mono_d,
        f"radius values {quant:.5f} (~1.19915) and {decis:.5f} (~0.54572); "
        "monotone in N and epsilon",
    )


def test_criterion_11_coverage():
    start = time.perf_counter()
    triangle = PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2)), s=0, t=2)

    def sampler(rng, count):
        mu = np.array([3.0, 5.0, 7.0])
        return rng.normal(mu, 1.0, size=(count, 3))

    # blocker elements of the triangle have size two
    rule = lambda sigma, n: calibrate_radius(n, sigma, 0.1, 2, 1.0).theta
    rep = coverage_experiment(
        triangle,
        sampler,
        sample_count=50,
        trials=200,
        epsilon=0.1,
        radius_rule=rule,
        kind="quantify",
        seed=1111,
        reference_count=100_000,
    )
    elapsed = time.perf_counter() - start
    report(
        11,
        rep.lower_frequency >= 0.85 and rep.upper_frequency >= 0.85 and elapsed < 300.0,
        f"coverage {rep.lower_frequency:.3f} / {rep.upper_frequency:.3f} (>=0.85), "
        f"theta={rep.theta:.3f}, {elapsed:.1f}s (<300s)",
    )


def test_criterion_12_finite_transport_order():
    single = ExplicitSystem(members=(frozenset({0}),))
    scen1 = ScenarioSet([[5.0]])
    worst_analytic = 0.0
    for q in (1.0, 2.0):
        value, _ = quantify_robust_finite_order(single, scen1, 0.3, q)
        worst_analytic = max(worst_analytic, abs(value - 5.3))

    triangle = PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2)), s=0, t=2)
    costs = np.array([3.0, 5.0, 7.0])
    lams = np.linspace(0.3, 4.0, 13)
    phis = [
        lam * 0.4**2 + _scenario_dual_sup(triangle, costs, lam, 2.0, 1.0)
        for lam in lams
    ]
    min_second_diff = float(np.diff(phis, 2).min())

    value2, _ = quantify_robust_finite_order(
        triangle, ScenarioSet([costs]), 0.25, 2.0, 1.0
    )
    oracle = two_point_mixture_oracle(brute_members(triangle), costs, 0.25, 2.0, 1.0)
    grid_gap = abs(value2 - oracle)
    report(
        12,
        worst_analytic <= 1e-9 and min_second_diff >= -1e-6 and grid_gap <= 1e-4,
        f"analytic gap {worst_analytic:.2e} (<=1e-9), convexity margin "
        f"{min_second_diff:.2e} (>=-1e-6), grid gap {grid_gap:.2e} (<=1e-4)",
    )


def test_criterion_13_multihop_end_to_end():
    start = time.perf_counter()
    system, scenarios, _ = generate_multihop(
        MultihopParams(nodes=20, sample_count=100, seed=1313)
    )
    grid = [round(0.02 * i, 2) for i in range(11)]
    curves = {}
    for r in (1.0, 2.0):
        curves[r] = [
            quantify_robust(
                system,
                scenarios,
                WassersteinBall(theta, ground_order=r),
                sense="capacity",
            ).value
            for theta in grid
        ]
    monotone = all(
        all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
        for curve in curves.values()
    )
    worst_rel = max(
        abs(a - b) / abs(a) for a, b in zip(curves[1.0], curves[2.0])
    )
    elapsed = time.perf_counter() - start
    report(
        13,
        monotone and worst_rel < 0.02 and elapsed < 600.0,
        f"capacity value nonincreasing over 11 radii; ground-norm curves differ "
        f"by {worst_rel * 100:.2f}% max (<2%); {elapsed:.1f}s (<600s)",
    )
