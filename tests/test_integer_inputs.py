"""One integer policy: every count, size, seed, node id and element id of the
public API goes through ``errors.check_count`` or ``errors.check_element_ids``.

Each (callable, parameter) pair in ``CASES`` is called with one bad value at
a time, every other argument valid: a bool, a fraction, a string, NaN, an
integral float, and the integer just below the least.  Each must be refused
with ``DomainError``, or ``InvalidInstanceError`` for an instance field,
never truncated, run or left to a numpy traceback.  A numpy integer gives
the same result, type for type, as the Python int.  A walk over the exported
callables fails on an integer parameter missing from the table.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import drbottleneck
from drbottleneck import (
    AssignmentSystem,
    BlockerElement,
    Clutter,
    DomainError,
    ExplicitSystem,
    GroundSet,
    InvalidInstanceError,
    MultihopParams,
    PathSystem,
    ScenarioSet,
    TreeSystem,
    TruncatedGaussianParams,
    calibrate_radius,
    calibrate_radius_decision,
    calibrate_radius_topk,
    calibrate_radius_topk_decision,
    check_gap_bounds,
    coverage_experiment,
    cross_validate,
    decision_worst_case_distribution,
    element_level,
    indifference_set,
    matching_permutation,
    topk_blocker_enumerate,
    topk_decision,
    topk_record,
    topk_sum_value,
    topk_variance_robust_decision,
)
from drbottleneck.errors import check_element_ids

ASSIGN = AssignmentSystem(m=2)
SCEN = ScenarioSet(np.array([[1.0, 4.0, 3.0, 2.0], [2.0, 1.0, 5.0, 3.0], [3.0, 3.0, 1.0, 4.0],
                             [4.0, 2.0, 2.0, 1.0], [1.5, 2.5, 3.5, 0.5], [2.0, 2.0, 2.0, 2.0]]))
TRIANGLE = ((0, 1), (1, 2), (0, 2))
GAUSS = {"means": (1.0,) * 4, "base_std": (0.1,) * 4, "scale": 1.0}


def _uniform(rng, count):
    return rng.uniform(0.0, 10.0, size=(count, 4))


def _split(**kwargs):
    args = {"train_size": 3, "repeats": 2, "seed": 1, **kwargs}
    return cross_validate(ASSIGN, SCEN, [0.0, 0.5], **args)


def _coverage(**kwargs):
    args = {"sample_count": 3, "trials": 2, "seed": 0, "reference_count": 40, **kwargs}
    return coverage_experiment(ASSIGN, _uniform, epsilon=0.1,
                               radius_rule=lambda s, n: calibrate_radius(n, s, 0.1, 2), **args)


class Case(NamedTuple):
    call: Callable  # the callable with only the fuzzed parameter left open
    valid: int
    least: int
    error: type = DomainError


CASES = {
    # element ids
    ("element_level", "elements"): Case(
        lambda e: element_level([1.0, 2.0, 3.0], [0, e], 0.5), 1, 0),
    ("decision_worst_case_distribution", "chosen"): Case(
        lambda e: decision_worst_case_distribution([0, e], SCEN, 0.5), 3, 0),
    ("IndifferenceSet.contains", "elements"): Case(
        lambda e: indifference_set(ASSIGN, SCEN, 0.5).contains([0, e]), 3, 0),
    ("matching_permutation", "chosen"): Case(lambda e: matching_permutation(ASSIGN, [0, e]), 3, 0),
    ("BlockerElement", "elements"): Case(lambda e: BlockerElement([0, e]), 1, 0),
    # k
    ("topk_sum_value", "k"): Case(lambda k: topk_sum_value(ASSIGN, SCEN.costs[0], k), 2, 1),
    ("topk_decision", "k"): Case(lambda k: topk_decision(ASSIGN, SCEN, 0.5, k), 2, 1),
    ("topk_variance_robust_decision", "k"): Case(
        lambda k: topk_variance_robust_decision(ASSIGN, SCEN, 0.5, k), 2, 1),
    ("topk_record", "k"): Case(lambda k: topk_record(ASSIGN, SCEN, k), 2, 1),
    ("topk_blocker_enumerate", "k"): Case(
        lambda k: topk_blocker_enumerate(Clutter((frozenset({0, 3}), frozenset({1, 2}))), k), 2, 1),
    ("calibrate_radius_topk", "k"): Case(lambda k: calibrate_radius_topk(10, 1.0, 0.1, k), 2, 1),
    ("calibrate_radius_topk_decision", "k"): Case(
        lambda k: calibrate_radius_topk_decision(10, 1.0, 0.1, 4, k), 2, 1),
    # sample counts and sizes
    ("calibrate_radius", "sample_count"): Case(lambda n: calibrate_radius(n, 1.0, 0.1, 2), 10, 1),
    ("calibrate_radius", "blocker_size"): Case(lambda b: calibrate_radius(10, 1.0, 0.1, b), 2, 1),
    ("calibrate_radius_decision", "sample_count"): Case(
        lambda n: calibrate_radius_decision(n, 1.0, 0.1, 4), 10, 1),
    ("calibrate_radius_decision", "ground_n"): Case(
        lambda g: calibrate_radius_decision(10, 1.0, 0.1, g), 4, 0),
    ("calibrate_radius_topk", "sample_count"): Case(
        lambda n: calibrate_radius_topk(n, 1.0, 0.1, 2), 10, 1),
    ("calibrate_radius_topk", "union_size"): Case(
        lambda u: calibrate_radius_topk(10, 1.0, 0.1, 2, 2.0, u), 3, 1),
    ("calibrate_radius_topk_decision", "sample_count"): Case(
        lambda n: calibrate_radius_topk_decision(n, 1.0, 0.1, 4, 2), 10, 1),
    ("calibrate_radius_topk_decision", "ground_n"): Case(
        lambda g: calibrate_radius_topk_decision(10, 1.0, 0.1, g, 2), 4, 0),
    ("check_gap_bounds", "blocker_size"): Case(
        lambda b: check_gap_bounds(3.5, 3.0, 0.5, 1.0, b), 2, 1),
    # cross-validation and coverage
    ("cross_validate", "train_size"): Case(lambda n: _split(train_size=n), 3, 1),
    ("cross_validate", "repeats"): Case(lambda r: _split(repeats=r), 2, 1),
    ("cross_validate", "seed"): Case(lambda s: _split(seed=s), 1, 0),
    ("coverage_experiment", "sample_count"): Case(lambda n: _coverage(sample_count=n), 3, 1),
    ("coverage_experiment", "trials"): Case(lambda t: _coverage(trials=t), 2, 1),
    ("coverage_experiment", "reference_count"): Case(lambda n: _coverage(reference_count=n), 40, 2),
    ("coverage_experiment", "seed"): Case(lambda s: _coverage(seed=s), 1, 0),
    # instances
    ("AssignmentSystem", "m"): Case(lambda m: AssignmentSystem(m=m), 2, 1, InvalidInstanceError),
    ("PathSystem", "nodes"): Case(
        lambda n: PathSystem(nodes=n, edges=TRIANGLE, s=0, t=2), 3, 2, InvalidInstanceError),
    ("PathSystem", "s"): Case(
        lambda s: PathSystem(nodes=3, edges=TRIANGLE, s=s, t=2), 0, 0, InvalidInstanceError),
    ("PathSystem", "t"): Case(
        lambda t: PathSystem(nodes=3, edges=TRIANGLE, s=0, t=t), 2, 0, InvalidInstanceError),
    ("TreeSystem", "nodes"): Case(
        lambda n: TreeSystem(nodes=n, edges=TRIANGLE), 3, 2, InvalidInstanceError),
    ("ExplicitSystem", "n"): Case(
        lambda n: ExplicitSystem(members=({0, 1}, {2}), n=n), 3, 0, InvalidInstanceError),
    ("ExplicitSystem", "members"): Case(
        lambda e: ExplicitSystem(members=({0, e}, {2})), 1, 0, InvalidInstanceError),
    ("GroundSet", "n"): Case(lambda n: GroundSet(n), 3, 1, InvalidInstanceError),
    # generators
    ("MultihopParams", "nodes"): Case(lambda n: MultihopParams(nodes=n), 3, 2),
    ("MultihopParams", "sample_count"): Case(lambda n: MultihopParams(sample_count=n), 2, 1),
    ("MultihopParams", "seed"): Case(lambda s: MultihopParams(seed=s), 1, 0),
    ("MultihopParams", "source"): Case(lambda s: MultihopParams(source=s), 2, 0),
    ("MultihopParams", "sink"): Case(lambda s: MultihopParams(sink=s), 2, 0),
    ("TruncatedGaussianParams", "sample_count"): Case(
        lambda n: TruncatedGaussianParams(**GAUSS, sample_count=n), 2, 1),
    ("TruncatedGaussianParams", "seed"): Case(
        lambda s: TruncatedGaussianParams(**GAUSS, sample_count=2, seed=s), 1, 0),
}

#: Parameters whose names the walk collects but which are not integer inputs:
#: a cost threshold, and the fields of result records the package builds.  A
#: blocker element is a record too, but callers build it as a certificate, so
#: its ids are checked.
NOT_INTEGER_INPUTS = {
    ("feasible_at_threshold", "t"): "a cost threshold, a float",
    ("CoverageReport", "trials"): "a result record",
    ("CrossValReport", "repeats"): "a result record",
    ("CrossValReport", "train_size"): "a result record",
    ("DecisionReport", "chosen"): "a result record",
    ("TopkQuote", "union_size"): "a result record",
    ("TopkRecord", "k"): "a record that topk_record builds",
    ("TopkRecord", "union_size"): "a record that topk_record builds",
}

INTEGER_NAMES = {
    "k", "sample_count", "blocker_size", "union_size", "ground_n", "train_size", "repeats",
    "trials", "reference_count", "seed", "m", "nodes", "n", "s", "t", "elements", "chosen",
}

BAD_VALUES = {"bool": True, "fraction": 2.5, "string": "2", "nan": math.nan, "integral-float": 2.0}


def test_every_integer_parameter_is_fuzzed():
    found = set()
    for name in dir(drbottleneck):
        obj = getattr(drbottleneck, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # the exception classes
            continue
        found.update((name, p) for p in parameters if p in INTEGER_NAMES)
    assert found - CASES.keys() - NOT_INTEGER_INPUTS.keys() == set()
    assert NOT_INTEGER_INPUTS.keys() <= found


@pytest.mark.parametrize("pair", CASES, ids=[".".join(pair) for pair in CASES])
@pytest.mark.parametrize("bad", [*BAD_VALUES, "below-least"])
def test_non_integers_refused(pair, bad):
    case = CASES[pair]
    value = case.least - 1 if bad == "below-least" else BAD_VALUES[bad]
    with pytest.raises(case.error) as refused:
        case.call(value)
    assert type(refused.value) is case.error


@pytest.mark.parametrize("pair", CASES, ids=[".".join(pair) for pair in CASES])
def test_numpy_integers_match_python_ints(pair):
    case = CASES[pair]
    assert repr(case.call(np.int64(case.valid))) == repr(case.call(case.valid))


def test_repeated_element_ids_count_once():
    """A repeated id is one element, as in a set: ``[0, 0]`` lifts element 0
    once, to the level that ``[0]`` gives, where counting it twice gave 1.5."""
    costs = [1.0, 2.0, 3.0]
    assert element_level(costs, [0, 0], 1.0) == element_level(costs, [0], 1.0) == 2.0
    assert element_level(costs, [1, 0, 1], 1.0) == element_level(costs, {0, 1}, 1.0)
    assert check_element_ids([2, 0, 2, np.int64(1), 0], 3) == [0, 1, 2]
