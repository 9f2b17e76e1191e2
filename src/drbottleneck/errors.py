"""Exception types shared across the toolkit, the radius, ground norm order,
transport order, count and element id checks shared by every module that
takes one, and the exact sums every reported average is taken with.

Every error carries a short machine-readable ``kind`` tag; the CLI maps these
tags to exit codes.
"""

import math
import operator
from bisect import bisect_left


class SolverError(Exception):
    """Base class for all toolkit errors."""

    kind = "error"


class InvalidInstanceError(SolverError):
    """The combinatorial instance is malformed or infeasible."""

    kind = "invalid-instance"


class DomainError(SolverError):
    """An argument lies outside its documented domain."""

    kind = "domain"


class EnumerationLimitError(SolverError):
    """An exact enumeration was refused because the instance is too large."""

    kind = "scale-guard"


class ConvergenceError(SolverError):
    """An iterative numerical routine failed to converge."""

    kind = "convergence"


class InvariantViolationError(SolverError):
    """A mathematical identity that must hold was violated at runtime."""

    kind = "invariant"


class ScenarioParseError(SolverError):
    """A scenario file could not be parsed.

    ``row`` and ``column`` locate the offending entry when known (0-based,
    header row is row 0).
    """

    kind = "parse"

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


def check_radius(radius) -> None:
    """Refuse a negative, infinite or NaN radius; every public radius passes here."""
    if not 0 <= radius < math.inf:
        raise DomainError("radius must be finite and nonnegative")


def check_ground_order(r) -> float:
    """``r`` as a float, once it is a supported ground norm order.

    The per-element budget radius^r and the radius rules' 1/r powers need a
    finite r >= 1; every public ``ground_order`` passes through here.
    """
    if not 1 <= r < math.inf:
        raise DomainError("ground norm order must be finite and at least 1")
    return float(r)


def check_transport_order(q, finite: bool = False) -> float:
    """``q`` as a float, once it is a transport order: at least 1, and finite
    where ``finite``; inf is order infinity.  NaN fails both comparisons.
    Every public transport order passes here."""
    if not (1 <= q < math.inf if finite else 1 <= q <= math.inf):
        raise DomainError(
            f"transport order must be {'finite and ' if finite else ''}at least 1, got {q!r}"
        )
    return float(q)


def check_count(value, name: str, least: int = 1, *, most: float = math.inf,
                error: type[SolverError] = DomainError) -> int:
    """``value`` as an int, once it is an integer from ``least`` to ``most``.

    Every count, size, seed and node id passes here.  A Python or numpy
    integer passes; a bool, a float (an integral one too, as ``range`` and
    numpy's ``SeedSequence`` refuse it), a string or NaN is refused with
    ``error``, as is a value out of range.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or not least <= count <= most:
        bounds = f"of at least {least}" if most == math.inf else f"from {least} to {most}"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return count


def check_element_ids(elements, n: int) -> list[int]:
    """``elements`` as a sorted list of its distinct ints, once it is a
    nonempty collection of integer ids of the ground set 0..n-1, refused as
    ``check_count`` would; a repeated id counts once, as in a set."""
    try:
        ids = sorted(elements)
        if type(sum(ids)) is not int:  # a float, NaN or numpy integer is among them
            ids = sorted(map(operator.index, ids))
    except TypeError:  # a string, or a float
        ids = []
    # a bool adds and sorts as 0 or 1, so it lies among the ids below 2
    if not ids or ids[0] < 0 or ids[-1] >= n or bool in map(type, ids[:bisect_left(ids, 2)]):
        raise DomainError(f"elements must be a nonempty set of ground element ids 0..{n - 1}")
    return sorted(set(ids))


# Every average the package reports is an exact sum over a count.  An exact
# sum past the float range is an input out of range, so it is refused, naming
# one of two subjects; only the blocker weights saturate instead.
DECISION_OBJECTIVE, ROBUST_VALUE = "decision objective", "robust value"


def overflow_error(subject: str) -> DomainError:
    return DomainError(f"{subject} overflows the float range; scenario costs are too large")


def exact_sum(values, subject: str = ROBUST_VALUE) -> float:
    """``math.fsum`` of ``values``, refused past the float range."""
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise overflow_error(subject) from exc


def exact_row_sums(rows, subject: str = ROBUST_VALUE) -> list[float]:
    """``exact_sum`` of each row under one guard, one call for a whole block."""
    try:
        return [math.fsum(row) for row in rows]
    except OverflowError as exc:
        raise overflow_error(subject) from exc


def exact_mean(values) -> float:
    """``exact_sum`` over the length; the decision searches call it once a state."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError as exc:
        raise overflow_error(DECISION_OBJECTIVE) from exc


def exact_variance(values, mean: float) -> float:
    """Population variance (divisor N) about ``mean``, summed exactly; a
    difference past the float range is inf, as is its square, and is refused."""
    variance = exact_sum(((v - mean) ** 2 for v in values), DECISION_OBJECTIVE) / len(values)
    if variance == math.inf:
        raise overflow_error(DECISION_OBJECTIVE)
    return variance


def saturating_sum(weights) -> float:
    """``math.fsum`` of nonnegative weights, or ``math.inf`` where it overflows:
    the blocker oracles and the finite-order spend test only compare sums."""
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf
