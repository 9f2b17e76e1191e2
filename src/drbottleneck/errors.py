"""Exception types shared across the toolkit, the radius, ground norm order
and element id checks shared by every module that takes one, and the exact
sums every reported average is taken with.

Every error carries a short machine-readable ``kind`` tag; the CLI maps these
tags to exit codes.
"""

import math


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


def check_element_ids(elements, n: int) -> list[int]:
    """``elements`` as a sorted list, once it is a nonempty set of ids of the
    ground set 0..n-1."""
    ids = sorted(elements)
    if not ids or ids[0] < 0 or ids[-1] >= n:
        raise DomainError(f"elements must be a nonempty set of ground element ids 0..{n - 1}")
    return ids


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
