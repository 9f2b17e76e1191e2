"""Exception types shared across the toolkit, and the radius, ground norm
order and element id checks shared by every module that takes one.

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
