"""Compare a run's JSON outputs with the committed reference.

Outputs are first mapped back to the base instance's labels (chosen element
sets and matching permutations are renumbered by the run's relabeling), so
one reference serves every seed.  Floats must agree within ``REL_TOL``
relative; fields in ``EXACT_KEYS`` and every non-float value must match
exactly.  Mismatches are reported with their field path.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
# values that are rounding residue, such as the decide model's
# shift_identity_gap, sit near zero, where a relative tolerance means nothing
ABS_FLOOR = 1e-12
EXACT_KEYS = frozenset({"chosen", "permutation", "selected_theta"})


def to_base_labels(output, relabel: dict):
    """Rewrite element ids and matching columns in ``output`` to base labels."""
    element_of = relabel["element_of"]
    column_of = relabel["column_of"]
    if isinstance(output, list):
        return [to_base_labels(item, relabel) for item in output]
    if not isinstance(output, dict):
        return output
    mapped = {}
    for key, value in output.items():
        if key == "chosen":
            mapped[key] = sorted(element_of[j] for j in value)
        elif key == "permutation":
            mapped[key] = [column_of[j] for j in value]
        else:
            mapped[key] = to_base_labels(value, relabel)
    return mapped


class Comparison:
    """Mismatched field paths, and how many floats matched bit for bit."""

    def __init__(self):
        self.mismatches: list[str] = []
        self.floats = 0
        self.bit_exact = 0

    def compare(self, got, want, path: str = "$", exact: bool = False) -> None:
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            self.floats += 1
            if float(got) == want or (math.isnan(got) and math.isnan(want)):
                self.bit_exact += 1
                return
            if exact or not _close(float(got), want):
                self.mismatches.append(f"{path}: got {got!r}, want {want!r}")
            return
        if isinstance(want, dict) and isinstance(got, dict):
            for key in sorted(set(want) | set(got)):
                if key not in got or key not in want:
                    self.mismatches.append(f"{path}.{key}: present on one side only")
                    continue
                self.compare(got[key], want[key], f"{path}.{key}", exact or key in EXACT_KEYS)
            return
        if isinstance(want, list) and isinstance(got, list):
            if len(got) != len(want):
                self.mismatches.append(f"{path}: length {len(got)}, want {len(want)}")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                self.compare(g, w, f"{path}[{i}]", exact)
            return
        if got != want or type(got) is not type(want):
            self.mismatches.append(f"{path}: got {got!r}, want {want!r}")


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)
