"""Empirical scenario sets and their CSV persistence, and the package's one
file writer.

A scenario set holds N observed cost vectors over the ground elements.  The
CSV layout is one header row of element ids (0..n-1) followed by one row per
scenario; floats are written with shortest round-trip precision so that
save followed by load is the identity.  Every file the package writes, the
scenario CSV and the command line's outputs, goes through ``write_in_place``.
"""

from __future__ import annotations

import csv
import io
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScenarioParseError
from .systems import CombinatorialSystem


@dataclass(frozen=True)
class ScenarioSet:
    """N empirical cost vectors of common length n."""

    costs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.costs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError("scenario costs must form a nonempty N-by-n matrix")
        if not np.all(np.isfinite(arr)):
            raise DomainError("scenario costs must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)

    @property
    def count(self) -> int:
        return self.costs.shape[0]

    @property
    def width(self) -> int:
        return self.costs.shape[1]


def require_matching_width(scenarios: ScenarioSet, system: CombinatorialSystem) -> None:
    n = system.ground.n
    if scenarios.width != n:
        offending = min(scenarios.width, n)
        raise DomainError(
            f"scenario width {scenarios.width} does not match the instance "
            f"ground size {n}; first offending column is {offending}"
        )


def write_in_place(path, text: str, newline: str | None = None) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one call, in place.

    An existing file is written over from its start, then truncated at the
    written length if it was longer, so it keeps its inode and permissions
    and is never truncated to zero first, which on ext4 costs several times
    the write.  A new file is created with mode 0o666 less the umask, as by
    ``open``.  Only a regular file is truncated: ``/dev/null`` and other
    devices refuse ``ftruncate``.  ``newline`` is ``open``'s.  Nothing is
    fsynced, and a write that fails part way leaves a damaged file, as
    ``open(path, "w")`` does; here the old bytes past the new ones may
    remain.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline, encoding="utf-8") as fh:
        old = os.fstat(fd)
        fh.write(text)
        if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
            fh.truncate()


def save_scenarios(path, scenarios: ScenarioSet) -> None:
    """Write a scenario CSV file, built in memory and rewritten in place in
    one call by ``write_in_place``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(range(scenarios.width))
    writer.writerows([repr(x) for x in row] for row in scenarios.costs.tolist())
    write_in_place(path, text.getvalue(), newline="")


def _parse_header(row: list[str]) -> int:
    for col, cell in enumerate(row):
        try:
            value = int(cell)
        except ValueError:
            raise ScenarioParseError(
                f"header cell {cell!r} is not an element id", row=0, column=col
            )
        if value != col:
            raise ScenarioParseError(
                f"header ids must be dense 0..n-1; got {value} at column {col}",
                row=0,
                column=col,
            )
    if not row:
        raise ScenarioParseError("empty header row", row=0)
    return len(row)


def _read_header(reader) -> int:
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioParseError("scenario file is empty", row=0)
    return _parse_header(header)


def load_scenarios(path) -> ScenarioSet:
    """Read a scenario CSV file.

    The rows after the header are parsed in one ``np.loadtxt`` call.  It
    accepts a subset of ``float``'s grammar (no quotes, underscores or
    non-ASCII digits), reads every value it accepts as ``float`` does and
    skips the same empty lines as the ``csv`` reader.  A file it refuses,
    or whose width is not the header's, is read again cell by cell, which
    locates the bad cell: every error, with its row and column, is that of
    the cell-by-cell read.  A file that is not UTF-8 text is refused.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            width = _read_header(csv.reader(fh))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a body without rows warns
                    costs = np.loadtxt(fh, delimiter=",", dtype=float, comments=None, ndmin=2)
            except Exception:  # any refusal: the cell-by-cell read raises its error
                costs = None
        if costs is None or costs.shape[1] != width:
            return _load_cells(path)
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"scenario file is not UTF-8 text: {exc}") from None
    return ScenarioSet(costs)


def _load_cells(path) -> ScenarioSet:
    """``load_scenarios`` one cell at a time, raising at the first bad one."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = _read_header(reader)
        rows = []
        for idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise ScenarioParseError(
                    f"row {idx} has {len(row)} cells, expected {width}", row=idx
                )
            values = []
            for col, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ScenarioParseError(
                        f"cell {cell!r} is not numeric", row=idx, column=col
                    )
            rows.append(values)
        if not rows:
            raise ScenarioParseError("no scenario rows found", row=1)
        return ScenarioSet(np.array(rows, dtype=float))
