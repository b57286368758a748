"""Output checks computed apart from the program under test.

Every checker takes plain values (parsed CSV text, Python lists, NumPy
arrays) and recomputes the property it guards with its own arithmetic; none
of them calls into ``repro``.  A checker returns normally when the output is
right and raises :class:`CheckFailed` with a one-line reason when it is not.
The benchmark counts a failed check as a failed operation.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Relative tolerance for recomputed floating-point figures.  The program and
#: the checks sum the same terms in different orders.
RTOL = 1e-9

_INTERVAL = re.compile(r"^\[(-?[^-\]]+)-(-?[^\]]+)\]$")
_SUPPRESSED = "*"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_close(what: str, expected: float, reported: float) -> float:
    """``reported`` equals the recomputed ``expected`` within :data:`RTOL`."""
    if not math.isclose(expected, reported, rel_tol=RTOL, abs_tol=0.0):
        raise CheckFailed(f"{what} {reported!r} differs from the recomputed {expected!r}")
    return expected


@dataclass
class ParsedRelease:
    """A release CSV as text cells: names, declared roles and data rows."""

    columns: list[str]
    roles: list[str]
    rows: list[list[str]]

    def column(self, role: str) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r == role]

    def identifiers(self) -> list[str]:
        (index,) = self.column("identifier")
        return [row[index] for row in self.rows]

    def quasi_identifier_cells(self) -> list[tuple[str, ...]]:
        indices = self.column("quasi_identifier")
        return [tuple(row[i] for i in indices) for row in self.rows]

    def quasi_identifier_matrix(self) -> np.ndarray:
        """Numeric representatives (interval midpoints) of the QI cells."""
        return representatives(self.quasi_identifier_cells())


def parse_release_csv(body: bytes) -> ParsedRelease:
    """Parse a served CSV (header row, ``role:kind`` row, data rows)."""
    reader = csv.reader(io.StringIO(body.decode("utf-8"), newline=""))
    try:
        columns = next(reader)
        declarations = next(reader)
    except StopIteration:
        raise CheckFailed("release CSV has no header rows") from None
    if len(columns) != len(declarations):
        raise CheckFailed("release CSV header rows differ in width")
    roles = [declaration.split(":", 1)[0] for declaration in declarations]
    if roles.count("identifier") != 1:
        raise CheckFailed(f"release CSV declares {roles.count('identifier')} identifier columns")
    if "sensitive" in roles:
        raise CheckFailed("release CSV still carries the sensitive column")
    rows = list(reader)
    if any(len(row) != len(columns) for row in rows):
        raise CheckFailed("release CSV has ragged rows")
    return ParsedRelease(columns, roles, rows)


def class_sizes(qi_cells: Sequence[tuple]) -> list[int]:
    """Equivalence-class sizes of released rows, grouped by their QI cells.

    Rows whose every quasi-identifier cell is suppressed (``*``) are withheld
    records: they publish no quasi-identifier value, so they form no class.
    """
    counts = Counter(
        cells for cells in qi_cells if not all(cell == _SUPPRESSED for cell in cells)
    )
    return list(counts.values())


def check_k_anonymous(qi_cells: Sequence[tuple], k: int) -> list[int]:
    """Every equivalence class has at least ``k`` rows; returns the sizes."""
    sizes = class_sizes(qi_cells)
    if not sizes:
        raise CheckFailed("release has no equivalence classes")
    smallest = min(sizes)
    if smallest < k:
        raise CheckFailed(f"release is not {k}-anonymous: smallest class has {smallest} rows")
    return sizes


def check_identifiers(released: Sequence[str], expected: Sequence[str]) -> None:
    """Row count and identifier order are preserved."""
    if len(released) != len(expected):
        raise CheckFailed(f"release has {len(released)} rows, expected {len(expected)}")
    for position, (got, want) in enumerate(zip(released, expected)):
        if got != want:
            raise CheckFailed(f"row {position} is {got!r}, expected {want!r}")


def check_utility(sizes: Sequence[int], reported: float) -> float:
    """``U_k`` equals ``1 / sum |E|^2`` over the class sizes."""
    return check_close("utility 1/sum|E|^2", 1.0 / float(sum(s * s for s in sizes)), reported)


def cell_value(cell: object) -> float:
    """The numeric representative of a released cell (interval midpoint).

    ``cell`` is CSV text (``[low-high]`` or a number) or, for in-memory
    releases, a ``(low, high)`` pair or a number.
    """
    if isinstance(cell, str):
        match = _INTERVAL.match(cell)
        if match:
            return (float(match.group(1)) + float(match.group(2))) / 2.0
        return float(cell)
    if isinstance(cell, tuple):  # (low, high) bounds of an interval
        return (float(cell[0]) + float(cell[1])) / 2.0
    return float(cell)


def representatives(rows: Sequence[tuple]) -> np.ndarray:
    """The ``(rows, columns)`` matrix of :func:`cell_value` of each cell.

    Released rows repeat the same few generalized cells, so each distinct
    cell is converted once.
    """
    memo: dict[object, float] = {}
    matrix = np.empty((len(rows), len(rows[0]) if rows else 0))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            value = memo.get(cell)
            if value is None:
                value = memo[cell] = cell_value(cell)
            matrix[i, j] = value
    return matrix


def dissimilarity(private: np.ndarray, estimate: np.ndarray) -> float:
    """``(1/m) Tr(D^T D)`` with ``D = private - estimate``, summed cell by cell."""
    private = np.asarray(private, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if private.shape != estimate.shape:
        raise CheckFailed(f"matrices differ in shape: {private.shape} vs {estimate.shape}")
    rows = private.shape[0]
    total = 0.0
    for column in range(private.shape[1]):
        delta = private[:, column] - estimate[:, column]
        total += float(np.dot(delta, delta))
    return total / rows


def check_dissimilarity(
    private: np.ndarray, estimate: np.ndarray, reported: float
) -> float:
    """The after-fusion dissimilarity equals its definition."""
    return check_close("dissimilarity (1/m)Tr(D^T D)", dissimilarity(private, estimate), reported)


def check_in_universe(estimates: Sequence[float], low: float, high: float) -> None:
    """Every attack estimate is finite and inside ``[low, high]``."""
    values = np.asarray(estimates, dtype=float)
    if values.size == 0:
        raise CheckFailed("attack returned no estimates")
    if not np.isfinite(values).all():
        raise CheckFailed("attack returned a non-finite estimate")
    slack = 1e-9 * max(abs(low), abs(high), 1.0)
    below = values < low - slack
    above = values > high + slack
    if below.any() or above.any():
        bad = float(values[below | above][0])
        raise CheckFailed(f"estimate {bad!r} lies outside the universe [{low}, {high}]")


def minmax(values: Sequence[float]) -> list[float]:
    low, high = min(values), max(values)
    if high <= low:
        return [0.5] * len(values)
    return [(v - low) / (high - low) for v in values]


def check_optimum(
    levels: Sequence[int],
    protections: Sequence[float],
    utilities: Sequence[float],
    reported_feasible: Sequence[bool],
    chosen: int,
    weights: tuple[float, float] = (0.5, 0.5),
    thresholds: tuple[float | None, float | None] = (None, None),
) -> None:
    """``k*`` is feasible and maximizes ``W1 p~ + W2 u~`` (min-max scaled).

    Feasibility is recomputed from the per-level values and the thresholds
    ``(Tp, Tu)`` (``None`` means no threshold): a level is feasible when
    ``protection_after >= Tp`` and ``utility >= Tu``.  The program's own
    flags must agree with the recomputed ones.
    """
    if chosen not in levels:
        raise CheckFailed(f"k*={chosen} is not one of the swept levels {list(levels)}")
    protection_floor, utility_floor = thresholds
    feasible = [
        (protection_floor is None or p >= protection_floor)
        and (utility_floor is None or u >= utility_floor)
        for p, u in zip(protections, utilities)
    ]
    for level, ours, theirs in zip(levels, feasible, reported_feasible):
        if ours != bool(theirs):
            raise CheckFailed(f"level {level} is reported feasible={theirs} but is {ours}")
    scores = [
        weights[0] * p + weights[1] * u
        for p, u in zip(minmax(protections), minmax(utilities))
    ]
    at = list(levels).index(chosen)
    if not feasible[at]:
        raise CheckFailed(f"k*={chosen} is not feasible")
    best = max(s for s, ok in zip(scores, feasible) if ok)
    if scores[at] < best - 1e-12:
        raise CheckFailed(
            f"k*={chosen} scores {scores[at]!r} but the best feasible level scores {best!r}"
        )


def linkage_quality(
    queries: Sequence[str],
    harvested: dict[str, tuple],
    truth: dict[str, tuple],
) -> tuple[float, float]:
    """Precision and recall of a harvest against the generator's page owners.

    ``harvested`` maps each matched query to the facts of the page it was
    linked to; ``truth`` maps each person who owns a page to that page's
    facts.  A match is correct when the linked facts are the owner's own.
    """
    correct = sum(1 for name, facts in harvested.items() if truth.get(name) == facts)
    owners = sum(1 for name in queries if name in truth)
    precision = correct / len(harvested) if harvested else 0.0
    recall = correct / owners if owners else 0.0
    return precision, recall


def check_linkage(
    queries: Sequence[str],
    harvested: dict[str, tuple],
    truth: dict[str, tuple],
    min_precision: float,
    min_recall: float,
) -> tuple[float, float]:
    """Linkage precision and recall reach their floors."""
    precision, recall = linkage_quality(queries, harvested, truth)
    if precision < min_precision:
        raise CheckFailed(f"linkage precision {precision:.4f} is below {min_precision}")
    if recall < min_recall:
        raise CheckFailed(f"linkage recall {recall:.4f} is below {min_recall}")
    return precision, recall


def check_same_body(first: bytes, body: bytes) -> None:
    """A cached body is byte-identical to the first body served."""
    if body != first:
        raise CheckFailed(
            f"cached body differs from the first one ({len(body)} vs {len(first)} bytes)"
        )
