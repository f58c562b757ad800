"""Closed-form edge-distance rules for the sunlet and prism families.

This module encodes two things for each family:

* a base table of distances from a fixed base edge (:data:`BASE_EDGE`:
  ``e0`` for the sunlet, ``f0`` for the prism), written as explicit
  distance-class rows, and
* one translation rule that reduces the distance between any two labeled
  edges to the base-table value at their cyclic offset ``m`` plus a
  correction of at most 1.  The correction depends on ``m`` only through
  the sign of ``2m - n``, so the rule has no parity cases.

The rules are a model under test, not an authority: BFS on the line graph
is ground truth, and :func:`verify_family` reports every pair where the
rules disagree with it.  A few case boundaries in the symbolic coordinate
templates were ambiguous as commonly stated and were resolved numerically;
see ``docs/closed_form_notes.md`` for the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .core import DistanceMatrix
from .families import FamilyParameterError, LabeledGraph, make_prism, make_sunlet

SUNLET = "sunlet"
PRISM = "prism"

_MIN_N = {SUNLET: 4, PRISM: 6}

# The edge each family's base table measures from.  Its class is also the
# class read first in a mixed pair by the distance rule.
BASE_EDGE = {SUNLET: "e0", PRISM: "f0"}


class InvalidLabelError(ValueError):
    """An edge label does not belong to the family."""


def parse_label(label: str) -> tuple[str, int]:
    cls, idx = label[:1], label[1:]
    if cls not in ("e", "f", "g") or not idx.isdigit():
        raise InvalidLabelError(f"bad edge label {label!r}")
    return cls, int(idx)


def _check_family(family: str, n: int) -> None:
    if family not in _MIN_N:
        raise FamilyParameterError(f"no closed-form rules for family {family!r}")
    if n < _MIN_N[family]:
        raise FamilyParameterError(
            f"closed-form rules for {family} need n >= {_MIN_N[family]}"
        )


def make_family(family: str, n: int) -> LabeledGraph:
    _check_family(family, n)
    return make_sunlet(n) if family == SUNLET else make_prism(n)


def base_table(family: str, n: int) -> dict[str, int]:
    """Distance of every labeled edge from the family's base edge.

    Built from the distance-class rows: the inverse image of ``i`` is the
    set of edges at edge distance exactly ``i`` from the base.
    """
    _check_family(family, n)
    k = n // 2
    table: dict[str, int] = {}

    def put(label: str, value: int) -> None:
        # overlapping rows must agree (they do at i = k for even n)
        assert table.setdefault(label, value) == value, (label, value)

    put(BASE_EDGE[family], 0)
    if family == SUNLET:
        for i in range(1, k + 1):
            for label in (f"f{i-1}", f"e{i}", f"f{n-i}", f"e{n-i}"):
                put(label, i)
        if n % 2 == 1:
            put(f"f{k}", k + 1)
        assert len(table) == 2 * n
    else:
        for label in ("e0", "g0", f"e{n-1}", f"g{n-1}"):
            put(label, 1)
        for i in range(2, k + 1):
            for label in (
                f"f{i-1}", f"e{i-1}", f"g{i-1}",
                f"f{n+1-i}", f"e{n-i}", f"g{n-i}",
            ):
                put(label, i)
        if n % 2 == 0:
            put(f"f{k}", k + 1)
        else:
            for label in (f"f{k}", f"e{k}", f"g{k}", f"f{k+1}"):
                put(label, k + 1)
        assert len(table) == 3 * n
    return table


def closed_edge_distance(family: str, n: int, a: str, b: str) -> int:
    """Edge distance between two labeled edges by the closed-form rules."""
    (ca, i), (cb, j) = parse_label(a), parse_label(b)
    if family == SUNLET and "g" in (ca, cb):
        raise InvalidLabelError("sunlet edges are labeled e* and f* only")
    return _rule(family, n, base_table(family, n), ca, cb, j % n - i % n)


def _rule(family: str, n: int, base: dict[str, int], ca: str, cb: str, offset: int) -> int:
    """Distance from ``ca{i}`` to ``cb{j}`` as a function of ``offset = j - i``.

    The indices are reduced mod ``n`` first, so ``-n < offset < n``, and the
    rule reads nothing but the class pair and this signed offset: the
    base-table value at ``m = |offset|`` plus one correction.  A mixed pair
    is read with the base edge's class first, negating the offset: (e_i, f_j)
    on the sunlet, (f_i, x_j) on the prism; an e/g pair stays unordered.
    Every correction depends on ``m`` only through the sign of ``2m - n``, so
    no rule branches on the parity of ``n``.  The result is symmetric by
    construction: swapping the classes and negating the offset keeps it.
    """
    if ca == cb and offset == 0:
        return 0
    first = BASE_EDGE[family][0]
    if cb == first != ca:
        ca, cb, offset = cb, ca, -offset
    m = abs(offset)
    d = 2 * m - n
    value = base[f"{cb}{m}"]
    if ca == cb == first:  # sunlet e/e, prism f/f
        return value
    if ca == cb:  # sunlet f/f, prism e/e and g/g
        return value + (d >= 0) if family == SUNLET else value - (d < 0)
    if ca == first:  # base class against another class, read with i > j
        return value + ((d > 0) - (d < 0) if offset < 0 else 0)
    return value + (1 if m == 0 else d >= 0)  # prism e/g


@dataclass(frozen=True)
class Deviation:
    """One pair where the closed-form value disagrees with BFS."""

    family: str
    n: int
    pair: tuple[str, str]
    formula_value: int
    bfs_value: int

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "pair": list(self.pair),
            "formula": self.formula_value,
            "bfs": self.bfs_value,
        }


def family_pair_count(family: str, n: int) -> int:
    m = 2 * n if family == SUNLET else 3 * n
    return m * (m - 1) // 2 + m


def verify_family(family: str, ns: Iterable[int]) -> list[Deviation]:
    """Compare the closed-form rules against BFS for every label pair.

    Each class pair's rule is tabulated once per ``n`` over the offsets
    ``1 - n .. n - 1``.  The BFS row of ``ca{i}`` on class ``cb`` is compared
    whole with the slice for offsets ``-i .. n - 1 - i``, so every pair is
    checked in both orientations; only a row that disagrees is walked.
    Returns all deviations, read as ``(a, b)`` with ``a <= b``, in (n, pair)
    order; an empty list means the rules reproduce BFS exactly.
    """
    deviations: list[Deviation] = []
    for n in sorted(set(ns)):
        lg = make_family(family, n)
        dm = lg.graph.line_distance_matrix
        base = base_table(family, n)
        classes = "ef" if family == SUNLET else "efg"
        labels = {c: [f"{c}{i}" for i in range(n)] for c in classes}
        lines = {c: [lg.line_index(label) for label in labels[c]] for c in classes}
        found = []
        for ca in classes:
            for cb in classes:
                # via a list, so the tuple is allocated at its final size; one grown
                # from a generator is freed into that size's free list, which then grows
                table = tuple([_rule(family, n, base, ca, cb, off) for off in range(1 - n, n)])
                read = itemgetter(*lines[cb])
                for i, (a, x) in enumerate(zip(labels[ca], lines[ca])):
                    got, want = table[n - 1 - i:2 * n - 1 - i], read(dm[x])
                    if got != want:
                        found += [((a, b), g, w) for b, g, w in zip(labels[cb], got, want)
                                  if g != w and a <= b]
        deviations += (Deviation(family, n, pair, g, w) for pair, g, w in sorted(found))
    return deviations


# ---------------------------------------------------------------------------
# Landmark coordinate tables
# ---------------------------------------------------------------------------

def reference_landmarks(family: str, n: int) -> tuple[str, str, str]:
    """The 3-edge landmark set whose coordinate table certifies minimality."""
    _check_family(family, n)
    k = n // 2
    if family == SUNLET:
        return ("e0", "e1", f"e{k}") if n % 2 == 0 else ("e0", "e1", f"e{k+1}")
    return ("e0", f"e{k-1}", f"f{k+1}") if n % 2 == 0 else ("e0", f"e{k}", f"g{k+2}")


def expected_coordinate_rows(family: str, n: int) -> list[tuple[int, str, tuple[int, int, int]]]:
    """Symbolic coordinate templates instantiated at ``n``.

    Rows are (distance class from the base edge, edge label, coordinate
    vector with respect to :func:`reference_landmarks`).  Boundary cases
    are the numerically resolved ones from ``docs/closed_form_notes.md``.
    """
    _check_family(family, n)
    k = n // 2
    rows: list[tuple[int, str, tuple[int, int, int]]] = []
    if family == SUNLET:
        rows.append((0, "e0", (0, 1, k)))
        if n % 2 == 0:
            for i in range(1, k):
                rows += [
                    (i, f"f{i-1}", (i, 1 if i == 1 else i - 1, k + 1 - i)),
                    (i, f"e{i}", (i, i - 1, k - i)),
                    (i, f"f{n-i}", (i, i + 1, k + 1 - i)),
                    (i, f"e{n-i}", (i, i + 1, k - i)),
                ]
            rows += [
                (k, f"f{k-1}", (k, k - 1, 1)),
                (k, f"f{k}", (k, k, 1)),
                (k, f"e{k}", (k, k - 1, 0)),
            ]
        else:
            for i in range(1, k):
                rows += [
                    (i, f"f{i-1}", (i, 1 if i == 1 else i - 1, k + 2 - i)),
                    (i, f"e{i}", (i, i - 1, k + 1 - i)),
                    (i, f"f{n-i}", (i, i + 1, k + 1 - i)),
                    (i, f"e{n-i}", (i, i + 1, k - i)),
                ]
            rows += [
                (k, f"f{k-1}", (k, k - 1, 2)),
                (k, f"e{k}", (k, k - 1, 1)),
                (k, f"f{k+1}", (k, k + 1, 1)),
                (k, f"e{k+1}", (k, k, 0)),
                (k + 1, f"f{k}", (k + 1, k, 1)),
            ]
        assert len(rows) == 2 * n
        return rows

    if n % 2 == 0:
        rows += [
            (0, "f0", (1, k, k)),
            (1, "e0", (0, k - 1, k)),
            (1, "g0", (2, k, k)),
            (1, f"e{n-1}", (1, k, k - 1)),
            (1, f"g{n-1}", (2, k + 1, k - 1)),
            (2, "f1", (1, k - 1, k + 1)),
            (2, "e1", (1, k - 2, k)),
            (2, "g1", (2, k - 1, k)),
            (2, f"f{n-1}", (2, k, k - 1)),
            (2, f"e{n-2}", (2, k - 1, k - 2)),
            (2, f"g{n-2}", (3, k, k - 2)),
        ]
        for i in range(3, k + 1):
            rows += [
                (i, f"f{i-1}", (i - 1, k + 1 - i, k + 3 - i)),
                (i, f"e{i-1}", (i - 1, k - i, k + 2 - i)),
                (i, f"g{i-1}", (k, 2, 2) if i == k else (i, k + 1 - i, k + 2 - i)),
                (i, f"f{n+1-i}", (k, 2, 0) if i == k else (i, k + 2 - i, k + 1 - i)),
                (i, f"e{n-i}", (k, 1, 1) if i == k else (i, k + 1 - i, k - i)),
                (i, f"g{n-i}", (k + 1, 2, 1) if i == k else (i + 1, k + 2 - i, k - i)),
            ]
        rows.append((k + 1, f"f{k}", (k, 1, 2)))
    else:
        rows += [
            (0, "f0", (1, k + 1, k - 1)),
            (1, "e0", (0, k, k)),
            (1, "g0", (2, k + 1, k - 1)),
            (1, f"e{n-1}", (1, k, k - 1)),
            (1, f"g{n-1}", (2, k + 1, k - 2)),
            (2, "f1", (1, k, k)),
            (2, "e1", (1, k - 1, k + 1)),
            (2, "g1", (2, k, k)),
            (2, f"f{n-1}", (2, k, k - 2)),
            (2, f"e{n-2}", (2, k - 1, max(k - 2, 2))),
            (2, f"g{n-2}", (3, k, k - 3)),
        ]
        for i in range(3, k + 1):
            rows += [
                (i, f"f{i-1}", (i - 1, k + 2 - i, k + 4 - i)),
                (i, f"e{i-1}", (i - 1, k + 1 - i, k + 4 - i)),
                (i, f"g{i-1}", (i, k + 2 - i, k + 3 - i)),
                (i, f"f{n+1-i}", (k, 2, 1) if i == k else (i, k + 2 - i, k - i)),
                (i, f"e{n-i}", (k, 1, 2) if i == k else (i, k + 1 - i, max(k - i, 2))),
                (i, f"g{n-i}", (k + 1, 2, 1) if i == k else (i + 1, k + 2 - i, k - 1 - i)),
            ]
        rows += [
            (k + 1, f"f{k}", (k, 1, 3)),
            (k + 1, f"e{k}", (k, 0, 3)),
            (k + 1, f"g{k}", (k + 1, 2, 2)),
            (k + 1, f"f{k+1}", (k + 1, 1, 2)),
        ]
    assert len(rows) == 3 * n
    return rows


@dataclass(frozen=True)
class CoordinateRow:
    group: int
    label: str
    computed: tuple[int, int, int]
    expected: tuple[int, int, int]

    @property
    def matches(self) -> bool:
        return self.computed == self.expected


@dataclass(frozen=True)
class CoordinateTable:
    """Computed landmark coordinates for one instance, diffed row by row."""

    family: str
    n: int
    landmarks: tuple[str, str, str]
    rows: tuple[CoordinateRow, ...]

    @property
    def mismatches(self) -> tuple[CoordinateRow, ...]:
        return tuple([r for r in self.rows if not r.matches])


def coordinate_table(family: str, n: int) -> CoordinateTable:
    """Recompute every edge's coordinates and diff them against the template."""
    lg = make_family(family, n)
    dm: DistanceMatrix = lg.graph.line_distance_matrix
    landmarks = reference_landmarks(family, n)
    lm_idx = lg.line_indices(landmarks)
    base = lg.line_index(BASE_EDGE[family])
    expected = expected_coordinate_rows(family, n)
    seen = [label for _, label, _ in expected]
    assert sorted(seen) == sorted(lg.line_label_order())
    rows = []
    for group, label, vec in expected:
        i = lg.line_index(label)
        computed = tuple([dm[i][x] for x in lm_idx])
        # the template's group must also be the true distance class
        actual_group = dm[base][i]
        rows.append(
            CoordinateRow(
                group=group,
                label=label,
                computed=(computed[0], computed[1], computed[2]),
                expected=vec if actual_group == group else (-1, -1, -1),
            )
        )
    return CoordinateTable(family, n, landmarks, tuple(rows))


def coordinate_rows_distinct(table: CoordinateTable) -> bool:
    """No two computed rows are equal or differ by a constant vector.

    Two rows ``(a, b, c)`` differ by a constant exactly when their shifted
    rows ``(b - a, c - a)`` are equal, so this is the doubly resolving test
    of :mod:`edgedrs.resolving`: the shifted map must be injective.
    """
    shifted = {(b - a, c - a) for a, b, c in (r.computed for r in table.rows)}
    return len(shifted) == len(table.rows)
