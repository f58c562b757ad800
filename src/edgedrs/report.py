"""Reference battery: recompute and cross-check every shipped table.

The battery covers four kinds of checks:

* distance partition tables (base-table fibers vs BFS),
* the seven parametric 2-set failure rows for even sunlets, with their
  claimed witness pairs confirmed,
* landmark coordinate tables diffed against the symbolic templates,
* edge metric dimension and edge doubly-resolving sweeps against the
  expected closed-form values.

Each check returns a :class:`CheckResult`; :func:`render_markdown` lays
the results out as tables for a human-readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .closed_form import (
    BASE_EDGE,
    PRISM,
    SUNLET,
    base_table,
    coordinate_rows_distinct,
    coordinate_table,
    make_family,
    reference_landmarks,
)
from .families import make_prism, make_sunlet
from .resolving import (
    edge_metric_dimension,
    is_doubly_resolving,
    labeled_set_report,
    labels_doubly_resolve_pair,
    psi_edge,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    rows: list[dict] = field(default_factory=list)
    columns: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "rows": self.rows}


def partition_check(family: str, n: int) -> CheckResult:
    """Base-table fibers must equal the BFS distance partition."""
    lg = make_family(family, n)
    dm = lg.graph.line_distance_matrix
    base = lg.line_index(BASE_EDGE[family])
    actual: dict[int, set[str]] = {}
    for label in lg.line_label_order():
        actual.setdefault(dm[base][lg.line_index(label)], set()).add(label)
    expected: dict[int, set[str]] = {}
    for label, i in base_table(family, n).items():
        expected.setdefault(i, set()).add(label)
    rows = []
    ok = True
    for i in sorted(set(actual) | set(expected)):
        got = actual.get(i, set())
        want = expected.get(i, set())
        match = got == want
        ok = ok and match
        rows.append(
            {
                "i": i,
                "edges": " ".join(sorted(got)),
                "match": match,
            }
        )
    return CheckResult(
        name=f"distance partition {family} n={n}",
        ok=ok,
        rows=rows,
        columns=("i", "edges", "match"),
    )


def two_set_failure_rows(n: int) -> list[tuple[str, list[tuple[tuple[str, str], tuple[str, str]]]]]:
    """The seven parametric 2-set rows for an even sunlet.

    Each row yields (landmark pair, claimed non-separated witness pair)
    instances over the row's index range.
    """
    if n < 4 or n % 2:
        raise ValueError("rows are defined for even n >= 4")
    k = n // 2
    return [
        ("{e0, ei} 0<i<k",
         [(("e0", f"e{i}"), ("e0", f"e{n-1}")) for i in range(1, k)]),
        ("{e0, ei} k<i<=n-1",
         [(("e0", f"e{i}"), (f"e{k}", f"e{k+1}")) for i in range(k + 1, n)]),
        ("{e0, fi} 0<=i<k",
         [(("e0", f"f{i}"), ("e0", f"f{n-1}")) for i in range(0, k)]),
        ("{e0, fi} k<=i<=n-1",
         [(("e0", f"f{i}"), ("e0", "f0")) for i in range(k, n)]),
        ("{f0, fi} 1<=i<k",
         [(("f0", f"f{i}"), (f"e{k}", f"f{k}")) for i in range(1, k)]),
        ("{f0, fk}",
         [(("f0", f"f{k}"), ("e0", "e1"))]),
        ("{f0, fi} k<i<=n-1",
         [(("f0", f"f{i}"), ("e1", "f1")) for i in range(k + 1, n)]),
    ]


def two_set_check(n: int) -> CheckResult:
    """Every 2-subset fails, and each parametric row's witness is confirmed."""
    lg = make_family(SUNLET, n)
    dm = lg.graph.line_distance_matrix
    all_fail = all(
        not is_doubly_resolving(dm, pair).ok
        for pair in combinations(range(dm.n), 2)
    )
    rows = []
    ok = all_fail
    for name, instances in two_set_failure_rows(n):
        fails = all(not labeled_set_report(lg, lm).ok for lm, _ in instances)
        confirmed = all(
            not labels_doubly_resolve_pair(lg, lm, wit) for lm, wit in instances
        )
        ok = ok and fails and confirmed
        rows.append(
            {
                "set": name,
                "witness": " ".join(instances[0][1]),
                "instances": len(instances),
                "all_fail": fails,
                "witness_confirmed": confirmed,
            }
        )
    rows.append(
        {
            "set": "every 2-subset",
            "witness": "-",
            "instances": dm.n * (dm.n - 1) // 2,
            "all_fail": all_fail,
            "witness_confirmed": all_fail,
        }
    )
    return CheckResult(
        name=f"2-set failures sunlet n={n}",
        ok=ok,
        rows=rows,
        columns=("set", "witness", "instances", "all_fail", "witness_confirmed"),
    )


def coordinate_check(family: str, n: int) -> CheckResult:
    table = coordinate_table(family, n)
    distinct = coordinate_rows_distinct(table)
    ok = not table.mismatches and distinct
    rows = [
        {
            "i": r.group,
            "edge": r.label,
            "computed": str(r.computed),
            "template": str(r.expected),
            "match": r.matches,
        }
        for r in table.rows
    ]
    return CheckResult(
        name=(
            f"coordinates {family} n={n} "
            f"landmarks {{{', '.join(reference_landmarks(family, n))}}}"
        ),
        ok=ok,
        rows=rows,
        columns=("i", "edge", "computed", "template", "match"),
    )


def sweep_check(family: str, ns: Sequence[int], quantity: str) -> CheckResult:
    """Exact dim_E / psi_E values against the expected closed-form answers."""
    rows = []
    ok = True
    make = make_sunlet if family == SUNLET else make_prism
    for n in ns:
        g = make(n).graph
        if quantity == "dim_edge":
            got = edge_metric_dimension(g).cardinality
            want = 3 if (family == PRISM or n % 2) else 2
        else:
            got = psi_edge(g).cardinality
            want = 3
        match = got == want
        ok = ok and match
        rows.append({"n": n, "value": got, "expected": want, "match": match})
    return CheckResult(
        name=f"{quantity} sweep {family} n={min(ns)}..{max(ns)}",
        ok=ok,
        rows=rows,
        columns=("n", "value", "expected", "match"),
    )


@dataclass
class Battery:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def run_battery(
    sunlet_ns: Sequence[int] = tuple(range(4, 15)),
    prism_dim_ns: Sequence[int] = tuple(range(3, 13)),
    prism_psi_ns: Sequence[int] = tuple(range(6, 13)),
) -> Battery:
    checks: list[CheckResult] = [
        sweep_check(SUNLET, sunlet_ns, "dim_edge"),
        sweep_check(SUNLET, sunlet_ns, "psi_edge"),
        sweep_check(PRISM, prism_dim_ns, "dim_edge"),
        sweep_check(PRISM, prism_psi_ns, "psi_edge"),
    ]
    for family, n in ((SUNLET, 8), (SUNLET, 9), (PRISM, 8), (PRISM, 9)):
        checks.append(partition_check(family, n))
    for n in (8, 12):
        checks.append(two_set_check(n))
    for family, n in ((SUNLET, 8), (SUNLET, 9), (PRISM, 8), (PRISM, 9)):
        checks.append(coordinate_check(family, n))
    return Battery(checks)


def _markdown_table(columns: Sequence[str], rows: Sequence[dict]) -> list[str]:
    out = ["| " + " | ".join(columns) + " |",
           "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(row[c]) for c in columns) + " |")
    return out


def render_markdown(battery: Battery) -> str:
    lines = [
        "# Edge resolving-set reference battery",
        "",
        f"Overall: {'PASS' if battery.ok else 'FAIL'} "
        f"({sum(c.ok for c in battery.checks)}/{len(battery.checks)} checks)",
        "",
    ]
    for check in battery.checks:
        lines.append(f"## {check.name} - {'PASS' if check.ok else 'FAIL'}")
        lines.append("")
        lines.extend(_markdown_table(check.columns, check.rows))
        lines.append("")
    return "\n".join(lines)
