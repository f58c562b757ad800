"""Generators for the labeled graph families the toolkit analyzes.

Label conventions (fixed so the closed-form tables in
:mod:`edgedrs.closed_form` hold verbatim):

* cycle ``n``: vertices ``0..n-1``; edge ``c{i}`` joins ``i`` and ``i+1 mod n``.
* path ``n``: vertices ``0..n-1``; edge ``p{i}`` joins ``i`` and ``i+1``.
* sunlet ``n``: cycle vertices ``0..n-1``, the pendant vertex hanging off
  cycle vertex ``i`` is ``n+i``.  Cycle edge ``e{i}`` joins ``i-1 mod n``
  and ``i``; pendant edge ``f{i}`` joins ``i`` and ``n+i``, so ``f{i}`` is
  incident to the endpoint shared by ``e{i}`` and ``e{i+1 mod n}``.
* prism ``n``: inner vertices ``0..n-1``, outer ``n..2n-1``.  Inner edge
  ``e{i}`` joins ``i`` and ``i+1 mod n``, spoke ``f{i}`` joins ``i`` and
  ``n+i``, outer edge ``g{i}`` joins ``n+i`` and ``n + (i+1 mod n)``; the
  spoke ``f{i}`` therefore joins the common endpoint of ``e{i-1}, e{i}`` to
  the common endpoint of ``g{i-1}, g{i}``.
* generalized Petersen ``(n, k)``: outer vertices ``0..n-1`` with outer
  edge ``g{i}``, spokes ``f{i}``, inner star edge ``e{i}`` joining ``n+i``
  and ``n + (i+k mod n)``.

The orientation pins ``d_E(e0, e1) = 1`` and ``d_E(e_i, f_i) = 1`` for the
sunlet and ``d_E(f0, e0) = d_E(f0, g0) = 1`` for the prism are asserted by
the test suite for every generated size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    Edge,
    Graph,
    GraphError,
    MAX_JSON_ORDER,
    canonical_edge,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    line_graph_to_dot,
)


class FamilyParameterError(GraphError, ValueError):
    """A family parameter is out of its valid range."""


class GraphSpecError(ValueError):
    """A CLI-facing graph specifier string cannot be parsed."""


@dataclass(frozen=True)
class LabeledGraph:
    """A graph together with a family tag and a label <-> edge registry."""

    graph: Graph
    family: str
    labels: Mapping[str, Edge]
    _by_edge: dict[Edge, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_edge = {e: name for name, e in self.labels.items()}
        if self.labels and len(by_edge) != len(self.labels):
            raise GraphError("labels must map one name per edge")
        if self.labels and len(by_edge) < self.graph.size:
            # an unlabeled edge is named ``u-v``; no label may take that name
            for e in self.graph.edges:
                name = f"{e[0]}-{e[1]}"
                if e not in by_edge and name in self.labels:
                    raise GraphError(
                        f"label {name!r} names edge {self.labels[name]} but is "
                        f"also the name of the unlabeled edge {e}"
                    )
        object.__setattr__(self, "_by_edge", by_edge)

    def edge_of(self, label: str) -> Edge:
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"unknown edge label {label!r}") from None

    def line_index(self, label: str) -> int:
        """Line-graph vertex index of a labeled edge."""
        return self.graph.edge_index(self.edge_of(label))

    def line_indices(self, labels: Sequence[str]) -> tuple[int, ...]:
        return tuple([self.line_index(name) for name in labels])

    def label_of_line_index(self, i: int) -> str:
        """Label of line-graph vertex ``i``, or ``u-v`` if its edge has none."""
        u, v = e = self.graph.edges[i]
        return self._by_edge.get(e, f"{u}-{v}")

    def line_label_order(self) -> tuple[str, ...]:
        """All edge names ordered by line-graph vertex index (``u-v`` if unlabeled)."""
        return tuple(list(map(self.label_of_line_index, range(self.graph.size))))

    def to_json_dict(self) -> dict:
        return graph_to_json_dict(self.graph, self.labels)

    def to_dot(self) -> str:
        return graph_to_dot(self.graph, self.family, self._by_edge)

    def line_to_dot(self) -> str:
        return line_graph_to_dot(self.graph.line_graph, self.line_label_order(),
                                 f"L({self.family})")


def _rotation(n: int, rings: int) -> tuple[int, ...]:
    """The automorphism ``v -> v + 1 mod n`` on each ring of ``n`` vertices."""
    return tuple([ring + (i + 1) % n for ring in range(0, rings * n, n) for i in range(n)])


def make_cycle(n: int) -> LabeledGraph:
    if n < 3:
        raise FamilyParameterError("cycle needs n >= 3")
    labels = {f"c{i}": canonical_edge(i, (i + 1) % n) for i in range(n)}
    return LabeledGraph(Graph(n, labels.values(), [_rotation(n, 1)]), f"cycle:{n}", labels)


def make_path(n: int) -> LabeledGraph:
    if n < 2:
        raise FamilyParameterError("path needs n >= 2")
    labels = {f"p{i}": (i, i + 1) for i in range(n - 1)}
    return LabeledGraph(Graph(n, labels.values()), f"path:{n}", labels)


def make_sunlet(n: int) -> LabeledGraph:
    """Cycle of length ``n`` with one pendant edge per cycle vertex."""
    if n < 3:
        raise FamilyParameterError("sunlet needs n >= 3")
    labels: dict[str, Edge] = {}
    for i in range(n):
        labels[f"e{i}"] = canonical_edge((i - 1) % n, i)
        labels[f"f{i}"] = (i, n + i)
    return LabeledGraph(Graph(2 * n, labels.values(), [_rotation(n, 2)]), f"sunlet:{n}", labels)


def make_prism(n: int) -> LabeledGraph:
    """Two concentric ``n``-cycles joined by spokes (3-regular)."""
    if n < 3:
        raise FamilyParameterError("prism needs n >= 3")
    labels: dict[str, Edge] = {}
    for i in range(n):
        labels[f"e{i}"] = canonical_edge(i, (i + 1) % n)
        labels[f"f{i}"] = (i, n + i)
        labels[f"g{i}"] = canonical_edge(n + i, n + (i + 1) % n)
    return LabeledGraph(Graph(2 * n, labels.values(), [_rotation(n, 2)]), f"prism:{n}", labels)


def make_generalized_petersen(n: int, k: int) -> LabeledGraph:
    """Standard GP(n, k): outer cycle, spokes, inner star with skip ``k``."""
    if n < 3:
        raise FamilyParameterError("generalized Petersen graph needs n >= 3")
    if not 1 <= k < n / 2:
        raise FamilyParameterError(
            f"generalized Petersen graph needs 1 <= k < n/2, got k={k}, n={n}"
        )
    labels: dict[str, Edge] = {}
    for i in range(n):
        labels[f"g{i}"] = canonical_edge(i, (i + 1) % n)
        labels[f"f{i}"] = (i, n + i)
        labels[f"e{i}"] = canonical_edge(n + i, n + (i + k) % n)
    return LabeledGraph(Graph(2 * n, labels.values(), [_rotation(n, 2)]), f"gp:{n}:{k}", labels)


def load_graph_file(path: str | Path) -> LabeledGraph:
    """Load a graph JSON file, keeping any label registry it carries."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise GraphError(f"{path}: JSON nested too deeply to read") from None
    graph, labels = graph_from_json_dict(data)
    return LabeledGraph(graph, f"file:{path}", labels or {})


# kind -> (generator, parameter count, vertices per unit of n)
_FAMILIES = {
    "cycle": (make_cycle, 1, 1),
    "path": (make_path, 1, 1),
    "sunlet": (make_sunlet, 1, 2),
    "prism": (make_prism, 1, 2),
    "gp": (make_generalized_petersen, 2, 2),
}


def from_spec(spec: str) -> LabeledGraph:
    """Parse a CLI graph specifier.

    Accepted forms: ``cycle:<n>``, ``path:<n>``, ``sunlet:<n>``,
    ``prism:<n>``, ``gp:<n>:<k>`` and ``file:<path>``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise GraphSpecError(f"malformed graph spec {spec!r} (expected kind:args)")
    if kind == "file":
        if not rest:
            raise GraphSpecError("file: spec needs a path")
        return load_graph_file(rest)
    if kind not in _FAMILIES:
        raise GraphSpecError(f"unknown graph family {kind!r}")
    make, arity, per_n = _FAMILIES[kind]
    parts = rest.split(":")
    if len(parts) != arity:
        raise GraphSpecError(f"family {kind!r} takes {arity} parameter(s)")
    try:
        params = [int(p) for p in parts]
    except ValueError:
        raise GraphSpecError(f"non-integer parameter in spec {spec!r}") from None
    if params[0] * per_n > MAX_JSON_ORDER:
        raise GraphSpecError(
            f"{spec!r} would have {params[0] * per_n} vertices, "
            f"above the maximum of {MAX_JSON_ORDER}"
        )
    try:
        return make(*params)
    except FamilyParameterError as exc:
        raise GraphSpecError(str(exc)) from exc
