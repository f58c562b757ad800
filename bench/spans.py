"""Outside-in tracing of the six edgedrs layers, for the benchmark's traced runs.

Nothing in ``src/`` is edited.  While a :class:`Tracer` is installed, every
module-level name through which one edgedrs module calls a function of
another is replaced by a wrapper that records a span; so are
``edgedrs.cli.run`` (the entry the benchmark calls), ``edgedrs.core.line_graph``,
``edgedrs.resolving.min_cardinality_search`` (reached from ``psi_edge`` and
``edge_metric_dimension`` inside its own module) and the cached property
``Graph.distance_matrix`` (the BFS).  A span's layer is the module that
defines the wrapped function.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("families", "core", "resolving", "closed_form", "report", "cli")

SEARCH = "resolving.min_cardinality_search"
RESOLVING, DOUBLY_RESOLVING = "resolving", "doubly-resolving"  # edgedrs predicate names

# name -> (unit, better).  Each metric covers one traced pass over the
# workload's instance list; README.md says which end-to-end metric each
# should move, and on which workload.
PER_LAYER: dict[str, tuple[str, str]] = {
    "families.generate_ms": ("ms", "lower"),
    "core.line_graph_ms": ("ms", "lower"),
    "core.bfs_ms": ("ms", "lower"),
    "core.elements": ("count", "higher"),
    "resolving.psi_search_ms": ("ms", "lower"),
    "resolving.dim_search_ms": ("ms", "lower"),
    "resolving.psi_fixed_ms": ("ms", "lower"),
    "resolving.dim_fixed_ms": ("ms", "lower"),
    "resolving.psi_fixed_peak_mb": ("MB", "lower"),
    "resolving.psi_subsets": ("count", "lower"),
    "resolving.dim_subsets": ("count", "lower"),
    "resolving.psi_us_per_subset": ("us", "lower"),
    "resolving.dim_us_per_subset": ("us", "lower"),
    "resolving.hit_ratio": ("ratio", "higher"),
    "resolving.greedy_ms": ("ms", "lower"),
    "resolving.greedy_excess": ("count", "lower"),
    "closed_form.verify_ms": ("ms", "lower"),
    "closed_form.pairs_checked": ("count", "higher"),
    "closed_form.pairs_per_s": ("1/s", "higher"),
    "closed_form.deviations": ("count", "lower"),
    "closed_form.coordinate_table_ms": ("ms", "lower"),
    "report.battery_ms": ("ms", "lower"),
    "report.render_ms": ("ms", "lower"),
    "report.checks_failed": ("count", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    invocation: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    matrix: object = None  # the searched DistanceMatrix, kept for the fixed-cost probes

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_json_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "invocation": self.invocation, "start": self.start,
                "end": self.end, "counts": self.counts}


def _search_counts(span: Span, bound: inspect.BoundArguments, result) -> None:
    span.matrix = bound.arguments["dm"]
    span.counts.update(
        predicate=bound.arguments["predicate"],
        subsets=result.subsets_examined,
        hits=len(result.all_optima) if result.all_optima is not None else 1,
        cardinality=result.cardinality,
    )


def _verify_counts(span: Span, bound: inspect.BoundArguments, result) -> None:
    from edgedrs.closed_form import family_pair_count

    family = bound.arguments["family"]
    span.counts.update(
        pairs=sum(family_pair_count(family, n) for n in set(bound.arguments["ns"])),
        deviations=len(result),
    )


# span name -> recorder of the counts read off the call's arguments and result
COUNTERS = {
    SEARCH: _search_counts,
    "resolving.greedy_doubly_resolving":
        lambda span, bound, result: span.counts.update(size=len(result)),
    "closed_form.verify_family": _verify_counts,
    "report.run_battery":
        lambda span, bound, result: span.counts.update(
            failed=sum(not c.ok for c in result.checks)),
    "core.distance_matrix":
        lambda span, bound, result: span.counts.update(elements=result.n),
}


class Tracer:
    """Installs span-recording wrappers at the layer boundaries of ``edgedrs``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = -1
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _boundaries(self):
        from edgedrs import cli, closed_form, core, families, report, resolving

        for module in (families, core, resolving, closed_form, report, cli):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ != module.__name__
                        and obj.__module__.startswith("edgedrs.")):
                    yield module, attr, obj
        yield cli, "run", cli.run
        yield core, "line_graph", core.line_graph
        yield resolving, "min_cardinality_search", resolving.min_cardinality_search

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.invocation, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(span, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, fn in self._boundaries():
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, f"{layer}.{fn.__name__}"))
        from edgedrs.core import Graph as graph_cls

        prop = graph_cls.__dict__["distance_matrix"]
        traced_prop = functools.cached_property(self._wrap(prop.func, "core.distance_matrix"))
        traced_prop.__set_name__(graph_cls, "distance_matrix")
        self._patched.append((graph_cls, "distance_matrix", prop))
        setattr(graph_cls, "distance_matrix", traced_prop)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _total_ms(spans: list[Span], match) -> float:
    """Summed duration of matching spans, not counting one nested in another."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if match(by_id[p]):
                return True
            p = by_id[p].parent
        return False

    return sum(s.ms for s in spans if match(s) and not nested(s))


def _self_ms(spans: list[Span]) -> dict[int, float]:
    child_ms: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
    return {s.id: s.ms - child_ms.get(s.id, 0.0) for s in spans}


def probe_fixed_costs(search, spans: list[Span]) -> dict[str, float]:
    """Re-run every search of a traced pass with ``start_k = n``.

    The full element set always resolves and doubly resolves, so each probe
    tests exactly one subset and measures the search's per-call fixed cost
    (the predicate preparation).  ``search`` must be the untraced function.
    The memory peak is taken on the largest psi matrix only (ties broken by
    content, not order), because tracemalloc makes the O(m^4) precompute
    some 25 times slower.
    """
    fixed = {"resolving.psi_fixed_ms": 0.0, "resolving.dim_fixed_ms": 0.0,
             "resolving.psi_fixed_peak_mb": 0.0}
    psi_matrices = []
    for s in spans:
        if s.name != SEARCH:
            continue
        dm, predicate = s.matrix, s.counts["predicate"]
        kind = "dim" if predicate == RESOLVING else "psi"
        if kind == "psi":
            psi_matrices.append(dm)
        started = time.perf_counter()
        search(dm, predicate, start_k=dm.n)
        fixed[f"resolving.{kind}_fixed_ms"] += (time.perf_counter() - started) * 1000.0
    if psi_matrices:
        dm = max(psi_matrices, key=lambda m: (m.n, m.rows))
        tracemalloc.start()
        try:
            search(dm, DOUBLY_RESOLVING, start_k=dm.n)
            fixed["resolving.psi_fixed_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return fixed


def pass_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the probes and overhead."""
    self_ms = _self_ms(spans)
    searches = [s for s in spans if s.name == SEARCH]
    psi = [s for s in searches if s.counts["predicate"] == DOUBLY_RESOLVING]
    dim = [s for s in searches if s.counts["predicate"] == RESOLVING]
    verifies = [s for s in spans if s.name == "closed_form.verify_family"]
    exact_psi = {s.invocation: s.counts["cardinality"] for s in psi}
    greedy = [s for s in spans if s.name == "resolving.greedy_doubly_resolving"]
    pairs = sum(s.counts["pairs"] for s in verifies)
    verify_ms = _total_ms(spans, lambda s: s.name == "closed_form.verify_family")
    subsets = sum(s.counts["subsets"] for s in searches)

    def named(name: str) -> float:
        return _total_ms(spans, lambda s: s.name == name)

    metrics = {
        "families.generate_ms": _total_ms(spans, lambda s: s.layer == "families"),
        "core.line_graph_ms": named("core.line_graph"),
        "core.bfs_ms": named("core.distance_matrix"),
        "core.elements": sum(s.counts["elements"] for s in spans
                             if s.name == "core.distance_matrix"),
        "resolving.psi_search_ms": sum(self_ms[s.id] for s in psi),
        "resolving.dim_search_ms": sum(self_ms[s.id] for s in dim),
        "resolving.psi_subsets": sum(s.counts["subsets"] for s in psi),
        "resolving.dim_subsets": sum(s.counts["subsets"] for s in dim),
        "resolving.hit_ratio": (sum(s.counts["hits"] for s in searches) / subsets
                                if subsets else 0.0),
        "resolving.greedy_ms": named("resolving.greedy_doubly_resolving"),
        "resolving.greedy_excess": sum(s.counts["size"] - exact_psi[s.invocation]
                                       for s in greedy if s.invocation in exact_psi),
        "closed_form.verify_ms": verify_ms,
        "closed_form.pairs_checked": pairs,
        "closed_form.pairs_per_s": pairs / (verify_ms / 1000.0) if verify_ms else 0.0,
        "closed_form.deviations": sum(s.counts["deviations"] for s in verifies),
        "closed_form.coordinate_table_ms": named("closed_form.coordinate_table"),
        "report.battery_ms": named("report.run_battery"),
        "report.render_ms": named("report.render_markdown"),
        "report.checks_failed": sum(s.counts["failed"] for s in spans
                                    if s.name == "report.run_battery"),
        "cli.run_ms": named("cli.run"),
        "cli.output_bytes": output_bytes,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        metrics[f"{layer}.self_ms"] = sum(self_ms[s.id] for s in mine)
        metrics[f"{layer}.calls"] = len(mine)
    return metrics


def per_subset_us(metrics: dict[str, float]) -> None:
    """(search - fixed) / subsets, for both predicates, once the probes are in."""
    for kind in ("psi", "dim"):
        subsets = metrics[f"resolving.{kind}_subsets"]
        spent = metrics[f"resolving.{kind}_search_ms"] - metrics[f"resolving.{kind}_fixed_ms"]
        metrics[f"resolving.{kind}_us_per_subset"] = spent * 1000.0 / subsets if subsets else 0.0


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
