"""Command-line front end.

Exit codes: 0 success, 1 computation error, 2 argument error, 3 when a
verification command found disagreements.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from operator import itemgetter
from typing import Sequence

from .closed_form import Deviation, family_pair_count, verify_family
from .core import GraphError
from .families import GraphSpecError, LabeledGraph, from_spec
from .report import Battery, render_markdown, run_battery
from .resolving import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    edge_metric_dimension,
    greedy_doubly_resolving,
    is_doubly_resolving,
    metric_dimension,
    psi,
    psi_edge,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_DEVIATIONS = 3


def _parse_range(text: str) -> range:
    """Inclusive range syntax ``a..b`` (also accepts a single integer)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise GraphSpecError(f"bad range {text!r}, expected a..b") from None
    return range(lo, hi + 1)


def _budget(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        p.add_argument(
            "--graph",
            required=True,
            help="family spec (sunlet:<n>, prism:<n>, cycle:<n>, path:<n>, "
            "gp:<n>:<k>) or file:<path>",
        )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--no-timing", action="store_true", help="omit timing fields")
    p.add_argument("--out", help="write the report to a file as well")


def _add_search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("vertex", "edge"), default="vertex")
    p.add_argument("--all-optima", action="store_true",
                   help="collect every optimal set at the answer cardinality")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="cap on candidate subsets examined")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edge-drs",
        description="Resolving and doubly resolving sets, vertex and edge versions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a family instance and export it")
    _add_common(p)
    p.add_argument("--dot", help="also write a DOT rendering of the graph")
    p.add_argument("--line-dot", help="also write a DOT rendering of the line graph")

    p = sub.add_parser("distances", help="print the distance matrix")
    _add_common(p)
    p.add_argument("--mode", choices=("vertex", "edge"), default="vertex")

    p = sub.add_parser("dim", help="exact metric dimension")
    _add_common(p)
    _add_search_options(p)

    p = sub.add_parser("psi", help="exact minimum doubly resolving set size")
    _add_common(p)
    _add_search_options(p)
    p.add_argument("--greedy", action="store_true",
                   help="also report the greedy upper-bound set")

    p = sub.add_parser("verify", help="closed-form distance rules vs BFS")
    _add_common(p, graph=False)
    p.add_argument("--family", choices=("sunlet", "prism"), required=True)
    p.add_argument("--n", required=True, help="size range a..b")

    p = sub.add_parser("reproduce", help="run the full reference battery")
    _add_common(p, graph=False)
    p.add_argument("--sunlet-n", default="4..14", help="sweep range for sunlets")
    p.add_argument("--prism-n", default="6..12",
                   help="doubly-resolving sweep range for prisms")
    p.add_argument("--prism-dim-n", default="3..12",
                   help="metric-dimension sweep range for prisms")

    p = sub.add_parser("experiment",
                       help="dim_E / psi_E table for generalized Petersen graphs")
    _add_common(p, graph=False)
    p.add_argument("--n", required=True, help="size range a..b")
    p.add_argument("--k", default="all",
                   help="skip parameter: an integer or 'all' valid values")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    return parser


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

_TABLES = ("matrix", "all_optima")  # rows of scalars


def _has_table(value) -> bool:
    return isinstance(value, dict) and any(k in _TABLES or _has_table(v) for k, v in value.items())


class _Encoded(dict):
    """``self[value]`` is ``encode(value)``, encoded the first time it is asked for."""

    __slots__ = ("encode",)

    def __init__(self, encode):
        self.encode = encode

    def __missing__(self, value):
        self[value] = text = self.encode(value)
        return text


def _json_pieces(value, pad: str = "\n", table: bool = False):
    """The pieces of ``json.dumps(value, indent=2)``, inner lines led by ``pad``.

    Under ``indent`` the encoder is pure Python, several calls an entry, so
    the dicts that hold a table are laid out here and a table row by row,
    each distinct value encoded once, when a row first holds it; one join of
    the pieces copies it once."""
    inner, cells = pad + "  ", pad + "    "
    if table:
        cell = _Encoded(json.dumps)
        yield "[" + inner
        yield ("," + inner).join("[" + cells + ("," + cells).join(map(cell.__getitem__, row))
                                 + inner + "]" for row in value)
        yield pad + "]"
    elif _has_table(value):
        for i, (k, v) in enumerate(value.items()):
            yield ("," if i else "{") + inner + json.dumps(k) + ": "
            yield from _json_pieces(v, inner, k in _TABLES)
        yield pad + "}"
    else:
        yield json.dumps(value, indent=2).replace("\n", pad)


def _emit(report: dict, args: argparse.Namespace, text_lines: list[str]) -> None:
    out = args.out if args.command != "reproduce" else None
    encoded = "".join(_json_pieces(report)) if args.json or out else None
    print(encoded if args.json else "\n".join(text_lines))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(encoded + "\n")


def _graph_summary(lg: LabeledGraph, spec: str) -> dict:
    return {
        "spec": spec,
        "family": lg.family,
        "order": lg.graph.order,
        "size": lg.graph.size,
    }


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    lg = from_spec(args.graph)
    report = {
        "command": "generate",
        "graph": _graph_summary(lg, args.graph),
    }
    lines = [f"{lg.family}: order {lg.graph.order}, size {lg.graph.size}"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(lg.to_json_dict(), fh, indent=2)
            fh.write("\n")
        report["written"] = args.out
        lines.append(f"graph JSON written to {args.out}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lg.to_dot())
        report["dot"] = args.dot
        lines.append(f"DOT written to {args.dot}")
    if args.line_dot:
        with open(args.line_dot, "w", encoding="utf-8") as fh:
            fh.write(lg.line_to_dot())
        report["line_dot"] = args.line_dot
        lines.append(f"line-graph DOT written to {args.line_dot}")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_distances(args) -> int:
    lg = from_spec(args.graph)
    if args.mode == "edge":
        dm = lg.graph.line_distance_matrix
        names = list(lg.line_label_order())
    else:
        dm = lg.graph.distance_matrix
        names = [str(v) for v in range(lg.graph.order)]
    report = {
        "command": "distances",
        "graph": _graph_summary(lg, args.graph),
        "mode": args.mode,
        "elements": names,
        "matrix": dm.rows,
    }
    lines = []
    if not args.json:  # the JSON is encoded from the report, not from the text
        width = max(len(name) for name in names) + 1
        cells = _Encoded(f"{{:>{width}}}".format)
        lines.append(" " * width + " ".join(f"{name:>{width}}" for name in names))
        for name, row in zip(names, dm.rows):
            texts = itemgetter(*row)(cells)  # one key gathers a bare cell, not a 1-tuple
            lines.append(f"{name:>{width}}" + (" ".join(texts) if len(row) > 1 else texts))
    _emit(report, args, lines)
    return EXIT_OK


_SEARCHES = {
    ("dim", "vertex"): metric_dimension,
    ("dim", "edge"): edge_metric_dimension,
    ("psi", "vertex"): psi,
    ("psi", "edge"): psi_edge,
}


def _cmd_search(args) -> int:
    lg = from_spec(args.graph)
    g = lg.graph
    result = _SEARCHES[args.command, args.mode](
        g, budget=args.budget, all_optima=args.all_optima)
    labels = lg.line_label_order() if args.mode == "edge" and lg.labels else None
    payload = result.to_json_dict(labels=labels, include_timing=not args.no_timing)
    report = {
        "command": args.command,
        "graph": _graph_summary(lg, args.graph),
        "mode": args.mode,
        "result": payload,
    }
    lines = [
        f"command: {args.command}",
        f"graph: {lg.family} (order {g.order}, size {g.size})",
        f"mode: {args.mode}",
        f"cardinality: {result.cardinality}",
        "set: " + " ".join(str(x) for x in payload["set"]),
        f"subsets examined: {result.subsets_examined}",
    ]
    if args.all_optima:
        lines.append(f"optimal sets: {len(result.all_optima)}")
    if not args.no_timing:
        lines.append(f"elapsed: {payload['elapsed_ms']} ms")
    if getattr(args, "greedy", False):
        dm = g.line_distance_matrix if args.mode == "edge" else g.distance_matrix
        greedy = greedy_doubly_resolving(dm)
        assert is_doubly_resolving(dm, greedy).ok
        greedy_names = [labels[i] for i in greedy] if labels else list(greedy)
        report["greedy"] = {"size": len(greedy), "set": greedy_names}
        lines.append(
            f"greedy upper bound: {len(greedy)} "
            + " ".join(str(x) for x in greedy_names)
        )
    _emit(report, args, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ns = _parse_range(args.n)

    instances = []
    for n in ns:
        deviations: list[Deviation] = verify_family(args.family, [n])
        instances.append({
            "family": args.family,
            "n": n,
            "pairs_checked": family_pair_count(args.family, n),
            "deviations": [d.to_json_dict() for d in deviations],
        })
    total = sum(len(inst["deviations"]) for inst in instances)
    report = {
        "command": "verify",
        "family": args.family,
        "n": [ns.start, ns.stop - 1],
        "instances": instances,
        "total_deviations": total,
    }
    lines = [
        f"verify {args.family} n={ns.start}..{ns.stop - 1}: "
        f"{len(instances)} instance(s), {total} deviation(s)"
    ]
    for inst in instances:
        lines.append(
            f"  n={inst['n']}: {inst['pairs_checked']} pairs checked, "
            f"{len(inst['deviations'])} deviation(s)"
        )
        for dev in inst["deviations"]:
            lines.append(
                f"    {dev['pair']}: formula {dev['formula']} vs bfs {dev['bfs']}"
            )
    _emit(report, args, lines)
    return EXIT_DEVIATIONS if total else EXIT_OK


def _cmd_reproduce(args) -> int:
    battery: Battery = run_battery(
        sunlet_ns=list(_parse_range(args.sunlet_n)),
        prism_dim_ns=list(_parse_range(args.prism_dim_n)),
        prism_psi_ns=list(_parse_range(args.prism_n)),
    )
    out_path = args.out or "reproduce.md"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(battery))
    report = battery.to_json_dict()
    report["command"] = "reproduce"
    report["written"] = out_path
    lines = []
    for check in battery.checks:
        lines.append(f"{'PASS' if check.ok else 'FAIL'} {check.name}")
    lines.append(f"report written to {out_path}")
    _emit(report, args, lines)
    return EXIT_OK if battery.ok else EXIT_DEVIATIONS


def _cmd_experiment(args) -> int:
    ns = _parse_range(args.n)
    jobs: list[tuple[int, int]] = []
    for n in ns:
        if args.k == "all":
            jobs.extend((n, k) for k in range(1, (n - 1) // 2 + 1))
        else:
            try:
                k = int(args.k)
            except ValueError:
                raise GraphSpecError(f"--k must be an integer or 'all', got {args.k!r}")
            if 1 <= k < n / 2:
                jobs.append((n, k))

    rows = []
    for n, k in jobs:
        g = from_spec(f"gp:{n}:{k}").graph  # over the order cap: an argument error
        row: dict = {"n": n, "k": k, "order": g.order, "size": g.size}
        try:
            row["dim_edge"] = edge_metric_dimension(g, budget=args.budget).cardinality
        except BudgetExceededError:
            row["dim_edge"] = None
        try:
            row["psi_edge"] = psi_edge(g, budget=args.budget).cardinality
            row["psi_edge_exact"] = True
        except BudgetExceededError:
            row["psi_edge"] = len(greedy_doubly_resolving(g.line_distance_matrix))
            row["psi_edge_exact"] = False
        rows.append(row)
    report = {"command": "experiment", "rows": rows}
    lines = ["  n  k  |E|  dim_E  psi_E"]
    for row in rows:
        marker = "" if row["psi_edge_exact"] else " (upper bound only)"
        dim_txt = "-" if row["dim_edge"] is None else row["dim_edge"]
        lines.append(
            f"{row['n']:>3} {row['k']:>2} {row['size']:>4}  "
            f"{dim_txt:>5}  {row['psi_edge']:>5}{marker}"
        )
    if not rows:
        lines = ["no instances in range"]
    _emit(report, args, lines)
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "distances": _cmd_distances,
    "dim": _cmd_search,
    "psi": _cmd_search,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
    "experiment": _cmd_experiment,
}


# one parser a process, built on the first run rather than at import
_parser = cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except GraphSpecError as exc:
        print(f"edge-drs: argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"edge-drs: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (GraphError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"edge-drs: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
