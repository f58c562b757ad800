"""Workload definitions, reference answers and the correctness gate.

Each workload is a fixed list of ``edge-drs`` invocations.  The seed only
fixes the order in which a pass sends them.  Every invocation's answer is
reduced by :func:`answer` to the fields that must not change, and
:func:`failure` compares it with the reference: the paper's values where
the paper gives one (``psi_E = 3`` for sunlets and prisms, ``dim_E`` = 2
for even sunlets and 3 for odd sunlets and prisms, zero closed-form
deviations, a passing battery), otherwise the answers recorded in
``refs.json`` by ``record_refs.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_PATH = BENCH_DIR / "refs.json"
OUT_DIR = ROOT / ".bench_out"  # files the CLI writes (DOT, Markdown) and traced spans
OUT_TOKEN = "{out}"


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``{out}`` in an argument stands for the output directory."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolve(self, out_dir: Path) -> list[str]:
        return [a.replace(OUT_TOKEN, str(out_dir)) for a in self.argv]


def _inv(*argv: str) -> Invocation:
    return Invocation(tuple(argv))


def _psi_prep(specs: list[str]) -> list[Invocation]:
    return [
        _inv("psi", "--graph", s, "--mode", "edge", "--greedy", "--no-timing", "--json")
        for s in specs
    ]


def _gp_sweep(ns: range, all_optima: list[str]) -> list[Invocation]:
    specs = [f"gp:{n}:{k}" for n in ns for k in range(1, (n - 1) // 2 + 1)]
    return [
        _inv(cmd, "--graph", s, "--mode", "edge", "--no-timing", "--json")
        for s in specs
        for cmd in ("dim", "psi")
    ] + [
        _inv("dim", "--graph", s, "--mode", "edge", "--all-optima", "--no-timing", "--json")
        for s in all_optima
    ]


def _closed_form(sunlet_ns: range, prism_ns: range, reproduce: tuple[str, ...]) -> list[Invocation]:
    return [
        _inv("verify", "--family", family, "--n", str(n), "--no-timing", "--json")
        for family, ns in (("sunlet", sunlet_ns), ("prism", prism_ns))
        for n in ns
    ] + [_inv("reproduce", *reproduce, "--out", f"{OUT_TOKEN}/reproduce.md",
              "--no-timing", "--json")]


def _edge_distances(specs: list[str]) -> list[Invocation]:
    invs = []
    for s in specs:
        invs.append(_inv("distances", "--graph", s, "--mode", "edge", "--no-timing"))
        invs.append(_inv("distances", "--graph", s, "--mode", "edge", "--no-timing", "--json"))
        invs.append(_inv("generate", "--graph", s, "--line-dot", f"{OUT_TOKEN}/line.dot",
                         "--no-timing", "--json"))
    return invs


# name -> (full instance list, smoke instance list).  The full lists are
# sized so that one pass takes a few seconds and a run pools at least 100
# latency samples; see README.md for why each workload exists.  An odd
# number of edge-distances instances keeps its median latency inside one
# instance's samples instead of on the step between two instance sizes.
WORKLOADS: dict[str, tuple[list[Invocation], list[Invocation]]] = {
    "psi-prep": (
        _psi_prep([f"prism:{n}" for n in range(8, 21)]
                  + [f"sunlet:{n}" for n in range(12, 31, 2)]),
        _psi_prep(["prism:6", "sunlet:4", "sunlet:5"]),
    ),
    "gp-sweep": (
        _gp_sweep(range(12, 17), ["gp:12:4", "gp:12:5"]),
        _gp_sweep(range(5, 7), ["gp:5:2"]),
    ),
    "closed-form": (
        _closed_form(range(4, 41), range(6, 31), ()),
        _closed_form(range(4, 6), range(6, 8),
                     ("--sunlet-n", "4..5", "--prism-n", "6..6", "--prism-dim-n", "3..4")),
    ),
    "edge-distances": (
        _edge_distances(["sunlet:200", "sunlet:225", "prism:134", "prism:150", "gp:150:7"]),
        _edge_distances(["sunlet:6", "prism:5", "gp:7:2"]),
    ),
}


def invocations(workload: str, smoke: bool) -> list[Invocation]:
    full, tiny = WORKLOADS[workload]
    return list(tiny if smoke else full)


def pass_order(invs: list[Invocation], rng: random.Random) -> list[Invocation]:
    """The order one pass sends the invocations in, drawn from the seeded RNG."""
    order = list(invs)
    rng.shuffle(order)
    return order


def load_program():
    """Import ``edgedrs`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import edgedrs.cli

    if not Path(edgedrs.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"edgedrs imported from {edgedrs.cli.__file__}, not {src}")
    return edgedrs


def load_refs(path: Path = REFS_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: str, smoke: str) -> None:
    """The set-up a run does before measuring; timed in fresh interpreters."""
    load_program()
    pass_order(invocations(workload, smoke == "1"), random.Random(int(seed)))
    load_refs()


# ---------------------------------------------------------------------------
# Answers and the correctness gate
# ---------------------------------------------------------------------------

def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def answer(inv: Invocation, code: int, stdout: str, out_dir: Path) -> dict:
    """The fields of an invocation's outcome that must match the reference."""
    got: dict = {"exit": code}
    if code != 0:
        return got
    if inv.command in ("dim", "psi"):
        payload = json.loads(stdout)
        result = payload["result"]
        got["cardinality"] = result["cardinality"]
        got["set"] = result["set"]
        got["subsets_examined"] = result["subsets_examined"]
        if "all_optima" in result:
            got["all_optima_sha256"] = _sha256(json.dumps(result["all_optima"]))
        if "greedy" in payload:
            got["greedy_set"] = payload["greedy"]["set"]
    elif inv.command == "verify":
        payload = json.loads(stdout)
        got["total_deviations"] = payload["total_deviations"]
        got["pairs_checked"] = sum(i["pairs_checked"] for i in payload["instances"])
    elif inv.command == "reproduce":
        payload = json.loads(stdout)
        got["ok"] = payload["ok"]
        got["checks"] = len(payload["checks"])
    elif inv.command == "distances":
        got["sha256"] = _sha256(stdout)
    elif inv.command == "generate":
        dot_path = inv.resolve(out_dir)[inv.argv.index("--line-dot") + 1]
        got["sha256"] = _sha256(Path(dot_path).read_bytes())
    return got


def paper_answer(inv: Invocation) -> dict:
    """Fields the paper fixes, which override anything recorded from code."""
    if inv.command == "verify":
        return {"exit": 0, "total_deviations": 0}
    if inv.command == "reproduce":
        return {"exit": 0, "ok": True}
    if inv.command in ("dim", "psi"):
        family, _, n = inv.argv[inv.argv.index("--graph") + 1].partition(":")
        if family == "sunlet" or family == "prism":
            if inv.command == "psi":
                return {"exit": 0, "cardinality": 3}
            even_sunlet = family == "sunlet" and int(n) % 2 == 0
            return {"exit": 0, "cardinality": 2 if even_sunlet else 3}
    return {}


def failure(inv: Invocation, got: dict, refs: dict[str, dict]) -> str | None:
    """Why ``got`` is wrong, or None when it matches the reference."""
    if inv.key not in refs:
        return f"no reference answer for {inv.key!r}"
    want = {**refs[inv.key], **paper_answer(inv)}
    for field, value in want.items():
        if got.get(field) != value:
            return f"{field}: got {got.get(field)!r}, want {value!r}"
    return None
