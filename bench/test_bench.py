"""Tests of the benchmark itself, on its smoke (tiny-instance) workloads.

Run from the root of a checkout::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_lists_every_workload_and_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert value > 0
        assert f"{name} = {value:.6g} {unit}" in lines
    assert "error_rate = 0 ratio" in "\n".join(lines)
    record = json.loads(next(l for l in lines if l.startswith("record: "))[8:])
    assert {"seed", "python", "nproc", "git_sha", "loadavg_at_start"} <= set(record)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_printed_with_units(workload):
    lines, result = _smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.calls"] > 0 and metrics["cli.run_ms"] > 0
    assert metrics["closed_form.deviations"] == 0 and metrics["report.checks_failed"] == 0
    for name, unit in want.items():
        assert f"{name} = {metrics[name]:.6g} {unit}" in lines


def test_corrupted_reference_raises_error_rate(capsys):
    refs = copy.deepcopy(workloads.load_refs())
    key = workloads.invocations("gp-sweep", smoke=True)[0].key
    refs[key]["subsets_examined"] += 1
    assert run.main(["--workload", "gp-sweep", "--seed", "1", "--seconds", "0.1",
                     "--smoke"], refs=refs) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(l.startswith("error_rate = ") and not l.startswith("error_rate = 0 ")
               for l in lines)
    assert any(l.startswith(f"FAILED {key}: subsets_examined") for l in lines)


def test_paper_values_override_recorded_references():
    inv = workloads.invocations("psi-prep", smoke=True)[0]
    refs = copy.deepcopy(workloads.load_refs())
    refs[inv.key]["cardinality"] = 4  # a code-recorded answer that contradicts the paper
    got = dict(refs[inv.key], cardinality=3)
    assert workloads.failure(inv, got, refs) is None
    assert "cardinality" in workloads.failure(inv, refs[inv.key], refs)


def test_seed_fixes_invocation_order():
    invs = workloads.invocations("gp-sweep", smoke=False)
    first = workloads.pass_order(invs, random.Random(5))
    assert first == workloads.pass_order(invs, random.Random(5))
    assert first != workloads.pass_order(invs, random.Random(6))
    assert sorted(first, key=lambda i: i.key) == sorted(invs, key=lambda i: i.key)


def test_no_threads_flag_and_no_elapsed_field():
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for inv in workloads.invocations(name, smoke):
                assert "--threads" not in inv.argv
                assert "--no-timing" in inv.argv
                assert inv.key in workloads.load_refs()


def test_tracer_restores_every_wrapped_name():
    edgedrs = workloads.load_program()
    before = (edgedrs.cli.run, edgedrs.core.line_graph,
              edgedrs.core.Graph.__dict__["distance_matrix"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            edgedrs.cli.run(["psi", "--graph", "sunlet:5", "--mode", "edge", "--json"])
    finally:
        tracer.uninstall()
    after = (edgedrs.cli.run, edgedrs.core.line_graph,
             edgedrs.core.Graph.__dict__["distance_matrix"])
    assert before == after
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "families.from_spec", "core.line_graph", "core.distance_matrix",
            spans.SEARCH} <= names
    assert all(s.parent is None or s.parent < s.id for s in tracer.spans)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "psi-prep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
