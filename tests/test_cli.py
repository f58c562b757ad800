import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from edgedrs.cli import run
from edgedrs.families import GraphSpecError, from_spec
from edgedrs.resolving import DEFAULT_BUDGET, edge_metric_dimension
import edgedrs.cli as cli
import edgedrs.core as core


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_psi_sunlet8_edge(capsys):
    code, report = run_json(
        capsys, ["psi", "--graph", "sunlet:8", "--mode", "edge", "--json"]
    )
    assert code == 0
    assert report["result"]["cardinality"] == 3
    assert sorted(report["result"]["set"]) == ["e0", "e1", "e4"]
    assert report["graph"]["order"] == 16


def test_dim_prism7_edge(capsys):
    code, report = run_json(
        capsys, ["dim", "--graph", "prism:7", "--mode", "edge", "--json"]
    )
    assert code == 0
    assert report["result"]["cardinality"] == 3


def test_vertex_mode_uses_indices(capsys):
    code, report = run_json(
        capsys, ["psi", "--graph", "path:6", "--json", "--no-timing"]
    )
    assert code == 0
    assert report["result"]["set"] == [0, 5]


def test_deterministic_output(capsys):
    argv = ["psi", "--graph", "sunlet:6", "--mode", "edge", "--json", "--no-timing"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed_ms" not in first


def test_generate_and_file_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    code = run([
        "generate", "--graph", "sunlet:8",
        "--out", str(out), "--dot", str(dot),
    ])
    assert code == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["order"] == 16 and len(data["edges"]) == 16
    assert "labels" in data
    assert dot.read_text().startswith("graph")

    direct_code, direct = run_json(
        capsys, ["psi", "--graph", "sunlet:8", "--mode", "edge", "--json", "--no-timing"]
    )
    file_code, via_file = run_json(
        capsys, ["psi", "--graph", f"file:{out}", "--mode", "edge", "--json", "--no-timing"]
    )
    assert direct_code == file_code == 0
    assert direct["result"] == via_file["result"]


def test_distances_edge_mode(capsys):
    code, report = run_json(
        capsys, ["distances", "--graph", "path:4", "--mode", "edge", "--json"]
    )
    assert code == 0
    assert report["elements"] == ["p0", "p1", "p2"]
    assert report["matrix"][0][2] == 2


def test_verify_clean_exit_zero(capsys):
    code, report = run_json(
        capsys, ["verify", "--family", "prism", "--n", "6..9", "--json"]
    )
    assert code == 0
    assert report["total_deviations"] == 0
    assert [inst["n"] for inst in report["instances"]] == [6, 7, 8, 9]
    assert report["instances"][0]["pairs_checked"] == 18 * 17 // 2 + 18


def test_verify_deviation_exit_three(capsys, monkeypatch):
    from edgedrs.closed_form import Deviation

    monkeypatch.setattr(
        cli,
        "verify_family",
        lambda family, ns: [Deviation(family, list(ns)[0], ("e0", "e1"), 1, 2)],
    )
    code = run(["verify", "--family", "sunlet", "--n", "8..8"])
    out = capsys.readouterr().out
    assert code == 3
    assert "1 deviation" in out


def test_experiment_gp(capsys):
    code, report = run_json(
        capsys, ["experiment", "--n", "6..6", "--k", "1", "--json"]
    )
    assert code == 0
    row = report["rows"][0]
    assert row["psi_edge"] == 3  # GP(6,1) is the 6-prism
    assert row["psi_edge_exact"] is True


def test_experiment_empty_range(capsys):
    code, report = run_json(capsys, ["experiment", "--n", "5..4", "--json"])
    assert code == 0
    assert report["rows"] == []


def traced_peak_mb(argv) -> tuple[int, float]:
    """Exit code of ``run(argv)`` and the most memory Python held meanwhile."""
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_experiment_refuses_the_first_job_before_listing_the_rest(capsys):
    # 40 values of n with about 25,000 k each; the first is over the order cap
    code, peak = traced_peak_mb(["experiment", "--n", "50001..50040"])
    assert code == 2 and peak < 10, peak
    assert "'gp:50001:1'" in capsys.readouterr().err


def test_reproduce_refuses_the_first_side_before_listing_the_range(tmp_path, capsys):
    argv = ["reproduce", "--sunlet-n", "2001..4000000", "--out", str(tmp_path / "r.md")]
    code, peak = traced_peak_mb(argv)
    assert code == 1 and peak < 10, peak
    assert "exceeds the maximum of 4000" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--sunlet-n", "--prism-n", "--prism-dim-n"])
def test_reproduce_empty_range_is_an_argument_error(tmp_path, capsys, flag):
    out = tmp_path / "r.md"
    assert run(["reproduce", flag, "5..4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"edge-drs: argument error: {flag} '5..4' is an empty range\n"
    assert not out.exists()


def test_deeply_nested_graph_file_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run(["dim", "--graph", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("edge-drs: error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_experiment_budget_falls_back_to_greedy(capsys):
    code, report = run_json(
        capsys, ["experiment", "--n", "7..7", "--k", "2", "--budget", "30", "--json"]
    )
    assert code == 0
    row = report["rows"][0]
    assert row["psi_edge_exact"] is False
    assert row["dim_edge"] is None
    assert row["psi_edge"] >= 3


def test_reproduce_quick(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = run([
        "reproduce", "--sunlet-n", "4..6", "--prism-n", "6..7",
        "--prism-dim-n", "3..6", "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in printed
    text = out.read_text()
    assert text.startswith("# Edge resolving-set reference battery")
    assert "Overall: PASS" in text
    assert "| n | value | expected | match |" in text


def test_psi_greedy_flag(capsys):
    code, report = run_json(
        capsys,
        ["psi", "--graph", "prism:6", "--mode", "edge", "--json", "--greedy"],
    )
    assert code == 0
    assert report["greedy"]["size"] >= report["result"]["cardinality"]


def test_argument_errors_exit_two(capsys):
    assert run(["psi", "--graph", "nonsense"]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["psi", "--graph", "sunlet:2"]) == 2
    capsys.readouterr()
    assert run(["psi", "--graph", "sunlet:8", "--start-at-dim"]) == 2
    capsys.readouterr()


def test_computation_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["psi", "--graph", f"file:{missing}", "--mode", "edge"]) == 1
    capsys.readouterr()
    disconnected = tmp_path / "disc.json"
    disconnected.write_text(json.dumps({"order": 4, "edges": [[0, 1], [2, 3]]}))
    assert run(["psi", "--graph", f"file:{disconnected}", "--mode", "edge"]) == 1
    capsys.readouterr()


def test_budget_error_exit_one(capsys):
    assert run(["psi", "--graph", "prism:8", "--mode", "edge", "--budget", "5"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err


@pytest.mark.parametrize("labels", [{"a": 5}, []])
def test_malformed_labels_exit_one_with_one_line(tmp_path, capsys, labels):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 3, "edges": [[0, 1], [1, 2]], "labels": labels}))
    assert run(["psi", "--graph", f"file:{path}", "--mode", "edge"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("edge-drs: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [["psi", "--graph", "prism:6", "--mode", "edge"],
     ["dim", "--graph", "prism:6"],
     ["experiment", "--n", "6..6"]],
)
def test_non_positive_budget_is_an_argument_error(capsys, argv, budget):
    assert run([*argv, "--budget", budget]) == 2
    assert "--budget" in capsys.readouterr().err


def test_partial_labels_fall_back_to_endpoint_names(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "order": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "labels": {"a": [0, 1], "b": [2, 3]},
    }))
    spec = f"file:{path}"
    names = ["a", "0-3", "1-2", "b"]
    code, report = run_json(capsys, ["distances", "--graph", spec, "--mode", "edge", "--json"])
    assert code == 0
    assert report["elements"] == names
    assert run(["distances", "--graph", spec, "--mode", "edge"]) == 0
    assert capsys.readouterr().out.split("\n")[0].split() == names
    code, report = run_json(
        capsys, ["psi", "--graph", spec, "--mode", "edge", "--json", "--no-timing"]
    )
    assert code == 0
    assert set(report["result"]["set"]) <= set(names)
    # the fallback name of the unlabeled edge (0, 3) is not a label
    with pytest.raises(KeyError):
        from_spec(spec).edge_of("0-3")


@pytest.mark.parametrize(
    "labels, ok",
    [
        ({"0-3": [0, 1]}, False),  # 0-3 would name both (0, 1) and (0, 3)
        ({"0-3": [0, 3]}, True),
        ({"0-3": [0, 1], "x": [0, 3]}, True),
    ],
)
def test_labels_never_shadow_an_endpoint_name(tmp_path, capsys, labels, ok):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "order": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "labels": labels,
    }))
    argv = ["distances", "--graph", f"file:{path}", "--mode", "edge", "--json"]
    if ok:
        code, report = run_json(capsys, argv)
        assert code == 0
        assert len(set(report["elements"])) == 4
    else:
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("edge-drs: error: ") and err.count("\n") == 1
        assert "0-3" in err


def test_closed_stdout_pipe_is_one_error_line():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "edgedrs.cli", "distances", "--graph", "sunlet:200",
         "--mode", "edge", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        proc.stdout.read(10)  # the reader stops early and closes the pipe
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 1
    assert err.startswith("edge-drs: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    ["cycle:100001", "path:100001", "sunlet:50001", "prism:50001", "gp:50001:2",
     "sunlet:10000000"],
)
def test_family_specs_above_the_order_cap_are_argument_errors(capsys, spec):
    with pytest.raises(GraphSpecError, match="maximum of 100000"):
        from_spec(spec)
    assert run(["generate", "--graph", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("edge-drs: argument error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["gp:10:3", "sunlet:7", "prism:6"])
def test_file_graph_output_matches_the_family_graph(tmp_path, capsys, spec):
    # a file graph has no automorphisms: every element is its own orbit
    path = tmp_path / "g.json"
    assert run(["generate", "--graph", spec, "--out", str(path)]) == 0
    capsys.readouterr()
    assert from_spec(f"file:{path}").graph.automorphisms == ()
    for argv in (["dim", "--mode", "edge"], ["psi", "--mode", "edge"],
                 ["dim", "--all-optima"], ["psi", "--mode", "edge", "--all-optima"],
                 ["dim", "--mode", "edge", "--budget", "40"]):
        for extra in (["--json"], []):
            outputs = []
            for graph in (spec, f"file:{path}"):
                code = run([*argv, "--graph", graph, "--no-timing", *extra])
                out, err = capsys.readouterr()
                outputs.append((code, out.replace(f"file:{path}", spec), err))
            assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["dim", "--graph", "cycle:4001", "--mode", "edge"],
    ["psi", "--graph", "path:4001"],
    ["distances", "--graph", "sunlet:2001"],
])
def test_a_matrix_above_the_side_cap_is_refused_before_any_bfs(capsys, monkeypatch, argv):
    def no_bfs(*args):
        raise AssertionError("the cap must be checked before the BFS")

    monkeypatch.setattr(core, "_bfs_row", no_bfs)
    monkeypatch.setattr(core, "line_graph", no_bfs)  # edge mode: nor the line graph
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("edge-drs: error: ") and err.count("\n") == 1
    assert f"the maximum of {core.MAX_MATRIX_SIDE}" in err


def test_experiment_above_the_order_cap_is_an_argument_error(capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("the cap must be checked before any graph is built")

    monkeypatch.setattr(core.Graph, "__init__", no_graph)
    assert run(["experiment", "--n", "50001..50001", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("edge-drs: argument error: ") and err.count("\n") == 1
    assert "'gp:50001:1'" in err and "maximum of 100000" in err


# a labelled file graph: each optimum of its edge search is one string
LABELLED_PATH = {"order": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
                 "labels": {"a": [0, 1], "b": [1, 2], "c": [2, 3], "d": [3, 4]}}

# sha256 of --no-timing stdout, run where file:labelled.json holds LABELLED_PATH;
# these bytes change only with a CHANGES.md entry
GOLDEN_STDOUT = [
    (["experiment", "--n", "5..11", "--no-timing", "--json"],
     "05f855e41e668ba3782cae603ac6131603cf298d3e5747cb0a482540868ba1d6"),
    (["experiment", "--n", "5..11", "--no-timing"],
     "147d474d7dc02335de522ea89f961f6471b473569d037e906411ad32e1e20bdb"),
    (["psi", "--graph", "sunlet:8", "--mode", "edge", "--no-timing", "--json"],
     "56998f4adc7acecfe581e3414b5623cde52a342762737f5fec40ec9c54a72e69"),
    (["psi", "--graph", "prism:30", "--mode", "edge", "--greedy", "--no-timing", "--json"],
     "c4e62da8e06acb371c9ed47c46d58ecd44b22ea93fbbcd76465522f4bb409bbe"),
    (["psi", "--graph", "gp:10:3", "--no-timing", "--json"],
     "0e001e01160c0a30486b25436c5364bde46343ca1483e940d5484cbaf869938d"),
    (["psi", "--graph", "gp:16:7", "--mode", "edge", "--greedy", "--no-timing", "--json"],
     "fafc01133cdfcf544d4f6e6c6c17830024e0012aa3f4ae55b4487371b6414884"),
    (["psi", "--graph", "gp:15:4", "--greedy", "--no-timing", "--json"],
     "721e9196657dafd4e853bb613ab7058ee4007c37ca6579976c21c63188954ae0"),
    (["experiment", "--n", "12..14", "--budget", "1", "--no-timing", "--json"],
     "51f383d69706a8e1ae0a140688d43d44c241f07235e5ef53e2c3b20b0460b66f"),
    (["dim", "--graph", "gp:12:5", "--mode", "edge", "--all-optima", "--no-timing", "--json"],
     "bb7096df47b590fa1874f4e682a37e0640d5838a0e6e38eba9511f152f5f5e9d"),
    (["verify", "--family", "prism", "--n", "6..30", "--no-timing", "--json"],
     "9ac5d0be88874e882eda3ecdb59465957456e55b70dbb0efc6bfbc358c361ea8"),
    (["distances", "--graph", "sunlet:8", "--mode", "edge", "--no-timing"],
     "75dcd9818ac5c44e166e3d4ee66c49b2b19f1528d02c7d272221e739b8984f28"),
    (["distances", "--graph", "sunlet:8", "--mode", "edge", "--no-timing", "--json"],
     "f1c5037631fd489dac903a28ccef831782c37ddbca18c07f532a8428fd8805c8"),
    (["distances", "--graph", "gp:12:5", "--mode", "edge", "--no-timing", "--json"],
     "eafcc1e2f0475fee4e73813849217a8c2203c0bae5641f79a0c1b8bad3d256b1"),
    (["distances", "--graph", "gp:12:5", "--mode", "edge", "--no-timing"],
     "83be6f39b6e2ab4524ad9b587a756f4f035a0c602f9fc38263f0bfd236795cf0"),
    (["distances", "--graph", "prism:7", "--no-timing", "--json"],
     "59a9c95e25ff1e3bef42c2ad75c4ca7a72d0d867cff46a86ceab580f3a47cf0f"),
    (["distances", "--graph", "cycle:9", "--mode", "edge", "--no-timing"],
     "8887c978a0f7d005a1b9f2106e74b84aaabcb31f4fe807f7a0587d5bb8c5ac84"),
    (["distances", "--graph", "path:2", "--mode", "edge", "--no-timing"],
     "ca46d38bb21f20794a8df2dc698e142c165af7b63fe5fb175e43af2eed67d9f9"),
    (["distances", "--graph", "path:2", "--mode", "edge", "--no-timing", "--json"],
     "340f9bf45ee1d2c6f6016b02eaf020b1fff358fba291a56c5662502b9bd33880"),
    (["dim", "--graph", "path:5", "--all-optima", "--no-timing", "--json"],
     "9c305d5319a14ace494073af909ef5ac03ffb21ffada43141591d88a0796ec6a"),
    (["dim", "--graph", "file:labelled.json", "--mode", "edge", "--all-optima",
      "--no-timing", "--json"],
     "17e06a98895ab35d2ef241fd0cd81f6a339da021689e362d8518ea520e9e392d"),
    (["reproduce", "--out", "r.md", "--no-timing", "--json"],
     "fc282aeb4d5df4f7731c27476e37f66a521b46f1cbd5ee47b1fa90908f0d0e00"),
]

# sha256 of the Markdown the default reproduce battery writes
GOLDEN_REPORT_MD = "da02afd00f7628b9d5e4ae5b51870c45481ad68ddff9bcbb81919f08ae2d51d4"


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_no_timing_output_is_byte_identical(tmp_path, capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "labelled.json").write_text(json.dumps(LABELLED_PATH))
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    if argv[0] == "reproduce":
        assert hashlib.sha256((tmp_path / "r.md").read_bytes()).hexdigest() == GOLDEN_REPORT_MD


@pytest.mark.parametrize("spec,mode", [("gp:12:5", "edge"), ("prism:7", "vertex")])
def test_distances_out_file_holds_the_json_stdout(tmp_path, capsys, spec, mode):
    argv = ["distances", "--graph", spec, "--mode", mode, "--no-timing"]
    assert run([*argv, "--json"]) == 0
    printed = capsys.readouterr().out.encode()
    assert json.loads(printed)["matrix"][1][0] == 1
    for extra in (["--json"], []):  # the text report writes the same JSON
        out = tmp_path / "report.json"
        assert run([*argv, *extra, "--out", str(out)]) == 0
        assert out.read_bytes() == printed
        assert (capsys.readouterr().out.encode() == printed) == bool(extra)


def test_the_cached_parser_keeps_no_state_between_runs(capsys, monkeypatch):
    argv, digest = GOLDEN_STDOUT[2]
    assert run(["psi", "--graph", "sunlet:8", "--budget", "0"]) == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    budgets = []

    def recording(g, budget, all_optima):
        budgets.append(budget)
        return edge_metric_dimension(g, budget=budget, all_optima=all_optima)

    monkeypatch.setitem(cli._SEARCHES, ("dim", "edge"), recording)
    dim = ["dim", "--graph", "prism:8", "--mode", "edge"]
    assert run([*dim, "--budget", "5"]) == 1
    assert run(dim) == 0
    assert budgets == [5, DEFAULT_BUDGET]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli._parser()


def test_importing_the_cli_builds_no_parser():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import edgedrs.cli as c; "
            "print(c._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "0\n"


def test_default_reproduce_markdown_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert run(["reproduce", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT_MD
