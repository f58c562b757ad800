"""Closed-loop benchmark of the ``edge-drs`` CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload psi-prep --seed 1 --seconds 25 --trace 0

One client in one process sends the workload's invocations to
``edgedrs.cli.run(argv)`` one after another, each as soon as the previous
one returns, in passes over a fixed instance list whose order the seed
fixes.  Passes repeat until ``--seconds`` is spent (but at least
``MIN_PASSES`` passes and ``MIN_SAMPLES`` invocations).  Every answer is
checked against the reference (see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
The lines before it are a readable report and the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads
from workloads import BENCH_DIR, OUT_DIR, ROOT

MIN_PASSES = 3
MIN_SAMPLES = 100
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 7

# name -> unit; all are "lower is better".  error_rate is printed in the
# report but is not a metric of the result line, because it is 0 on every
# correct run; the result line's ``failed`` / ``attempted`` carry it.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_ms_p50": "ms",
    "cmd_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import workloads; workloads.setup(*sys.argv[2:])"
)


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Median wall time of fresh interpreters that do the run's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), workload,
             str(seed), "1" if smoke else "0"],
            check=True, cwd=ROOT, timeout=60,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Client:
    """Sends invocations in-process and checks each answer."""

    def __init__(self, cli, refs: dict, tracer=None):
        self.cli = cli
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies_ms: dict[str, list[float]] = {}  # invocation key -> one per pass

    def send(self, inv: workloads.Invocation) -> tuple[float, int]:
        """Run one invocation; returns its latency (ms) and stdout size (bytes)."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
        self.attempted += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(inv.resolve(OUT_DIR))
        except Exception:
            code = None
            reason = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        latency = (time.perf_counter() - started) * 1000.0
        stdout = out.getvalue()
        if code is not None:
            try:
                got = workloads.answer(inv, code, stdout, OUT_DIR)
                reason = workloads.failure(inv, got, self.refs)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason and err.getvalue():
                reason += f" (stderr: {err.getvalue().strip()})"
        if reason:
            self.failures.append(f"{inv.key}: {reason}")
        return latency, len(stdout.encode())

    def run_pass(self, order: list[workloads.Invocation]) -> tuple[float, int]:
        """One pass: summed latency (s) and summed stdout bytes."""
        total_ms = 0.0
        total_bytes = 0
        for inv in order:
            latency, size = self.send(inv)
            self.latencies_ms.setdefault(inv.key, []).append(latency)
            total_ms += latency
            total_bytes += size
        return total_ms / 1000.0, total_bytes


def _keep_going(walls: list[float], enough: bool, started: float, seconds: float) -> bool:
    """Start another pass until the minimum is met and the next would overrun."""
    if not enough:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def _warm_up(client: Client, invs: list[workloads.Invocation]) -> None:
    """Send the first invocation of each subcommand once, unmeasured."""
    firsts = {}
    for inv in invs:
        firsts.setdefault(inv.command, inv)
    for inv in firsts.values():
        client.send(inv)


def timed_run(edgedrs, refs, invs, rng, seconds) -> tuple[Client, dict]:
    client = Client(edgedrs.cli, refs)
    _warm_up(client, invs)
    walls: list[float] = []
    started = time.perf_counter()
    while _keep_going(walls, len(walls) >= MIN_PASSES
                      and len(walls) * len(invs) >= MIN_SAMPLES, started, seconds):
        walls.append(client.run_pass(workloads.pass_order(invs, rng))[0])
    samples = [x for per_key in client.latencies_ms.values() for x in per_key]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    metrics = {
        # one pass, from each invocation's median over passes, so that a
        # stall in one invocation of one pass does not move it
        "wall_s": sum(statistics.median(v) for v in client.latencies_ms.values()) / 1000.0,
        "cmd_ms_p50": statistics.median(samples),
        "cmd_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": len(walls),
        "pass_walls_s": [round(w, 4) for w in walls],
        "invocations_per_pass": len(invs),
        "latency_samples": len(samples),
        "samples_beyond_p90": sum(s > deciles[8] for s in samples),
    }
    return client, {"metrics": metrics, "notes": notes}


def traced_run(edgedrs, refs, invs, rng, seconds) -> tuple[Client, dict]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    tracer = spans.Tracer()
    client = Client(edgedrs.cli, refs, tracer)
    _warm_up(client, invs)
    search = edgedrs.resolving.min_cardinality_search
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict] = []
    started = time.perf_counter()
    while _keep_going([p + t for p, t in zip(plain_walls, traced_walls)],
                      len(traced_walls) >= MIN_TRACED_PASSES, started, seconds):
        plain_walls.append(client.run_pass(workloads.pass_order(invs, rng))[0])
        tracer.reset()
        tracer.install()
        try:
            wall, output_bytes = client.run_pass(workloads.pass_order(invs, rng))
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        per_pass.append(spans.pass_metrics(tracer.spans, output_bytes))
    metrics = spans.median_metrics(per_pass)
    metrics.update(spans.probe_fixed_costs(search, tracer.spans))
    spans.per_subset_us(metrics)
    metrics["trace.overhead_ms"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls)) * 1000.0
    return client, {
        "metrics": metrics,
        "notes": {"untraced_pass_walls_s": [round(w, 4) for w in plain_walls],
                  "traced_pass_walls_s": [round(w, 4) for w in traced_walls]},
        "spans": [s.to_json_dict() for s in tracer.spans],
    }


def _git_sha() -> str:
    # Read the checkout's own .git rather than run git, which would search
    # the directories above a checkout that is not a repository.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_at_start": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None, refs: dict | None = None) -> int:
    args = parse_args(argv)
    record = run_record(args)
    try:
        edgedrs = workloads.load_program()
        refs = workloads.load_refs() if refs is None else refs
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot load the program or its references: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    invs = workloads.invocations(args.workload, args.smoke)
    rng = random.Random(args.seed)
    if args.trace:
        client, result = traced_run(edgedrs, refs, invs, rng, args.seconds)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"record": record, "spans": result["spans"]}))
        print(f"spans of the last traced pass written to {spans_path}")
    else:
        setup_s = measure_setup(args.workload, args.seed, args.smoke)
        client, result = timed_run(edgedrs, refs, invs, rng, args.seconds)
        units = END_TO_END
        result["metrics"] = {"setup_s": setup_s, **result["metrics"]}
    failed = len(client.failures)
    print("record: " + json.dumps(record))
    print("notes: " + json.dumps(result["notes"]))
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {failed / client.attempted:.6g} ratio "
          f"({failed} of {client.attempted} invocations failed)")
    for line in client.failures[:20]:
        print("FAILED " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
