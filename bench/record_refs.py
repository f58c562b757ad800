"""Record the reference answers in ``refs.json`` from the current code.

Usage, from the root of a checkout::

    python3 bench/record_refs.py

Runs every invocation of every workload (full and smoke lists) once and
stores its answer.  Recording stops with an error if an answer contradicts
a value the paper gives, so the paper's values are never overwritten by
the code's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads
from workloads import OUT_DIR, REFS_PATH


def main() -> int:
    cli = workloads.load_program().cli
    OUT_DIR.mkdir(exist_ok=True)
    refs: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for inv in workloads.invocations(name, smoke):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run(inv.resolve(OUT_DIR))
                got = workloads.answer(inv, code, out.getvalue(), OUT_DIR)
                for field, value in workloads.paper_answer(inv).items():
                    if got.get(field) != value:
                        print(f"{inv.key}: {field} is {got.get(field)!r}, "
                              f"the paper says {value!r}", file=sys.stderr)
                        return 1
                refs[inv.key] = got
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} reference answers written to {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
