"""Regenerate the pinned reference CSVs in ``reference/``.

Run from the root of a source checkout, only when a change is meant to
alter the program's numbers (say so where the change is described):

    python3 bench/pin_reference.py

Each workload is run once on the reference seed, in a workload process with
the same environment the benchmark uses.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        argv = workloads.prepare(name, run.REFERENCE_SEED, root, work)
        call = run.run_child(root, work, argv, [False])["calls"][0]
        if call["exit_code"] != 0:
            print(f"{name}: exit code {call['exit_code']}", file=sys.stderr)
            return 1
        (run.REFERENCE_DIR / f"{name}.csv").write_text(call["csv"])
        print(f"{name}: {call['csv'].count(chr(10)) - 1} rows pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
