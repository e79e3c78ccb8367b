"""One workload process: set up, call the CLI, report to a JSON file.

Usage: ``python3 child.py '<request JSON>'``. The request names the CLI argv,
the source directory the package must come from, whether to run a traced
call (then paired with an untraced one, in the order given), and where to
write the report. Run with the thread environment the benchmark sets.

The report holds the set-up time (``import mpslam_bounds.cli`` plus
``load_scenario``), per call its wall and CPU time (this process and its
children), exit code and CSV text, the peak resident memory, the versions
of the numeric stack and, for a traced call, its per-layer metrics. The
spans of a traced call are written next to the report. It also holds the
wall time of a fixed host-speed probe run after set-up and after the calls.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

PROBE_ITERATIONS = 8000


def _probe() -> float:
    """Wall time of a fixed loop of small numpy calls and Python bookkeeping.

    The loop has the character of the program's own work (per-call overhead
    on 2x2 arrays) but none of its code, so its time follows the speed the
    host gives this process and nothing a change to the program can do.
    """
    import numpy as np

    start = time.perf_counter()
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        square = rotation @ rotation.T + np.eye(2)
        acc += float(np.linalg.norm(square[:, 0])) + math.atan2(square[0, 1], square[1, 0])
        record = {"step": i, "values": [acc, 0.5 * i]}
        acc -= record["values"][1] * 1e-9
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _timed_call(cli, argv: list[str], out: Path) -> dict:
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        exit_code = cli.main(argv)
    except Exception:  # a crash is a failed call, reported with its traceback
        traceback.print_exc()
        exit_code = "uncaught exception"
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    text = out.read_text() if out.is_file() else ""
    return {"exit_code": exit_code, "wall_s": wall, "cpu_s": cpu, "csv": text}


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(request: dict) -> int:
    argv = request["argv"]
    scenario_path = argv[argv.index("--scenario") + 1]
    out = Path(argv[argv.index("--out") + 1])

    start = time.perf_counter()
    import mpslam_bounds.cli as cli
    from mpslam_bounds.scenario import load_scenario

    scenario = load_scenario(scenario_path)
    setup_s = time.perf_counter() - start

    source = Path(request["src"]).resolve()
    if source not in Path(cli.__file__).resolve().parents:
        print(f"mpslam_bounds imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return 1

    report = {"setup_s": setup_s, "calls": [], "environment": _environment()}
    probes = [_probe()]
    for traced in request["order"]:
        out.unlink(missing_ok=True)
        if not traced:
            report["calls"].append({"traced": False, **_timed_call(cli, argv, out)})
            continue
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            call = _timed_call(cli, argv, out)
        finally:
            tracing.uninstall(patches)
        visible = sum(
            int(scenario.visibility.flags(j, n).sum())
            for j in range(len(scenario.anchors))
            for n in range(1, scenario.n_steps + 1)
        )
        total = len(scenario.anchors) * scenario.n_steps * scenario.order.size
        call["layers"] = tracing.summarize(tracer.spans, visible, total)
        report["calls"].append({"traced": True, **call})
        tracer.write(Path(request["report"]).with_suffix(".spans.tsv"))
    probes.append(_probe())
    report["probe_s"] = probes

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = (usage_self + usage_children) / 1024.0  # ru_maxrss is in KiB
    Path(request["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
