"""End-to-end and per-layer benchmark of the mpslam-bounds CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload desk-validate --seed 1 --seconds 20 --trace 0

Every sample is a fresh single-threaded Python process (``child.py``) that
imports the package from ``src/``, loads the scenario and calls
``mpslam_bounds.cli.main`` once with the workload's argv, as a CLI user does.
Samples repeat until ``--seconds`` have passed; timings are medians over
them, peak memory a mean. Each run first calls the CLI once on the reference
seed and compares the CSV with the pinned reference in ``reference/``; every
call must exit 0 and produce a finite CSV, identical for identical inputs. A
call that does not counts as failed.

Host speed on a shared machine drifts by more than half within minutes, and
CPU time drifts with it, so raw times of identical runs are not comparable.
Each sample therefore also times a fixed probe loop (``child.py``) before and
after the call, and every reported time is divided by the sample's slowdown,
its mean probe time over ``PROBE_NOMINAL_S``: times read as seconds on a host
that runs the probe in ``PROBE_NOMINAL_S``. The probe shares no code with the
program. The raw times and probe times of every sample are in the record.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``run_s``,
``cpu_s`` and ``peak_rss_mb``. ``--trace 1`` pairs each untraced call with a
traced one in the same process (alternating which goes first) and reports
the per-layer metrics of ``tracing.py`` plus ``trace.overhead``, the median
ratio of traced to untraced wall time. The last line of standard output is
the JSON result; a record with the environment, the repeat counts and every
sample goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import csvcheck
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0
STOP_STARTING_AFTER_S = 110.0  # keeps a run well inside 180 s whatever --seconds says
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Probe time that defines host speed 1 (see the module docstring).
PROBE_NOMINAL_S = 0.1
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_child(root: Path, work: Path, argv: list[str], order: list[bool]) -> dict:
    """Run one fresh workload process and return its report."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    request = {"argv": argv, "src": str(root / "src"), "order": order, "report": str(report)}
    with open(work / "child.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(request)],
                cwd=root, env=dict(os.environ, **THREAD_ENV, PYTHONPATH=str(root / "src")),
                stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not report.is_file():
        tail = (work / "child.log").read_text()[-2000:]
        raise BenchError(f"workload process exited with {proc.returncode}:\n{tail}")
    return json.loads(report.read_text())


def source_record(root: Path) -> dict:
    """Which program was measured: git commit if any, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _slowdown(sample: dict) -> float:
    """How much slower than nominal the host ran this sample's process."""
    return statistics.fmean(sample["probe_s"]) / PROBE_NOMINAL_S


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; return the result line and the full record."""
    started = time.monotonic()
    work = root / ".bench_work" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = (REFERENCE_DIR / f"{workload}.csv").read_text()
    reference_argv = workloads.prepare(workload, REFERENCE_SEED, root, work)
    argv = workloads.prepare(workload, seed, root, work)

    failures: list[str] = []
    attempted = 0
    first: dict[tuple[str, ...], str] = {}  # argv -> CSV of its first passing call

    def judge(call: dict, call_argv: list[str], call_seed: int) -> None:
        nonlocal attempted
        attempted += 1
        key = tuple(call_argv)
        reason = csvcheck.check_call(call["exit_code"], call["csv"], reference,
                                     call_seed == REFERENCE_SEED, first.get(key))
        if reason is None:
            first.setdefault(key, call["csv"])
        else:
            failures.append(f"seed {call_seed}: {reason}")

    ref_report = run_child(root, work, reference_argv, [False])
    judge(ref_report["calls"][0], reference_argv, REFERENCE_SEED)

    samples = []
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES or time.monotonic() < deadline:
        if time.monotonic() - started > STOP_STARTING_AFTER_S:
            break
        order = [len(samples) % 2 == 1, len(samples) % 2 == 0] if trace else [False]
        report = run_child(root, work, argv, order)
        for call in report["calls"]:
            judge(call, argv, seed)
        samples.append(report)

    if trace:
        metrics = layer_metrics(samples)
    else:
        slowdown = [_slowdown(s) for s in samples]
        untraced = [s["calls"][0] for s in samples]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] / v for s, v in zip(samples, slowdown)),
            "run_s": statistics.median(c["wall_s"] / v for c, v in zip(untraced, slowdown)),
            "cpu_s": statistics.median(c["cpu_s"] / v for c, v in zip(untraced, slowdown)),
            # A mean: peak RSS is counted in KiB pages, so medians repeat exactly.
            "peak_rss_mb": statistics.fmean(s["peak_rss_mb"] for s in samples),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    for sample in samples:
        for call in sample["calls"]:
            del call["csv"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
        "result": result,
        "failures": failures,
        "repeats": {"samples": len(samples), "calls": attempted,
                    "reference_seed": REFERENCE_SEED, "min_samples": MIN_SAMPLES},
        "probe_nominal_s": PROBE_NOMINAL_S,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "environment": ref_report["environment"],
        "source": source_record(root),
        "samples": samples,
        "elapsed_s": time.monotonic() - started,
    }
    return record


def layer_metrics(samples: list[dict]) -> dict:
    """Medians over samples of the per-layer metrics, plus trace.overhead."""
    metrics = {}
    traced = [(c, _slowdown(s)) for s in samples for c in s["calls"] if c["traced"]]
    for key, unit in tracing.LAYER_METRICS.items():
        if unit == "s":
            value = statistics.median(c["layers"][key] / v for c, v in traced)
        else:  # counts and ratios repeat exactly; keep them as reported
            value = statistics.median_low(c["layers"][key] for c, _ in traced)
        metrics[key] = {"value": value, "unit": unit}
    ratios = []
    for sample in samples:
        walls = {c["traced"]: c["wall_s"] for c in sample["calls"]}
        ratios.append(walls[True] / walls[False])
    metrics["trace.overhead"] = {"value": statistics.median(ratios), "unit": "ratio"}
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    for needed in ("src/mpslam_bounds/cli.py", "scenarios/desk.yaml"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a source checkout",
                  file=sys.stderr)
            return 2
    try:
        record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
