"""Command line entry point.

Loads a scenario file, evaluates the bound recursion and (optionally) the
Monte-Carlo EKF validation, writes one CSV row per time step and prints a
human-readable summary to stderr. The CSV goes to ``--out`` (stdout by
default) with dot decimal separators, newline-terminated rows and at least
nine significant digits, so identical invocations produce byte-identical
files.

Exit codes: 0 success, 2 configuration errors (message names the offending
field), 3 numerical failures (any ``FloatingPointError``: singular or
non-finite information, degenerate true geometry, endfire aperture, failed
run, a non-finite CSV value), 4 failed self-check (violations are listed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .ekf import max_runs, run_monte_carlo
from .pcrlb import run_recursion
from .scenario import ScenarioError, ground_truth, load_scenario, measurement_truth

_ASSUMPTIONS = (
    "every component is detected and associated with its true propagation path",
    "component amplitudes are known deterministic quantities; amplitude "
    "measurements carry no state information",
    "measurement noise variances are known deterministic functions of the amplitudes",
    "anchors contribute statistically independent observations",
    "per-component likelihoods factorize and measurements of distinct components "
    "are uncorrelated (diagonal per-anchor channel information)",
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_lines(bounds: np.ndarray, rmse: np.ndarray | None) -> list[str]:
    """The CSV rows of the (n_steps, 3 + S) bound table, beside the RMSE
    table in validate mode; the first non-finite value (earliest step, then
    leftmost column) raises FloatingPointError."""
    surfaces = range(1, bounds.shape[1] - 2)
    header = ["n", "peb", "veb", "oeb"] + [f"meb_{s}" for s in surfaces]
    table = bounds
    if rmse is not None:
        header += ["rmse_pos", "rmse_vel", "rmse_orient"] + [f"maperr_{s}" for s in surfaces]
        table = np.hstack([bounds, rmse])
    finite = np.isfinite(table)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise FloatingPointError(
            f"step {row + 1}: {header[column + 1]} is not finite ({table[row, column]})")
    rows = (",".join([str(n)] + [_fmt(v) for v in row]) for n, row in enumerate(table.tolist(), 1))
    return [",".join(header), *rows]


def _summary(bounds: np.ndarray, rmse: np.ndarray | None, runs: int) -> str:
    out = ["== bound summary (min / max / final) =="]
    surfaces = range(1, bounds.shape[1] - 2)
    for name, values in zip(["peb", "veb", "oeb"] + [f"meb_{s}" for s in surfaces], bounds.T):
        out.append(f"  {name:<8} {_fmt(values.min())} / {_fmt(values.max())} / {_fmt(values[-1])}")
    if rmse is not None:
        out.append(f"== final RMSE / bound ratios ({runs} runs) ==")
        labels = ["position   ", "velocity   ", "orientation"]
        labels += [f"surface {s}  " for s in surfaces]
        ratios = rmse[-1] / bounds[-1]
        out += [f"  {label} {ratio:.3f}" for label, ratio in zip(labels, ratios)]
    out.append("== modeling assumptions behind the bound ==")
    for i, text in enumerate(_ASSUMPTIONS, start=1):
        out.append(f"  {i}. {text}")
    return "\n".join(out) + "\n"


def _write_csv(lines: list[str], out_path: str) -> None:
    payload = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
        sys.stdout.flush()
    else:
        with open(out_path, "w", newline="\n") as handle:
            handle.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpslam-bounds", description="Posterior error "
                                     "bounds and EKF validation for multipath SLAM")
    parser.add_argument("--scenario", help="scenario YAML file")
    parser.add_argument("--out", default="-", help="CSV output path (default: stdout)")
    parser.add_argument("--mode", choices=("bounds", "validate"), default="validate",
                        help="bounds: recursion only; validate: bounds plus Monte-Carlo EKF")
    parser.add_argument("--mc-runs", type=int, help="override the scenario's run count")
    parser.add_argument("--seed", type=int, help="override the scenario's seed")
    parser.add_argument("--self-check", action="store_true",
                        help="run the finite-difference and PSD invariant suite and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.self_check:
        from .checks import run_self_check  # only this mode compiles the checks
        failures = run_self_check()
        for failure in failures:
            print(f"self-check violation: {failure}", file=sys.stderr)
        if failures:
            print(f"self-check FAILED ({len(failures)} violations)", file=sys.stderr)
            return 4
        print("self-check passed", file=sys.stderr)
        return 0

    if not args.scenario:
        print("error: --scenario is required", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for flag, name, value in (("--mc-runs", "runs", args.mc_runs), ("--seed", "seed", args.seed)):
        if value is None:
            continue
        try:
            scenario = replace(scenario, mc=replace(scenario.mc, **{name: value}))
        except ValueError as exc:
            print(f"error: {flag}: {exc}", file=sys.stderr)
            return 2
    if args.mode == "validate" and scenario.mc.runs > (limit := max_runs(scenario)):
        field = "--mc-runs" if args.mc_runs is not None else "scenario.mc.runs"
        print(f"error: {field}: must be at most {limit} in this room", file=sys.stderr)
        return 2

    try:
        if args.mode == "bounds":
            bounds = run_recursion(scenario, measurement_truth(scenario, ground_truth(scenario)))
            rmse = None
        else:
            bounds, rmse = run_monte_carlo(scenario)
        lines = _csv_lines(bounds, rmse)
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    try:
        _write_csv(lines, args.out)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(_summary(bounds, rmse, scenario.mc.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
