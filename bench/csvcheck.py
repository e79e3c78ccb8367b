"""Correctness checks on the CLI's CSV output.

On the reference seed a CSV must match the pinned reference: the step column
exactly, bound columns (peb, veb, oeb, meb_*) to 1e-12 relative and Monte-Carlo
columns (rmse_*, maperr_*) to 1e-9 relative. The CLI prints 12 significant
digits, so the bound tolerance admits a change in the last printed digit at
most. On other seeds the CSV must have the reference's header and row count
and finite values, and repeated calls with one input must give identical bytes.
"""

from __future__ import annotations

import math

BOUND_RTOL = 1e-12
MONTE_CARLO_RTOL = 1e-9


def _tolerance(column: str) -> float | None:
    """Relative tolerance of a column; None for the exact step column."""
    if column == "n":
        return None
    if column in ("peb", "veb", "oeb") or column.startswith("meb_"):
        return BOUND_RTOL
    if column.startswith(("rmse_", "maperr_")):
        return MONTE_CARLO_RTOL
    raise ValueError(f"unknown CSV column {column!r}")


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.split("\n") if line]


def compare(text: str, reference: str, values: bool = True) -> str | None:
    """Why ``text`` is off ``reference``, or None when it matches.

    With ``values`` false only the layout and finiteness are checked.
    """
    rows, ref_rows = _rows(text), _rows(reference)
    if not rows or rows[0] != ref_rows[0]:
        return "CSV header differs from the reference"
    if len(rows) != len(ref_rows):
        return f"CSV has {len(rows) - 1} rows, the reference {len(ref_rows) - 1}"
    header = rows[0]
    tolerances = [_tolerance(column) for column in header]
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        if len(row) != len(header):
            return f"CSV row {row[0]} has {len(row)} fields, expected {len(header)}"
        for column, tol, cell, ref_cell in zip(header, tolerances, row, ref_row):
            if tol is None:
                if cell != ref_cell:
                    return f"step column reads {cell}, reference {ref_cell}"
                continue
            value = float(cell)
            if not math.isfinite(value):
                return f"non-finite {column} at step {row[0]}: {cell}"
            if values and not math.isclose(value, float(ref_cell), rel_tol=tol, abs_tol=0.0):
                return (
                    f"{column} at step {row[0]} is {cell}, reference {ref_cell} "
                    f"(relative tolerance {tol:g})"
                )
    return None


def check_call(exit_code: int | str, text: str, reference: str, on_reference_seed: bool,
               first: str | None) -> str | None:
    """Why one CLI call failed, or None when it passed.

    ``first`` is the CSV of the first call with the same input, if any.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    if first is not None and text != first:
        return "CSV differs from an earlier call with the same input"
    return compare(text, reference, values=on_reference_seed)
