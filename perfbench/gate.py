"""Correctness gate for sweep outputs.

Two checks per sweep:

* reference rows: every 48th row of the re-parsed CSV agrees with the
  committed values from the original per-sample engine within 1e-10
  absolute, in all eight columns;
* invariants on every row: finite values, u_l >= u_b - 1e-9,
  |u_l - s_xb - s_zb| <= 1e-12 and 0 <= negativity <= 1 + 1e-12.

The negativity's upper limit carries the same 1e-12 round-off allowance as
the term-sum check: at t = 0 of a maximally entangled input (fig3d) the
eigenvalue sum gives 1 + 1.6e-15, not 1.

The CSV carries 12 significant digits, so when the invariants are checked
on re-parsed CSV values (the CLI path, where no records are in memory) the
term-sum check also allows the printed rounding of its three terms.
"""

from __future__ import annotations

import json
import math

COLUMNS = ("t_gamma", "u_l", "u_b", "s_xb", "s_zb", "negativity", "g_plus", "g_minus")
REFERENCE_STRIDE = 48
REFERENCE_ATOL = 1e-10
BOUND_ATOL = 1e-9
SPLIT_ATOL = 1e-12
NEGATIVITY_ATOL = 1e-12
# half a unit in the 12th significant digit of a "%.12g" value
CSV_REL_ROUNDING = 5e-12


def load_reference(path) -> dict[str, list[list[float]]]:
    """Reference rows per sweep name: one list of the eight columns per 48th row."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sweeps"]


def row_error(i: int, row, from_csv: bool) -> str | None:
    """Why one row (eight values in COLUMNS order) breaks an invariant, or None."""
    t, u_l, u_b, s_xb, s_zb, neg, gp, gm = row
    split_tol = SPLIT_ATOL
    if from_csv:
        split_tol += CSV_REL_ROUNDING * (abs(u_l) + abs(s_xb) + abs(s_zb))
    if not all(math.isfinite(v) for v in row):
        return f"row {i}: non-finite value {tuple(row)}"
    if u_l < u_b - BOUND_ATOL:
        return f"row {i}: u_l {u_l!r} below u_b {u_b!r}"
    if abs(u_l - s_xb - s_zb) > split_tol:
        return f"row {i}: |u_l - s_xb - s_zb| = {abs(u_l - s_xb - s_zb):.3e}"
    if not 0.0 <= neg <= 1.0 + NEGATIVITY_ATOL:
        return f"row {i}: negativity {neg!r} outside [0, 1]"
    return None


def record_errors(records) -> list[str]:
    """Invariant violations of in-memory sweep records."""
    errors = (row_error(i, [getattr(r, c) for c in COLUMNS], from_csv=False) for i, r in enumerate(records))
    return [e for e in errors if e]


def csv_errors(path, reference, expected_rows: int, invariants: bool) -> list[str]:
    """Reference disagreements (and, if asked, invariant violations) of a sweep CSV.

    The file is read line by line, so checking adds little to peak memory.
    A shortened grid (same spacing, fewer samples) is compared on the
    reference rows it contains.
    """
    errors = []
    n = 0
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("#") or fh.readline().rstrip("\n") != ",".join(COLUMNS):
            return [f"{path}: missing provenance comment or CSV header"]
        for i, line in enumerate(fh):
            n = i + 1
            row = [float(x) for x in line.split(",")]
            if len(row) != len(COLUMNS):
                errors.append(f"row {i}: {len(row)} columns")
                continue
            if invariants and (err := row_error(i, row, from_csv=True)):
                errors.append(err)
            if i % REFERENCE_STRIDE == 0 and i // REFERENCE_STRIDE < len(reference):
                for col, got, want in zip(COLUMNS, row, reference[i // REFERENCE_STRIDE]):
                    if not abs(got - want) <= REFERENCE_ATOL:
                        errors.append(f"row {i} {col}: {got!r} vs reference {want!r}")
    if n != expected_rows:
        errors.append(f"{n} rows, expected {expected_rows}")
    return errors


def summary_errors(summary, records) -> list[str]:
    """The summary's extremes must be the extremes of the records."""
    u_l = [r.u_l for r in records]
    errors = []
    if summary.u_l_max != max(u_l) or summary.u_l_min != min(u_l):
        errors.append(
            f"summary extremes ({summary.u_l_min!r}, {summary.u_l_max!r}) "
            f"differ from the records' ({min(u_l)!r}, {max(u_l)!r})"
        )
    return errors
