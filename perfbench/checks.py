"""Row checks of the CSVs a workload writes, against stored references.

A row fails when its `error` column is set, when any numeric cell is not
finite, when `solve_residual` exceeds `RESIDUAL_BOUND`, or when its
primary error value leaves the reference taken from the seed code by more
than `REL_TOL`.  A reference row missing from the CSV, or a row the
reference does not know, fails too.
"""

import csv
import io
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# The largest relative residual among the seed rows is about 6e-12 (2D
# FEM with sparse LU); the other methods sit near 1e-14.
RESIDUAL_BOUND = 1e-8
# The seed reproduces every primary value bit for bit with one thread; the
# tolerance leaves room for a change in summation order only.
REL_TOL = 1e-6

PRIMARY = {
    "fem": "err_h1semi_rel",
    "nodal": "err_h1semi_rel",
    "ls": "err_l2_rel",
    "uwvf": "err_dg",
    "approx_pw": "err_1k_rel",
    "approx_ghp": "err_1k_rel",
    "infsup": "gamma_n",
}

_KEY_COLUMNS = ("method", "domain", "k", "p", "h", "L", "sigma", "dofs")
_TEXT_COLUMNS = ("method", "domain", "error")


def row_key(row):
    return "|".join(f"{c}={row.get(c)}" for c in _KEY_COLUMNS)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def primary_values(text):
    """Map row key -> primary error value of each row of a CSV."""
    values = {}
    for row in _rows(text):
        cell = row.get(PRIMARY.get(row.get("method"), ""))
        values[row_key(row)] = _number(cell) if cell else None
    return values


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _row_problems(row, reference):
    problems = []
    if row.get("error"):
        problems.append(f"error column set: {row['error']}")
    for column, cell in row.items():
        if column not in _TEXT_COLUMNS and cell and not math.isfinite(
                _number(cell)):
            problems.append(f"{column} is '{cell}'")
    residual = row.get("solve_residual")
    if residual and _number(residual) > RESIDUAL_BOUND:
        problems.append(f"solve_residual {residual} > {RESIDUAL_BOUND}")
    key = row_key(row)
    if key not in reference:
        problems.append("row not in the reference")
        return problems
    column = PRIMARY[row["method"]]
    expected = reference[key]
    cell = row.get(column)
    if expected is None or not cell:
        if (expected is None) != (not cell):
            problems.append(f"{column} is '{cell}', reference {expected}")
    elif not abs(_number(cell) - expected) <= REL_TOL * abs(expected):
        problems.append(f"{column} {cell} differs from reference {expected!r}")
    return problems


def check_csv(text, reference):
    """Check one CSV against its reference; returns (attempted, problems).

    `problems` holds one line per failed row.  Attempted rows are the
    reference's rows plus any row the CSV adds beyond them.
    """
    reference = reference or {}
    rows = _rows(text)
    problems = []
    seen = set()
    for row in rows:
        key = row_key(row)
        seen.add(key)
        issues = _row_problems(row, reference)
        if issues:
            problems.append(f"{key}: {'; '.join(issues)}")
    missing = [key for key in reference if key not in seen]
    problems += [f"{key}: missing from the CSV" for key in missing]
    return len(rows) + len(missing), problems


def load_reference(workload):
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {})
