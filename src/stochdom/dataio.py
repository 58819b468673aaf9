"""CSV ingestion for scenario tables, discrete variables, and weight vectors.

Files are UTF-8, comma-separated, with a header row and '.' decimals.
A leading date column (header Date/date/DATE) is detected and ignored
by the math.
"""

from __future__ import annotations

import csv

import numpy as np

from .types import DimensionError, DiscreteRandomVariable, DomainError, ScenarioSet

DATE_HEADERS = {"Date", "date", "DATE"}


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise DomainError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    data = [[cell.strip() for cell in row] for row in rows[1:]]
    width = len(header)
    for r, row in enumerate(data, start=2):
        if len(row) != width:
            raise DomainError(f"{path}: row {r} has {len(row)} cells, expected {width}")
    return header, data


def _parse_cell(path, text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"{path}: unparseable cell at row {row}, column '{column}': {text!r}") from None
    if not np.isfinite(value):
        raise DomainError(f"{path}: non-finite cell at row {row}, column '{column}': {text!r}")
    return value


def load_scenarios(path, prob_col: str | None = None) -> ScenarioSet:
    """Load a returns CSV into a ScenarioSet.

    Rows are scenarios and asset columns become matrix rows.  Scenario
    probabilities default to uniform 1/n; pass ``prob_col`` to read them
    from a named column instead.
    """
    header, data = _read_table(path)
    drop = set()
    if header and header[0] in DATE_HEADERS:
        drop.add(0)
    prob_idx = None
    if prob_col is not None:
        if prob_col not in header:
            raise DomainError(f"{path}: probability column '{prob_col}' not found")
        prob_idx = header.index(prob_col)
        drop.add(prob_idx)
    asset_idx = [i for i in range(len(header)) if i not in drop]
    if not asset_idx:
        raise DomainError(f"{path}: no asset columns found")
    n = len(data)
    if n < 2:
        raise DomainError(f"{path}: need at least two scenario rows, got {n}")
    returns = np.empty((len(asset_idx), n))
    for r, row in enumerate(data):
        for a, i in enumerate(asset_idx):
            returns[a, r] = _parse_cell(path, row[i], r + 2, header[i])
    probs = None
    if prob_idx is not None:
        probs = np.array([_parse_cell(path, row[prob_idx], r + 2, header[prob_idx]) for r, row in enumerate(data)])
    return ScenarioSet(returns, probs, tuple(header[i] for i in asset_idx))


def dump_scenarios(s: ScenarioSet, path) -> None:
    """Debug dump of a ScenarioSet; round-trips numeric cells through load_scenarios.

    Non-uniform scenario probabilities go into a trailing 'probability'
    column; reload those with ``load_scenarios(path, prob_col="probability")``.
    """
    table, labels, p = s.returns, s.asset_labels, s.scenario_probabilities
    if np.any(p != p[0]):
        table, labels = np.vstack([table, p]), (*labels, "probability")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(labels)
        out.writerows([format(v, ".17g") for v in col] for col in table.T)


def load_variable(path) -> DiscreteRandomVariable:
    """Load a discrete random variable from a CSV.

    The outcome column is named 'outcome' (case-insensitive) or, if
    absent, the single non-date column.  A 'probability' column is
    optional; probabilities default to uniform.
    """
    header, data = _read_table(path)
    lower = [h.lower() for h in header]
    prob_idx = lower.index("probability") if "probability" in lower else None
    if "outcome" in lower:
        out_idx = lower.index("outcome")
    else:
        rest = [
            i for i in range(len(header))
            if i != prob_idx and header[i] not in DATE_HEADERS
        ]
        if len(rest) != 1:
            raise DomainError(
                f"{path}: expected an 'outcome' column or exactly one value column, got {len(rest)}"
            )
        out_idx = rest[0]
    outcomes = np.array([_parse_cell(path, row[out_idx], r + 2, header[out_idx]) for r, row in enumerate(data)])
    if prob_idx is None:
        probs = np.full(outcomes.size, 1.0 / outcomes.size)
    else:
        probs = np.array([_parse_cell(path, row[prob_idx], r + 2, header[prob_idx]) for r, row in enumerate(data)])
    return DiscreteRandomVariable(outcomes, probs)


def load_weights(path, expected_d: int | None = None) -> np.ndarray:
    """Load a weight vector from a CSV with one data row or one column."""
    header, data = _read_table(path)
    if len(data) == 1 and len(header) >= 1:
        w = np.array([_parse_cell(path, cell, 2, header[i]) for i, cell in enumerate(data[0])])
    elif len(header) == 1:
        w = np.array([_parse_cell(path, row[0], r + 2, header[0]) for r, row in enumerate(data)])
    else:
        raise DomainError(f"{path}: weights must be a single data row or a single column")
    if expected_d is not None and w.size != expected_d:
        raise DimensionError(f"{path}: expected {expected_d} weights, got {w.size}")
    return w
