"""Reading run output back: ``ddtr summarize`` aggregates per-iteration
quartiles of a metric across runs, and ``ddtr compare`` checks two runs of
one config against each other. ``cli.main`` imports this module only for
those two commands, so a run does not load it.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .cli import _fmt
from .core import SchemaError
from .ingest import read_csv

_METRIC_PREFERENCE = ("oracle_grad_norm", "grad_norm_surrogate", "grad_norm_est")


def summarize(
    run_dirs: list[str], metric: Optional[str] = None, output: Optional[str] = None
) -> None:
    """Aggregate per-iteration median and quartiles of a metric across the
    run CSVs found in each directory, as CSV to the path ``output`` or to
    stdout. Every run CSV is read first, so a bad one writes nothing."""
    rows = [["dir", "metric", "k", "n_runs", "q25", "median", "q75"]]
    for run_dir in run_dirs:
        directory = Path(run_dir)
        paths = sorted(p for p in directory.glob("*.csv") if p.name != "aggregate.csv")
        if not paths:
            raise SchemaError(f"{directory}: no run CSVs found")
        chosen = metric
        per_run = []
        for path in paths:
            header, records = read_csv(path, SchemaError)
            # Unless chosen, the first preferred column with a finite cell, or else the first one.
            names = [chosen] if chosen else [c for c in _METRIC_PREFERENCE if c in header]
            for column in ["k", *names[:1]]:
                if column not in header:
                    raise SchemaError(f"{path}: missing column {column!r}")
            if not names:
                raise SchemaError(f"{path}: no known metric column in {header}")

            def cell(lineno, row, column, kind):
                try:
                    return kind(row[header.index(column)])
                except ValueError as exc:
                    raise SchemaError(f"{path}:{lineno}: column {column!r}: {exc}") from None

            by_k = {cell(*r, "k", int): [cell(*r, name, float) for name in names] for r in records}
            chosen = next((name for j, name in enumerate(names)
                           if any(math.isfinite(v[j]) for v in by_k.values())), names[0])
            per_run.append({k: v[names.index(chosen)] for k, v in by_k.items()})
        for k in sorted(set().union(*per_run)):
            finite = [by_k[k] for by_k in per_run if math.isfinite(by_k.get(k, math.nan))]
            if not finite:
                continue
            q25, med, q75 = np.percentile(finite, [25, 50, 75])
            rows.append([str(directory), chosen, k, len(finite), _fmt(q25), _fmt(med), _fmt(q75)])
    if output is None:
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(output, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)


# CSV columns and summary.json keys that must be equal; the others are measured.
DECISIONS = ("k", "accepted", "descent_ok", "n_llr", "n_value", "seed", "termination", "iterations")


def _rel_diff(a: str, b: str) -> float:
    """The largest relative difference of two numbers or ``;``-joined vectors;
    NaN matches NaN. Text that is no number, or vectors of unequal length, differ by inf."""
    try:
        pairs = [(float(u), float(v)) for u, v in zip(a.split(";"), b.split(";"), strict=True)]
    except ValueError:
        return math.inf
    worst = 0.0
    for u, v in pairs:
        if u != v and not (math.isnan(u) and math.isnan(v)):
            diff = abs(u - v) / max(abs(u), abs(v))
            worst = max(worst, diff if math.isfinite(diff) else math.inf)
    return worst


def _run_tables(directory: Path) -> dict[str, list[dict]]:
    """A run directory's CSVs by name, as rows of text cells, and its
    summary.json entries in seed order, as rows of ``summary.*`` cells
    without ``wall_time_s``."""
    if not directory.is_dir():  # glob would find nothing and report it as a run of none
        raise SchemaError(f"{directory}: no run CSVs found, not a directory")
    tables = {}
    for path in sorted(p for p in directory.glob("*.csv") if p.name != "aggregate.csv"):
        header, records = read_csv(path, SchemaError)
        tables[path.name] = [dict(zip(header, row)) for _, row in records]
    if (path := directory / "summary.json").exists():
        try:
            runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
            tables[path.name] = [
                {f"summary.{key}": _fmt(np.asarray(value) if isinstance(value, list) else value)
                 for key, value in entry.items() if key != "wall_time_s"}
                for entry in sorted(runs, key=lambda entry: entry["seed"])
            ]
        except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, or no entries
            raise SchemaError(f"{path}: {exc!r}") from None
    return tables


def compare(dir_a: str, dir_b: str) -> bool:
    """Print how the runs in two output directories of one config differ:
    the CSVs paired by name and the summary.json entries by seed, compared
    row by row. Decision columns and keys must be equal; every other one
    gets its largest relative difference and, in a CSV, the first k at which
    it differs. Returns whether the runs are identical."""
    a, b = Path(dir_a), Path(dir_b)
    tables_a, tables_b = _run_tables(a), _run_tables(b)
    if not any(name.endswith(".csv") for name in tables_a.keys() | tables_b.keys()):
        raise SchemaError(f"{a}, {b}: no run CSVs found")
    notes = [f"{name}: only in {a}" for name in sorted(tables_a.keys() - tables_b.keys())]
    notes += [f"{name}: only in {b}" for name in sorted(tables_b.keys() - tables_a.keys())]
    diffs = {}  # column: [largest relative difference, first k at which it differs]
    for name in sorted(tables_a.keys() & tables_b.keys()):
        rows_a, rows_b = tables_a[name], tables_b[name]
        if len(rows_a) != len(rows_b):
            notes.append(f"{name}: {len(rows_a)} rows in {a}, {len(rows_b)} in {b}")
        for row_a, row_b in zip(rows_a, rows_b):
            for column in dict.fromkeys([*row_a, *row_b]):
                x, y = row_a.get(column), row_b.get(column)
                decision = column.rpartition(".")[2] in DECISIONS or None in (x, y)
                diff = 0.0 if x == y else math.inf if decision else _rel_diff(x, y)
                entry = diffs.setdefault(column, [0.0, None])
                entry[0] = max(entry[0], diff)
                if diff and "k" in row_a and (entry[1] is None or int(row_a["k"]) < entry[1]):
                    entry[1] = int(row_a["k"])

    decisions = [c for c, (diff, _) in diffs.items() if diff and c.rpartition(".")[2] in DECISIONS]
    firsts = [k for _, k in diffs.values() if k is not None]
    print(f"{a} against {b}: {len(tables_a.keys() & tables_b.keys())} paired files")
    for line in notes or ["rows: identical"]:
        print(line)
    print("decisions:", f"{', '.join(decisions)} differ" if decisions else "identical")
    print(f"{'column':<30} {'max_rel_diff':>12} {'first_k':>8}")
    for column, (diff, k) in diffs.items():
        print(f"{column:<30} {diff:>12.3g} {'-' if k is None else k:>8}")
    print("first differing k:", min(firsts) if firsts else "-")
    identical = not notes and not any(diff for diff, _ in diffs.values())
    print("identical" if identical else "differ")
    return identical
