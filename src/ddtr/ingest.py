"""The package's CSV reader, and credit-scoring CSV data for the robust
regression experiment. ``cli`` imports this module only for a config with a
``csv_path``, and ``report`` for reading runs back, so a run on generated
data does not load it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import ConfigurationError, IngestionError
from .problems import DROProblem, _row_rng

_MISSING = {"", "na", "nan", "null"}


def read_csv(path, error: type[Exception]) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """A UTF-8 CSV file's header and an iterator over its rows, each paired with
    the physical line it ends on; the cells are split as the rows are read. Raises
    ``error`` naming the file for a file that is not UTF-8 or is empty and, with
    the line, for a row whose cell count is not the header's. ``OSError`` from
    opening the file propagates."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from None
    if (header := next(reader, None)) is None:
        raise error(f"{path}: empty file")

    def rows():
        for row in reader:
            if len(row) != len(header):
                raise error(f"{path}:{reader.line_num}: "
                            f"expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row

    return header, rows()


def load_credit_csv(
    path,
    label_column: str = "SeriousDlqin2yrs",
    feature_columns: Optional[Sequence[str]] = None,
) -> DROProblem:
    """Build a DROProblem from a credit-scoring CSV.

    Expected schema: a header row; one label column with values {0, 1}
    (mapped to {-1, +1}); every other listed column numeric.  Rows with a
    missing value are dropped and reported in one ``UserWarning``; features
    are standardized to zero mean and unit variance per column.
    """
    try:
        header, records = read_csv(path, IngestionError)
    except OSError as exc:  # missing or unreadable
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    if label_column not in header:
        raise IngestionError(f"{path}: label column {label_column!r} not in header")
    label_idx = header.index(label_column)
    if feature_columns is None:
        feat_idx = [i for i in range(len(header)) if i != label_idx]
    else:
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise IngestionError(f"{path}: feature columns not in header: {missing}")
        if label_column in feature_columns or len(set(feature_columns)) < len(feature_columns):
            raise IngestionError(f"{path}: feature columns repeat or include the label")
        feat_idx = [header.index(c) for c in feature_columns]
    if not feat_idx:
        raise IngestionError(f"{path}: no feature columns")

    rows, labels, dropped = [], [], []
    for lineno, row in records:
        cells = [row[i].strip() for i in feat_idx] + [row[label_idx].strip()]
        if any(c.lower() in _MISSING for c in cells):
            dropped.append(lineno)
            continue
        try:
            feats = [float(row[i]) for i in feat_idx]
            raw_label = float(row[label_idx])
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        if not all(map(math.isfinite, feats)):  # inf or 1e999 would give NaN features
            raise IngestionError(f"{path}:{lineno}: non-finite feature value")
        if raw_label not in (0.0, 1.0):
            raise IngestionError(f"{path}:{lineno}: label must be 0 or 1, got {raw_label}")
        rows.append(feats)
        labels.append(2.0 * raw_label - 1.0)

    if not rows:
        raise IngestionError(f"{path}: no usable rows (dropped {len(dropped)})")
    if dropped:  # one report per load, and a run loads its file once (cli.RunConfig.dataset)
        warnings.warn(f"{path}: dropped {len(dropped)} of {len(rows) + len(dropped)} rows with "
                      f"a missing value, the first on line {dropped[0]}", stacklevel=2)
    feats = np.asarray(rows)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    return DROProblem(features=(feats - mean) / std, labels=np.asarray(labels))


def subsample(dro: DROProblem, n_rows: int, seed: int) -> DROProblem:
    """Deterministically subsample rows (without replacement) of a data set.

    ``lambda2`` is recomputed as its default 10 / N^2 for the new N; a caller
    with an explicit ``lambda2`` applies it to the result.
    """
    rng = _row_rng(n_rows, seed)
    if n_rows > dro.n_rows:
        raise ConfigurationError(f"cannot subsample {n_rows} of {dro.n_rows} rows")
    idx = np.sort(rng.choice(dro.n_rows, size=n_rows, replace=False))
    return replace(dro, features=dro.features[idx], labels=dro.labels[idx], lambda2=None)
