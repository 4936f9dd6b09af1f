"""Reference implementations of the record path, kept only so tests can
compare the package against them.

``read_records_csv`` is a reader for the record CSV format built on the csv
module.  The package's reader parses the file as bytes with numpy; this one
parses each row in Python, field by field.  It accepts what the package's
reader accepts, except that it also reads quoted fields, non-ASCII digits and
Unicode whitespace; its error messages do not name physical lines.

``evaluate_predictor_on_records`` is the package's exact evaluation written
with one boolean mask per (y, a) cell, rebuilt on every call; the package
derives a per-record index once per record set and reuses it.

``write_records_csv`` writes the record CSV format one field at a time,
with ``str`` for labels and ``format(v, ".12g")`` for scores; the package
formats each chunk of rows with one line template.

``evaluate_predictor_sampled`` evaluates a derived predictor by flipping its
coins, where the package takes the exact expectation over them.
"""

import csv
import itertools

import numpy as np

from eonoise import MissingColumnError, RecordsError, ZeroCellError
from eonoise.model import CELLS
from eonoise.records import RECORD_CSV_HEADER, EvalMetrics, RecordSet


def read_records_csv(path) -> RecordSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordsError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != RECORD_CSV_HEADER:
            raise RecordsError(f"{path}: header must be {','.join(RECORD_CSV_HEADER)}")
        rows = [row for row in reader if row]

    if not rows:
        raise RecordsError(f"{path}: no data rows")
    columns = {name: [] for name in RECORD_CSV_HEADER}
    for row in rows:
        if len(row) != 5:
            raise RecordsError(f"{path}: expected 5 fields, got {len(row)}")
        for name, value in zip(RECORD_CSV_HEADER, row):
            columns[name].append(value.strip())

    def parse(name, caster):
        values = columns[name]
        present = [v != "" for v in values]
        if not any(present):
            return None
        if not all(present):
            raise RecordsError(f"{path}: column {name} must be filled uniformly")
        try:
            return np.asarray([caster(v) for v in values])
        except ValueError as exc:
            raise RecordsError(f"{path}: bad value in column {name}: {exc}") from None

    y = parse("y", int)
    a = parse("a", int)
    if y is None or a is None:
        raise RecordsError(f"{path}: y and a columns are required")
    return RecordSet(y=y, a=a, a_c=parse("a_c", int),
                     score=parse("score", float), yhat=parse("yhat", int))


def write_records_csv(path, records: RecordSet) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_CSV_HEADER) + "\n")
        fields = []
        for name in RECORD_CSV_HEADER:
            col = getattr(records, name)
            if col is None:
                fields.append(itertools.repeat("", records.n))
            elif name == "score":
                fields.append([format(v, ".12g") for v in col.tolist()])
            else:
                fields.append(map(str, col.tolist()))
        fh.writelines([",".join(row) + "\n" for row in zip(*fields)])


def evaluate_predictor_on_records(records: RecordSet, predictor) -> EvalMetrics:
    if records.yhat is None:
        raise MissingColumnError("evaluation needs a yhat column")
    flat = (records.yhat == -1).astype(np.intp) * 2 + records.a.astype(np.intp)
    pvals = np.asarray(predictor.p)[flat]

    rate = {}
    for (y, a) in CELLS:
        mask = (records.y == y) & (records.a == a)
        if not mask.any():
            raise ZeroCellError(f"no records with Y={y}, A={a}")
        rate[(y, a)] = float(pvals[mask].mean())
    error = float(np.where(records.y == 1, 1.0 - pvals, pvals).mean())
    return EvalMetrics(
        bias_pos=abs(rate[(1, 0)] - rate[(1, 1)]),
        bias_neg=abs(rate[(-1, 0)] - rate[(-1, 1)]),
        error=error,
    )


def evaluate_predictor_sampled(records: RecordSet, predictor, seed: int,
                               repetitions: int = 100) -> tuple[EvalMetrics, np.ndarray]:
    """Coin-flip evaluation, averaged over repetitions; returns the mean
    metrics and the (repetitions, 3) per-repetition samples."""
    if records.yhat is None:
        raise MissingColumnError("evaluation needs a yhat column")
    flat = (records.yhat == -1).astype(np.intp) * 2 + records.a.astype(np.intp)
    pvals = np.asarray(predictor.p)[flat]
    rng = np.random.default_rng(seed)

    masks = {cell: (records.y == cell[0]) & (records.a == cell[1]) for cell in CELLS}
    for cell, mask in masks.items():
        if not mask.any():
            raise ZeroCellError(f"no records with Y={cell[0]}, A={cell[1]}")

    samples = np.empty((repetitions, 3))
    for rep in range(repetitions):
        outputs = rng.random(records.n) < pvals
        rate = {cell: float(outputs[mask].mean()) for cell, mask in masks.items()}
        error = float(np.where(records.y == 1, ~outputs, outputs).mean())
        samples[rep] = (
            abs(rate[(1, 0)] - rate[(1, 1)]),
            abs(rate[(-1, 0)] - rate[(-1, 1)]),
            error,
        )
    mean = samples.mean(axis=0)
    return EvalMetrics(*map(float, mean)), samples
