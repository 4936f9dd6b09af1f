"""Reference implementations of the record path, kept only so tests can
compare the package against them.

``read_records_csv`` is a reader for the record CSV format built on the csv
module.  The package's reader hands a file of plain numbers and padding to
``np.loadtxt`` and reads any other file by splitting its bytes into lines and
fields; this one leaves lines, quoting and fields to the csv module.  It
accepts what the package's reader accepts, except that it also reads quoted
fields, non-ASCII digits and Unicode whitespace; its error messages do not
name physical lines.

``evaluate_predictor_on_records`` is the package's exact evaluation written
with one boolean mask per (y, a) cell, rebuilt on every call; the package
derives a per-record index once per record set and reuses it.

``write_records_csv`` writes the record CSV format one field at a time,
with ``str`` for labels and ``format(v, ".12g")`` for scores; the package
formats each chunk of rows with one line template.

``evaluate_predictor_sampled`` evaluates a derived predictor by flipping its
coins, where the package takes the exact expectation over them.

``estimate_instance`` counts each (y, a) cell and its positive predictions
with one boolean mask per cell, and ``estimate_corrupted_tables`` counts the
joint and the four-way table with a bincount each; the package counts the
records once per table and reads the cells and the joint from it.
"""

import csv
import itertools

import numpy as np

from eonoise import MissingColumnError, ProblemInstance, RecordsError, ZeroCellError
from eonoise.model import A_VALUES, CELLS, Y_VALUES
from eonoise.records import (
    RECORD_CSV_HEADER,
    CorruptedTables,
    EstimatedInstance,
    EvalMetrics,
    RecordSet,
)


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


def estimate_instance(records: RecordSet) -> EstimatedInstance:
    if records.yhat is None:
        raise MissingColumnError("estimation needs a yhat column")
    counts = []
    rates = []
    for (y, a) in CELLS:
        mask = (records.y == y) & (records.a == a)
        c = int(mask.sum())
        if c == 0:
            raise ZeroCellError(f"no records with Y={y}, A={a}")
        counts.append(c)
        rates.append(float((records.yhat[mask] == 1).mean()))
    base = tuple(c / records.n for c in counts)
    inst = ProblemInstance(base=base, alpha1=rates[0], beta1=rates[1],
                           alpha2=rates[2], beta2=rates[3])
    return EstimatedInstance(inst, tuple(counts))


def _bincount_table(shape, *indices) -> np.ndarray:
    flat = np.ravel_multi_index(indices, shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape).astype(float)


def estimate_corrupted_tables(records: RecordSet) -> CorruptedTables:
    if records.yhat is None:
        raise MissingColumnError("estimation needs a yhat column")
    if records.a_c is None:
        raise MissingColumnError("estimation needs an a_c column")

    yi = (records.y == -1).astype(np.intp)
    yti = (records.yhat == -1).astype(np.intp)
    joint = _bincount_table((2, 2, 2), yi, records.a_c, yti)
    for i, y in enumerate(Y_VALUES):
        for ac in A_VALUES:
            if joint[i, ac].sum() == 0:
                raise ZeroCellError(f"no records with Y={y}, corrupted attribute={ac}")
    joint /= records.n

    fourway = _bincount_table((2, 2, 2, 2), yi, records.a, yti, records.a_c)
    for i, y in enumerate(Y_VALUES):
        for a in A_VALUES:
            if fourway[i, a].sum() == 0:
                raise ZeroCellError(f"no records with Y={y}, A={a}")
    return CorruptedTables(joint, fourway)
