"""Reference reader for the record CSV format, built on the csv module.

The package's reader parses the file as bytes with numpy; this one parses
each row in Python, field by field, and is kept only so tests can compare
the two.  It accepts what the package's reader accepts, except that it
also reads quoted fields, non-ASCII digits and Unicode whitespace; its
error messages do not name physical lines.
"""

import csv

import numpy as np

from eonoise import RecordsError, RecordSet
from eonoise.records import RECORD_CSV_HEADER


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
