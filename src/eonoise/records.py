"""Finite samples of labeled records and empirical estimation from them."""

from __future__ import annotations

import codecs
import io
import itertools
import os
import re
import stat
from array import array
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import EmptyCellError, RecordsError
from .metrics import bias_derived, error_derived
from .model import CELLS, DerivedPredictor, PerturbationSpec, ProblemInstance, lift_perturbation

RECORD_CSV_HEADER = ("y", "a", "a_c", "score", "yhat")

#: Generator algorithm recorded in output metadata for reproducibility.
RNG_ALGORITHM = "numpy-pcg64"

#: Each label column's two values, in the order of its cell-code bit (_yi for
#: y and yhat), 0 then 1.
_LABEL_VALUES = {"y": (1, -1), "a": (0, 1), "a_c": (0, 1), "yhat": (1, -1)}
_RULES = {
    "y": "must be -1 or +1",
    "a": "must be 0 or 1",
    "a_c": "must be 0 or 1",
    "yhat": "must be -1 or +1",
    "score": "must be finite and lie in [0, 1]",
}
_CONSISTENCY_RULE = "yhat must be +1 exactly where score > 0.5"


def _violations(name: str, col: np.ndarray) -> np.ndarray:
    """Mask of the entries of column ``name`` that RecordSet rejects."""
    if name == "score":
        return ~((col >= 0.0) & (col <= 1.0))  # also true for nan
    lo, hi = _LABEL_VALUES[name]
    return (col != lo) & (col != hi)


def _inconsistent(score: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    return (yhat == 1) != (score > 0.5)


@dataclass(frozen=True)
class RecordSet:
    """Columnar sample of (y, a) rows with optional a_c, score, and yhat.

    y and yhat take values -1/+1, a and a_c take 0/1, score is finite and
    lies in [0, 1].
    When both score and yhat are present, yhat must equal +1 exactly where
    the score exceeds 0.5.

    Every column is stored read-only.  A column is stored as is only when it
    owns its memory and is already read-only; anything else (a writeable
    array, a view, a memmap) is copied first, so a later write by the caller
    does not change the validated columns.
    """

    y: np.ndarray
    a: np.ndarray
    a_c: np.ndarray | None = None
    score: np.ndarray | None = None
    yhat: np.ndarray | None = None
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = None
        for name in RECORD_CSV_HEADER:
            given = getattr(self, name)
            if given is None:
                if name in ("y", "a"):
                    raise RecordsError(f"the {name} column is required")
                continue
            # check before narrowing to int8, which would wrap 255 to -1
            col = np.asarray(given, dtype=float if name == "score" else None)
            if col.ndim != 1:
                raise RecordsError(f"the {name} column must be one-dimensional, got shape {col.shape}")
            if n is None:
                n = col.size
            elif col.size != n:
                raise RecordsError("column lengths differ")
            if _violations(name, col).any():
                raise RecordsError(f"{name} values {_RULES[name]}")
            if name != "score":
                col = col.astype(np.int8, copy=False)
            if not col.flags.owndata or col.flags.writeable:
                col = col.copy()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self.score is not None and self.yhat is not None:
            if _inconsistent(self.score, self.yhat).any():
                raise RecordsError(_CONSISTENCY_RULE)

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def subset(self, idx) -> "RecordSet":
        take = lambda col: None if col is None else read_only(col[idx])
        return RecordSet(y=take(self.y), a=take(self.a), a_c=take(self.a_c),
                         score=take(self.score), yhat=take(self.yhat), meta=dict(self.meta))


def read_only(col: np.ndarray | None) -> np.ndarray | None:
    """Mark a freshly made column read-only, so that RecordSet stores it
    without a copy, and return it."""
    if col is not None:
        col.flags.writeable = False
    return col


class EstimatedInstance(NamedTuple):
    instance: ProblemInstance
    counts: tuple[int, int, int, int]


class CorruptedTables(NamedTuple):
    #: (2, 2, 2) counts over (label, corrupted attribute, prediction).
    joint: np.ndarray
    #: (2, 2, 2, 2) counts over (label, attribute, prediction, corrupted attribute).
    fourway: np.ndarray


class EvalMetrics(NamedTuple):
    bias_pos: float
    bias_neg: float
    error: float


def _yi(values: np.ndarray) -> np.ndarray:
    """Axis index for -1/+1 columns: 0 for +1, 1 for -1."""
    return (values == -1).view(np.uint8)


def _cell_codes(*indices: np.ndarray) -> np.ndarray:
    """A fresh uint8 code per record: its 0/1 index columns packed as bits,
    the first column the most significant."""
    flat = indices[0].astype(np.uint8)
    for col in indices[1:]:
        flat <<= 1
        flat |= col.view(np.uint8)
    return flat


def _counts(*indices: np.ndarray) -> np.ndarray:
    """Float counts of the records in each cell of a table with one binary
    axis per 0/1 index column, in the order given: each cell code is counted
    by one comparison pass, which is faster than np.bincount's widening to
    intp."""
    flat = _cell_codes(*indices)
    k = len(indices)
    counts = [np.count_nonzero(flat == code) for code in range(1 << k)]
    return np.array(counts, dtype=float).reshape((2,) * k)


def clean_counts(records: RecordSet) -> np.ndarray:
    """(2, 2, 2) counts over (label, true attribute, prediction), laid out
    like the joint program_from_table takes; EmptyCellError names the first
    (y, a) cell, in CELLS order, that holds no records."""
    if records.yhat is None:
        raise RecordsError("estimation needs a yhat column")
    table = _counts(_yi(records.y), records.a, _yi(records.yhat))
    _require_records(table, "A")
    return table


def _require_records(table: np.ndarray, attribute: str) -> None:
    """Raise on the first (label, attribute) cell of a count table, in CELLS
    order, that holds no records."""
    for (y, a), count in zip(CELLS, table.reshape(4, -1).sum(axis=1).tolist()):
        if count == 0:
            raise EmptyCellError(f"no records with Y={y}, {attribute}={a}")


def estimate_instance(records: RecordSet) -> EstimatedInstance:
    """Cell frequencies and within-cell positive-prediction rates."""
    table = clean_counts(records)
    counts = tuple(int(c) for c in table.sum(axis=2).ravel().tolist())
    rates = [pos / c for pos, c in zip(table[..., 0].ravel().tolist(), counts)]
    inst = ProblemInstance(base=tuple(c / records.n for c in counts), alpha1=rates[0],
                           beta1=rates[1], alpha2=rates[2], beta2=rates[3])
    return EstimatedInstance(inst, counts)


def estimate_corrupted_tables(records: RecordSet) -> CorruptedTables:
    """Count tables the corrupted training phase and the independence
    measure consume.

    The records are counted once, into the four-way table; the joint sums
    out its true attribute, which is exact on whole counts.
    """
    if records.yhat is None:
        raise RecordsError("estimation needs a yhat column")
    if records.a_c is None:
        raise RecordsError("estimation needs an a_c column")

    fourway = _counts(_yi(records.y), records.a, _yi(records.yhat), records.a_c)
    joint = np.ascontiguousarray(fourway.sum(axis=1).transpose(0, 2, 1))
    _require_records(joint, "corrupted attribute")
    _require_records(fourway, "A")
    return CorruptedTables(joint, fourway)


def evaluate_predictor_on_records(records: RecordSet,
                                  predictor: DerivedPredictor) -> EvalMetrics:
    """Bias and error on the records' empirical distribution: the formulas
    of bias_derived and error_derived at the estimated instance, which take
    the exact expectation over the predictor's internal randomization."""
    inst = estimate_instance(records).instance
    return EvalMetrics(bias_derived(inst, predictor, 1), bias_derived(inst, predictor, -1),
                       error_derived(inst, predictor))


def split(records: RecordSet, seed: int) -> tuple[RecordSet, RecordSet]:
    """Seeded uniform shuffle cut into two halves: the first ``n // 2``
    shuffled records, then the rest."""
    perm = np.random.default_rng(seed).permutation(records.n)
    half = records.n // 2
    return records.subset(perm[:half]), records.subset(perm[half:])


def sample_records(inst: ProblemInstance, n: int, seed: int,
                   spec: PerturbationSpec | None = None,
                   with_scores: bool = False) -> RecordSet:
    """Draw records from the instance's generative model.

    Labels and attributes follow the base cells, predictions follow the
    per-cell rates, and, when a spec is given, the corrupted attribute is
    flipped with the spec's (possibly prediction-dependent) probabilities.
    Scores, when requested, are uniform on the half of [0, 1] consistent
    with the prediction.
    """
    rng = np.random.default_rng(seed)
    cell_idx = rng.choice(4, size=n, p=np.asarray(inst.base))
    y = np.array([1, 1, -1, -1], dtype=np.int8).take(cell_idx)  # the cells in CELLS order
    a = np.array([0, 1, 0, 1], dtype=np.int8).take(cell_idx)
    rates = np.asarray([inst.alpha1, inst.beta1, inst.alpha2, inst.beta2])[cell_idx]
    yhat = 2 * (rng.random(n) < rates).view(np.int8) - 1

    a_c = None
    if spec is not None:
        gen = lift_perturbation(spec)
        # GENERAL_KEYS orders prediction +1 before -1 inside each cell
        flat = cell_idx * 2 + (yhat == -1)
        gammas = np.asarray(gen.rates)[flat]
        a_c = a ^ (rng.random(n) < gammas)  # a fresh int8 column: a 0/1 value xor a flip

    score = None
    if with_scores:
        u = rng.random(n)
        score = 0.5 * u
        pos = np.flatnonzero(yhat == 1)
        score[pos] = 0.5 + 0.5 * (1.0 - u[pos])

    return RecordSet(y=read_only(y), a=read_only(a), a_c=read_only(a_c),
                     score=read_only(score), yhat=read_only(yhat),
                     meta={"seed": int(seed), "rng": RNG_ALGORITHM})


#: Rows write_records_csv formats per ``%`` operation.
_CHUNK_LINES = 1 << 16
_HEADER = [name.encode() for name in RECORD_CSV_HEADER]
#: The bytes of numbers, separators and padding.  On them np.loadtxt reads a
#: field as int() or float() does or rejects it; elsewhere it accepts more,
#: such as ``1\x1c``, and it splits a line at a lone CR.
_NUMERIC_BYTES = b"0123456789+-.eE,\n\r \t\v\f"
_LINE_CONTENT = re.compile(rb"[^\r\n][^\n]*")  # a line from its first byte not CR or LF
#: The bytes int() and float() skip around a number; a field of them is empty.
_PADDING = b" \t\v\f\r"
#: np.loadtxt reads an empty column's fields as bytes of this width and cuts
#: longer ones, so a field that fills the width may hide a value past the cut.
_EMPTY_WIDTH = 4


def read_records_csv(path) -> RecordSet:
    """Read the record CSV format: header ``y,a,a_c,score,yhat``, optional
    columns left empty uniformly.

    Fields are unquoted ASCII, padded with any of space, tab, VT, FF and CR.
    Blank lines and one leading UTF-8 BOM are skipped, and CRLF line endings
    are accepted.  Errors found on a line name its number in the file, blank
    lines included; in a file with several faults, the first line at fault
    is named.

    A file whose rows hold only numbers, commas, padding and CRLF or LF line
    ends is parsed by one np.loadtxt call.  That call reads a regular file a
    second time from ``path``, which is the faster source; a pipe or FIFO
    cannot be read twice, so it reads the bytes already read, decoded by a
    text wrapper.  Any other file, and any file that call or RecordSet
    rejects, is read by _read_lines, which defines the format.
    """
    with open(path, "rb") as fh:
        data = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    source = path if regular else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    try:
        return _load_numeric(source, data)
    except ValueError:  # RecordsError included
        pass
    return _read_lines(path, data)


def _is_header(line: bytes) -> bool:
    return [f.strip() for f in line.removeprefix(codecs.BOM_UTF8).split(b",")] == _HEADER


def _load_numeric(source, data: bytes) -> RecordSet:
    """Parse the columns filled on the first data line as numbers and the
    others as text that must be padding alone; ValueError if the file is not
    of that form.  ``source`` is the path of ``data`` or a text stream of it,
    for np.loadtxt."""
    header = data[:end] if (end := data.find(b"\n")) >= 0 else data
    start = len(header) + 1  # the body, checked in place: a copy would cost the file's size
    line = _LINE_CONTENT.search(data, start)
    first = (line.group() if line else b"").split(b",")
    if (not _is_header(header) or len(first) != 5
            # every CR ends a CRLF; the two counts are skipped when no CR is found
            or (data.find(b"\r", start) >= 0
                and data.count(b"\r", start) != data.count(b"\r\n", start))
            or data.translate(None, _NUMERIC_BYTES) != header.translate(None, _NUMERIC_BYTES)):
        raise ValueError("not a file of numbers")
    empty = f"S{_EMPTY_WIDTH}"
    dtype = [(name, empty if not field.strip(_PADDING) else "f8" if name == "score" else "i1")
             for name, field in zip(RECORD_CSV_HEADER, first)]
    table = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                       encoding="utf-8-sig", ndmin=1)
    cells = b"".join(table[name].tobytes() for name, kind in dtype if kind == empty)
    if cells[_EMPTY_WIDTH - 1::_EMPTY_WIDTH].strip(b"\0") or cells.translate(None, b"\0" + _PADDING):
        raise RecordsError("a column empty on the first data line is filled later")
    return RecordSet(**{name: None if kind == empty else read_only(table[name].copy())
                        for name, kind in dtype})


def _read_lines(path, data: bytes) -> RecordSet:
    """Read a record CSV one line at a time: each field is stripped of
    _PADDING, read by int() or float() and checked by RecordSet's rule for
    its column, then the line is checked for consistency.  The error names
    the first line at fault and, within it, the first field."""
    if not data:
        raise RecordsError(f"{path}: empty file")
    lines = io.BytesIO(data)
    if not _is_header(next(lines)):
        raise RecordsError(f"{path}:1: header must be {','.join(RECORD_CSV_HEADER)}")

    values = {name: array("d" if name == "score" else "b") for name in RECORD_CSV_HEADER}
    filled = None
    for lineno, line in enumerate(lines, start=2):
        line = line.removesuffix(b"\n")
        if line in (b"", b"\r"):
            continue
        fields = [f.strip(_PADDING) for f in line.split(b",")]
        if len(fields) != 5:
            raise RecordsError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        if filled is None:
            filled = dict(zip(RECORD_CSV_HEADER, map(bool, fields)))
        for name, text in zip(RECORD_CSV_HEADER, fields):
            if not filled[name] and name in ("y", "a"):
                raise RecordsError(f"{path}:{lineno}: column {name} is empty; "
                                   "the y and a columns are required")
            if bool(text) != filled[name]:
                here, first = ("filled", "empty") if text else ("empty", "filled")
                raise RecordsError(f"{path}:{lineno}: column {name} is {here} here but {first} "
                                   "on the first data line; fill it in every row or none")
            if not text:
                continue
            try:
                value = float(text) if name == "score" else int(text)
            except ValueError:
                raise RecordsError(f"{path}:{lineno}: bad value in column {name}: "
                                   f"{_show(text)}") from None
            if not (0.0 <= value <= 1.0 if name == "score" else value in _LABEL_VALUES[name]):
                raise RecordsError(f"{path}:{lineno}: {name} {_RULES[name]}, got {_show(text)}")
            if name == "yhat" and filled["score"] and _inconsistent(values["score"][-1], value):
                raise RecordsError(f"{path}:{lineno}: {_CONSISTENCY_RULE}")
            values[name].append(value)
    if filled is None:
        raise RecordsError(f"{path}: no data rows")
    return RecordSet(**{name: read_only(np.array(col, dtype=float if name == "score" else np.int8))
                        for name, col in values.items() if filled[name]})


def _show(field: bytes) -> str:
    return repr(field.decode("ascii", "backslashreplace"))


def write_records_csv(path, records: RecordSet) -> None:
    """Write the record CSV format: labels as ``str(v)``, scores with 12
    significant digits, and absent optional columns left empty.

    A score above 0.5 whose 12-digit text would read back as 0.5 is written
    as ``repr(v)``, the shortest text that reads back as the same float, so
    that every file written reads back, yhat consistent with score.

    Each row's present labels are packed into a cell code (bit 1 for y or
    yhat -1, or for a or a_c 1), which picks one of at most 16 line
    templates built once: the labels' text, ``%.12g`` in the score field
    and empty fields for absent columns.  Each chunk of rows joins its
    rows' templates and, when there is a score column, applies one ``%`` to
    the chunk's scores.
    """
    labels = [name for name in RECORD_CSV_HEADER
              if name != "score" and getattr(records, name) is not None]
    score = records.score
    templates = []
    for values in itertools.product(*(_LABEL_VALUES[name] for name in labels)):
        text = dict(zip(labels, map(str, values)), score="" if score is None else "%.12g")
        templates.append(",".join(text.get(name, "") for name in RECORD_CSV_HEADER) + "\n")
    codes = _cell_codes(*(_yi(getattr(records, name)) if name in ("y", "yhat")
                          else getattr(records, name) for name in labels))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_CSV_HEADER) + "\n")
        for lo in range(0, records.n, _CHUNK_LINES):
            lines = [templates[code] for code in codes[lo:lo + _CHUNK_LINES].tolist()]
            if score is None:
                fh.write("".join(lines))
                continue
            chunk = score[lo:lo + _CHUNK_LINES]
            values = chunk.tolist()
            # only scores within ~5e-13 above 0.5 have "0.5" as their 12-digit text
            for i in np.flatnonzero((chunk > 0.5) & (chunk < 0.5 + 1e-12)).tolist():
                if float("%.12g" % values[i]) <= 0.5:
                    lines[i] = lines[i].replace("%.12g", "%r")
            fh.write("".join(lines) % tuple(values))
