"""Finite samples of labeled records and empirical estimation from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MissingColumnError, RangeError, RecordsError, ZeroCellError
from .model import CELLS, DerivedPredictor, PerturbationSpec, ProblemInstance, lift_perturbation

RECORD_CSV_HEADER = ("y", "a", "a_c", "score", "yhat")

#: Generator algorithm recorded in output metadata for reproducibility.
RNG_ALGORITHM = "numpy-pcg64"

_LABEL_VALUES = {"y": (-1, 1), "a": (0, 1), "a_c": (0, 1), "yhat": (-1, 1)}
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
    owns its memory and, if the caller passed it in, is already read-only;
    anything else (a writeable array, a view, a memmap) is copied first, so
    a later write by the caller changes neither the validated columns nor
    the index that evaluate_predictor_on_records derives from them on first
    use.
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
            if not col.flags.owndata or (col is given and col.flags.writeable):
                col = col.copy()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self.score is not None and self.yhat is not None:
            if _inconsistent(self.score, self.yhat).any():
                raise RecordsError(_CONSISTENCY_RULE)

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @cached_property
    def _eval_index(self) -> "_EvalIndex":
        slot = (_yi(self.yhat) * 2 + self.a).astype(np.uint8)
        cells = tuple(slot[(self.y == y) & (self.a == a)] for (y, a) in CELLS)
        return _EvalIndex(cells, slot + (self.y == 1).astype(np.uint8) * 4)

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
    #: (2, 2, 2) frequencies over (label, corrupted attribute, prediction).
    joint: np.ndarray
    #: (2, 2, 2, 2) counts over (label, attribute, prediction, corrupted attribute).
    fourway: np.ndarray


class _EvalIndex(NamedTuple):
    #: Per (y, a) cell in CELLS order, the (prediction, attribute) slot of
    #: each of its records into a predictor's p, in record order.
    cells: tuple[np.ndarray, ...]
    #: Per record, its slot plus 4 where y = +1: an index into concat(p, 1 - p).
    keys: np.ndarray


class EvalMetrics(NamedTuple):
    bias_pos: float
    bias_neg: float
    error: float


def _yi(values: np.ndarray) -> np.ndarray:
    """Axis index for -1/+1 columns: 0 for +1, 1 for -1."""
    return (values == -1).astype(np.intp)


def _counts(shape: tuple[int, ...], *indices: np.ndarray) -> np.ndarray:
    """Float counts of the records in each cell of a table of ``shape``,
    given one index column per axis."""
    flat = np.ravel_multi_index(indices, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape).astype(float)


def clean_counts(records: RecordSet) -> np.ndarray:
    """(2, 2, 2) counts over (label, true attribute, prediction), laid out
    like the joint program_from_table takes."""
    if records.yhat is None:
        raise MissingColumnError("estimation needs a yhat column")
    return _counts((2, 2, 2), _yi(records.y), records.a, _yi(records.yhat))


def _require_records(table: np.ndarray, attribute: str) -> None:
    """Raise on the first (label, attribute) cell of a count table, in CELLS
    order, that holds no records."""
    for (y, a), count in zip(CELLS, table.reshape(4, -1).sum(axis=1).tolist()):
        if count == 0:
            raise ZeroCellError(f"no records with Y={y}, {attribute}={a}")


def estimate_instance(records: RecordSet) -> EstimatedInstance:
    """Cell frequencies and within-cell positive-prediction rates.

    Every (y, a) cell must contain at least one record; the error names the
    first empty cell in CELLS order.
    """
    table = clean_counts(records)
    _require_records(table, "A")
    counts = tuple(int(c) for c in table.sum(axis=2).ravel().tolist())
    rates = [pos / c for pos, c in zip(table[..., 0].ravel().tolist(), counts)]
    inst = ProblemInstance(base=tuple(c / records.n for c in counts), alpha1=rates[0],
                           beta1=rates[1], alpha2=rates[2], beta2=rates[3])
    return EstimatedInstance(inst, counts)


def estimate_corrupted_tables(records: RecordSet) -> CorruptedTables:
    """Empirical tables the corrupted training phase and the independence
    measure consume.

    The records are counted once, into the four-way table; the joint sums
    out its true attribute, which is exact on whole counts.
    """
    if records.yhat is None:
        raise MissingColumnError("estimation needs a yhat column")
    if records.a_c is None:
        raise MissingColumnError("estimation needs an a_c column")

    fourway = _counts((2, 2, 2, 2), _yi(records.y), records.a, _yi(records.yhat), records.a_c)
    joint = np.ascontiguousarray(fourway.sum(axis=1).transpose(0, 2, 1))
    _require_records(joint, "corrupted attribute")
    joint /= records.n
    _require_records(fourway, "A")
    return CorruptedTables(joint, fourway)


def evaluate_predictor_on_records(records: RecordSet,
                                  predictor: DerivedPredictor) -> EvalMetrics:
    """Empirical bias and error using the exact expectation over the
    predictor's internal randomization: each record contributes
    p[(yhat, a)] to the positive rate of its (y, a) cell instead of a
    sampled coin flip."""
    if records.yhat is None:
        raise MissingColumnError("evaluation needs a yhat column")
    index = records._eval_index
    p = np.asarray(predictor.p, dtype=float)

    rate = {}
    for (y, a), slots in zip(CELLS, index.cells):
        if not slots.size:
            raise ZeroCellError(f"no records with Y={y}, A={a}")
        rate[(y, a)] = float(p[slots].mean())
    error = float(np.concatenate((p, 1.0 - p))[index.keys].mean())
    return EvalMetrics(
        bias_pos=abs(rate[(1, 0)] - rate[(1, 1)]),
        bias_neg=abs(rate[(-1, 0)] - rate[(-1, 1)]),
        error=error,
    )


def split(records: RecordSet, fractions: Sequence[float], seed: int) -> list[RecordSet]:
    """Seeded uniform shuffle followed by contiguous slices.

    Slice boundaries are cumulative floors of n * fraction; when the
    fractions sum to one the last batch absorbs the remainder rows.
    """
    fracs = [float(f) for f in fractions]
    if not fracs or any(f <= 0.0 for f in fracs):
        raise RangeError("fractions must be positive")
    total = sum(fracs)
    if total > 1.0 + 1e-12:
        raise RangeError(f"fractions sum to {total}, more than 1")

    perm = np.random.default_rng(seed).permutation(records.n)
    bounds = [0]
    running = 0.0
    for f in fracs:
        running += f
        bounds.append(int(np.floor(records.n * running + 1e-9)))
    if total >= 1.0 - 1e-9:
        bounds[-1] = records.n
    return [records.subset(perm[bounds[i]:bounds[i + 1]]) for i in range(len(fracs))]


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
    y = np.where(cell_idx < 2, 1, -1).astype(np.int8)
    a = (cell_idx % 2).astype(np.int8)
    rates = np.asarray([inst.alpha1, inst.beta1, inst.alpha2, inst.beta2])[cell_idx]
    yhat = np.where(rng.random(n) < rates, 1, -1).astype(np.int8)

    a_c = None
    if spec is not None:
        gen = lift_perturbation(spec)
        # GENERAL_KEYS orders prediction +1 before -1 inside each cell
        flat = cell_idx * 2 + (yhat == -1)
        gammas = np.asarray(gen.rates)[flat]
        flips = rng.random(n) < gammas
        a_c = np.where(flips, 1 - a, a).astype(np.int8)

    score = None
    if with_scores:
        u = rng.random(n)
        score = np.where(yhat == 1, 0.5 + 0.5 * (1.0 - u), 0.5 * u)

    return RecordSet(y=read_only(y), a=read_only(a), a_c=read_only(a_c),
                     score=read_only(score), yhat=read_only(yhat),
                     meta={"seed": int(seed), "rng": RNG_ALGORITHM})


#: Physical lines parsed per chunk.  A chunk is halved until its line count
#: times its longest line is at most _CHUNK_BYTES, which bounds the
#: (lines, field width) byte matrix built for each of its columns.
_CHUNK_LINES = 1 << 16
_CHUNK_BYTES = 1 << 22
_LF, _CR, _COMMA, _SPACE = b"\n"[0], b"\r"[0], b","[0], b" "[0]
#: The bytes int() and float() skip around a number; a field made only of
#: them is empty.
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b" \t\v\f\r")] = True


def read_records_csv(path) -> RecordSet:
    """Read the record CSV format: header ``y,a,a_c,score,yhat``, optional
    columns left empty uniformly.

    Fields are unquoted ASCII, padded with any of space, tab, VT, FF and CR.
    Blank lines are skipped and CRLF line endings are accepted.  Errors found
    on a line name its number in the file, blank lines included.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if buf.size == 0:
        raise RecordsError(f"{path}: empty file")
    starts, ends = _line_bounds(buf)
    header = tuple(f.strip() for f in buf[starts[0]:ends[0]].tobytes().split(b","))
    if header != tuple(h.encode() for h in RECORD_CSV_HEADER):
        raise RecordsError(f"{path}:1: header must be {','.join(RECORD_CSV_HEADER)}")
    n = int(np.count_nonzero(ends[1:] > starts[1:]))
    if n == 0:
        raise RecordsError(f"{path}: no data rows")

    columns = {name: np.empty(n, dtype=float if name == "score" else np.int8)
               for name in RECORD_CSV_HEADER}
    present = {}
    row = 0
    for first, stop, width in _chunks(starts, ends):
        kept = np.flatnonzero(ends[first:stop] > starts[first:stop]) + first
        if not kept.size:
            continue
        linenos = kept + 1
        # The chunk's bytes, with room to read a window of `width` bytes from
        # any field start; only the file's last chunk needs a copy for that.
        base = starts[kept[0]]
        seg = buf[base:ends[kept[-1]] + width]
        if seg.size < ends[kept[-1]] + width - base:
            seg = np.concatenate((seg, np.full(width, _SPACE, dtype=np.uint8)))
        s, e = starts[kept] - base, ends[kept] - base

        commas = np.flatnonzero(seg[:e[-1]] == _COMMA)
        nfields = np.searchsorted(commas, e) - np.searchsorted(commas, s) + 1
        bad = np.flatnonzero(nfields != 5)
        if bad.size:
            raise RecordsError(f"{path}:{linenos[bad[0]]}: expected 5 fields, got {nfields[bad[0]]}")
        commas = commas.reshape(-1, 4)
        field_starts = np.column_stack((s, commas + 1))
        field_ends = np.column_stack((commas, e))

        rows = slice(row, row + kept.size)
        for j, name in enumerate(RECORD_CSV_HEADER):
            fs, fe = field_starts[:, j], field_ends[:, j]
            if not present.setdefault(name, not _IS_SPACE[seg[fs[0]:fe[0]]].all()):
                _check_empty_column(path, name, _gather_fields(seg, fs, fe), linenos)
            elif name == "score":
                columns[name][rows] = _parse_column(path, name, _gather_fields(seg, fs, fe), linenos)
            else:
                values, odd = _decode_labels(seg, fs, fe - fs, name)
                if odd.size:
                    values[odd] = _parse_column(path, name, _gather_fields(seg, fs[odd], fe[odd]),
                                                linenos[odd])
                columns[name][rows] = values
        if present["score"] and present["yhat"]:
            bad = np.flatnonzero(_inconsistent(columns["score"][rows], columns["yhat"][rows]))
            if bad.size:
                raise RecordsError(f"{path}:{linenos[bad[0]]}: {_CONSISTENCY_RULE}")
        row += kept.size

    return RecordSet(**{name: read_only(col) if present[name] else None
                        for name, col in columns.items()})


def _line_bounds(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of every line; a line's end excludes its LF or
    CRLF, and a last line without one ends at the end of the file."""
    ends = np.flatnonzero(buf == _LF)
    if buf[-1] != _LF:
        ends = np.append(ends, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    crlf = ends > starts
    crlf[crlf] = buf[ends[crlf] - 1] == _CR
    return starts, ends - crlf


def _chunks(starts: np.ndarray, ends: np.ndarray):
    """Yield (first line, stop line, longest line length + 1) for chunks of
    the data lines, 0-based, header excluded."""
    first = 1
    while first < starts.size:
        stop = min(first + _CHUNK_LINES, starts.size)
        while True:
            width = int((ends[first:stop] - starts[first:stop]).max()) + 1
            if stop - first == 1 or (stop - first) * width <= _CHUNK_BYTES:
                break
            stop = first + (stop - first) // 2
        yield first, stop, width
        first = stop


def _gather_fields(seg: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The fields ``seg[start[i]:end[i]]`` as rows of a (fields, width) byte
    matrix, padded with spaces.

    Every row keeps at least one space of padding: viewed as an ``S<w>``
    array, a field ending in a NUL byte would otherwise lose it and parse.
    """
    length = end - start
    width = int(length.max()) + 1
    fields = sliding_window_view(seg, width)[start]
    fields[np.arange(width) >= length[:, None]] = _SPACE
    return fields


def _decode_labels(seg: np.ndarray, start: np.ndarray, length: np.ndarray,
                   name: str) -> tuple[np.ndarray, np.ndarray]:
    """Values of a label column's fields read straight from their bytes, and
    the positions of the fields this cannot read.

    A field spelled exactly ``str(v)`` for one of the column's two values is
    read as v; any other field (padded, ``+1``, ``01``, bad) is left for
    _parse_column, and its slot in the returned values is arbitrary.
    """
    first = seg[start]
    lo, hi = _LABEL_VALUES[name]
    hits = []
    for v in (lo, hi):
        spelled = str(v).encode()
        hit = (length == len(spelled)) & (first == spelled[0])
        for k, byte in enumerate(spelled[1:], start=1):
            hit &= seg[start + k] == byte
        hits.append(hit)
    values = np.where(hits[0], np.int8(lo), np.int8(hi))
    return values, np.flatnonzero(~(hits[0] | hits[1]))


def _parse_column(path, name: str, fields: np.ndarray, linenos: np.ndarray) -> np.ndarray:
    """Values of a filled column; each field is cast by Python's int() or
    float() rules, then checked against RecordSet's rule for the column."""
    text = fields.view(f"S{fields.shape[1]}").ravel()
    dtype = np.float64 if name == "score" else np.int64
    try:
        values = text.astype(dtype)
    except (ValueError, OverflowError):
        k = _first_unparsable(text, dtype)
        if _IS_SPACE[fields[k]].all():
            raise RecordsError(f"{path}:{linenos[k]}: column {name} is empty here but filled "
                               "on the first data line; fill it in every row or none") from None
        raise RecordsError(f"{path}:{linenos[k]}: bad value in column {name}: "
                           f"{_show(text[k])}") from None
    bad = np.flatnonzero(_violations(name, values))
    if bad.size:
        raise RecordsError(f"{path}:{linenos[bad[0]]}: {name} {_RULES[name]}, "
                           f"got {_show(text[bad[0]])}")
    return values


def _check_empty_column(path, name: str, fields: np.ndarray, linenos: np.ndarray) -> None:
    if name in ("y", "a"):
        raise RecordsError(f"{path}:{linenos[0]}: column {name} is empty; "
                           "the y and a columns are required")
    filled = np.flatnonzero(~_IS_SPACE[fields].all(axis=1))
    if filled.size:
        raise RecordsError(f"{path}:{linenos[filled[0]]}: column {name} is filled here but "
                           "empty on the first data line; fill it in every row or none")


def _first_unparsable(text: np.ndarray, dtype) -> int:
    for k in range(text.size):
        try:
            text[k:k + 1].astype(dtype)
        except (ValueError, OverflowError):
            return k
    raise AssertionError("a column failed to parse but each of its fields parses")


def _show(field: bytes) -> str:
    return repr(field.strip().decode("ascii", "backslashreplace"))


def write_records_csv(path, records: RecordSet) -> None:
    """Write the record CSV format; absent optional columns are left empty
    and scores are written with 12 significant digits.

    Each chunk of rows is one ``%`` operation: a line template with ``%d``
    for a label, ``%.12g`` for the score and an empty field for an absent
    column, repeated once per row and applied to the chunk's values
    interleaved row by row.  ``%d`` and ``%.12g`` give the bytes of
    ``str(int)`` and ``format(v, ".12g")``.
    """
    columns = [getattr(records, name) for name in RECORD_CSV_HEADER]
    present = [col for col in columns if col is not None]
    line = ",".join("" if col is None else "%.12g" if name == "score" else "%d"
                    for name, col in zip(RECORD_CSV_HEADER, columns)) + "\n"
    k = len(present)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_CSV_HEADER) + "\n")
        for lo in range(0, records.n, _CHUNK_LINES):
            hi = min(lo + _CHUNK_LINES, records.n)
            values = [None] * (k * (hi - lo))
            for j, col in enumerate(present):
                values[j::k] = col[lo:hi].tolist()
            fh.write(line * (hi - lo) % tuple(values))
