"""Reference implementations of the record path, kept only so tests can
compare the package against them.

``read_records_csv`` is a reader for the record CSV format built on the csv
module.  The package's reader hands a file of plain numbers and padding to
``np.loadtxt`` and reads any other file by splitting its bytes into lines and
fields; this one leaves lines, quoting and fields to the csv module.  It
accepts what the package's reader accepts, except that it also reads quoted
fields, non-ASCII digits and Unicode whitespace; its error messages do not
name physical lines.

``evaluate_predictor_on_records`` evaluates a derived predictor on the
records directly: each record contributes p[(yhat, a)] to the positive rate
of its (y, a) cell, and one boolean mask per cell takes the means.  The
package instead applies ``bias_derived`` and ``error_derived`` to the
instance ``estimate_instance`` reads from the records.  Both equal the
exact rational values of ``evaluate_predictor_exact`` up to rounding.

``write_records_csv`` writes the record CSV format one field at a time,
with ``str`` for labels and ``format(v, ".12g")`` for scores, or ``repr(v)``
for a score above 0.5 whose 12-digit text reads back as at most 0.5; the
package joins per-row line templates picked by a cell code and formats each
chunk's scores with one ``%``.

``sample_records`` draws records with the package's generator calls in the
same order, building each column with ``np.where`` and ``astype`` and both
score branches over every row; the package builds its int8 columns directly
and computes each score branch only where it applies.  Given a spec, it also
draws a corrupted attribute from the spec's eight flip rates, between the
predictions and the scores, so tests can sample corrupted records with
prediction-dependent flips.  The package's sampler has no corrupted
attribute: in the package, ``perturb.apply_scenario`` makes it.

``apply_scenario`` decides each record's flip one record at a time in Python
floats, from the same generator draws as the package, and builds the
corrupted attribute with ``np.where`` and ``astype``; the package takes the
flips as one array expression and xors them into the attribute.

``evaluate_predictor_sampled`` evaluates a derived predictor by flipping its
coins, where the package takes the exact expectation over them.

``estimate_instance`` counts each (y, a) cell and its positive predictions
with one boolean mask per cell, and ``estimate_corrupted_tables`` counts the
joint and the four-way table with a bincount each; the package counts the
records once per table and reads the cells and the joint from it.
"""

import csv
import itertools
from fractions import Fraction

import numpy as np

from eonoise import EmptyCellError, ProblemInstance, RecordsError
from eonoise.model import A_VALUES, CELLS, Y_VALUES
from eonoise.records import (
    RECORD_CSV_HEADER,
    RNG_ALGORITHM,
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
                fields.append([score_text(v) for v in col.tolist()])
            else:
                fields.append(map(str, col.tolist()))
        fh.writelines([",".join(row) + "\n" for row in zip(*fields)])


def score_text(v: float) -> str:
    """The writer's spelling of a score."""
    text = format(v, ".12g")
    return repr(v) if v > 0.5 and float(text) <= 0.5 else text


def sample_records(inst: ProblemInstance, n: int, seed: int, spec=None,
                   with_scores: bool = False) -> RecordSet:
    rng = np.random.default_rng(seed)
    cell_idx = rng.choice(4, size=n, p=np.asarray(inst.base))
    y = np.where(cell_idx < 2, 1, -1).astype(np.int8)
    a = (cell_idx % 2).astype(np.int8)
    rates = np.asarray([inst.alpha1, inst.beta1, inst.alpha2, inst.beta2])[cell_idx]
    yhat = np.where(rng.random(n) < rates, 1, -1).astype(np.int8)

    a_c = None
    if spec is not None:
        gammas = np.asarray(spec.rates)[cell_idx * 2 + (yhat == -1)]
        flips = rng.random(n) < gammas
        a_c = np.where(flips, 1 - a, a).astype(np.int8)

    score = None
    if with_scores:
        u = rng.random(n)
        score = np.where(yhat == 1, 0.5 + 0.5 * (1.0 - u), 0.5 * u)
    return RecordSet(y=y, a=a, a_c=a_c, score=score, yhat=yhat,
                     meta={"seed": int(seed), "rng": RNG_ALGORITHM})


def apply_scenario(records: RecordSet, scenario, seed: int) -> RecordSet:
    n = len(records.y)
    if scenario.kind.startswith("score-band"):
        if records.score is None:
            raise RecordsError("scenario needs a score column")
        flips = [abs(float(s) - 0.5) <= scenario.level for s in records.score]
    else:
        u = np.random.default_rng(seed).random(n)
        flips = [float(v) < scenario.level for v in u]
    if scenario.kind.endswith("on-errors"):
        if records.yhat is None:
            raise RecordsError("on-errors scenarios need a yhat column")
        flips = [f and int(yh) != int(y) for f, y, yh in zip(flips, records.y, records.yhat)]
    a_c = np.where(np.asarray(flips, dtype=bool), 1 - records.a, records.a).astype(np.int8)
    meta = dict(records.meta, scenario=scenario.kind, level=scenario.level,
                seed=int(seed), rng=RNG_ALGORITHM)
    return RecordSet(y=records.y, a=records.a, a_c=a_c, score=records.score,
                     yhat=records.yhat, meta=meta)


def evaluate_predictor_on_records(records: RecordSet, predictor) -> EvalMetrics:
    if records.yhat is None:
        raise RecordsError("evaluation needs a yhat column")
    flat = (records.yhat == -1).astype(np.intp) * 2 + records.a.astype(np.intp)
    pvals = np.asarray(predictor.p)[flat]

    rate = {}
    for (y, a) in CELLS:
        mask = (records.y == y) & (records.a == a)
        if not mask.any():
            raise EmptyCellError(f"no records with Y={y}, A={a}")
        rate[(y, a)] = float(pvals[mask].mean())
    error = float(np.where(records.y == 1, 1.0 - pvals, pvals).mean())
    return EvalMetrics(
        bias_pos=abs(rate[(1, 0)] - rate[(1, 1)]),
        bias_neg=abs(rate[(-1, 0)] - rate[(-1, 1)]),
        error=error,
    )


def evaluate_predictor_exact(records: RecordSet, predictor) -> tuple[Fraction, Fraction, Fraction]:
    """bias_pos, bias_neg and error as exact rationals: a cell's positive
    rate is its count-weighted mix of the predictor's (exactly converted)
    probabilities over the given predictions."""
    if records.yhat is None:
        raise RecordsError("evaluation needs a yhat column")
    # p is ordered like CELLS with the given prediction in place of the label
    p = dict(zip(CELLS, map(Fraction, predictor.p)))
    rate = {}
    wrong = Fraction(0)
    for (y, a) in CELLS:
        mask = (records.y == y) & (records.a == a)
        n = int(mask.sum())
        if n == 0:
            raise EmptyCellError(f"no records with Y={y}, A={a}")
        pos = int((records.yhat[mask] == 1).sum())
        mass = pos * p[(1, a)] + (n - pos) * p[(-1, a)]
        rate[(y, a)] = mass / n
        wrong += n - mass if y == 1 else mass
    return (abs(rate[(1, 0)] - rate[(1, 1)]), abs(rate[(-1, 0)] - rate[(-1, 1)]),
            wrong / records.n)


def evaluate_predictor_sampled(records: RecordSet, predictor, seed: int,
                               repetitions: int = 100) -> tuple[EvalMetrics, np.ndarray]:
    """Coin-flip evaluation, averaged over repetitions; returns the mean
    metrics and the (repetitions, 3) per-repetition samples."""
    if records.yhat is None:
        raise RecordsError("evaluation needs a yhat column")
    flat = (records.yhat == -1).astype(np.intp) * 2 + records.a.astype(np.intp)
    pvals = np.asarray(predictor.p)[flat]
    rng = np.random.default_rng(seed)

    masks = {cell: (records.y == cell[0]) & (records.a == cell[1]) for cell in CELLS}
    for cell, mask in masks.items():
        if not mask.any():
            raise EmptyCellError(f"no records with Y={cell[0]}, A={cell[1]}")

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
        raise RecordsError("estimation needs a yhat column")
    counts = []
    rates = []
    for (y, a) in CELLS:
        mask = (records.y == y) & (records.a == a)
        c = int(mask.sum())
        if c == 0:
            raise EmptyCellError(f"no records with Y={y}, A={a}")
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
        raise RecordsError("estimation needs a yhat column")
    if records.a_c is None:
        raise RecordsError("estimation needs an a_c column")

    yi = (records.y == -1).astype(np.intp)
    yti = (records.yhat == -1).astype(np.intp)
    joint = _bincount_table((2, 2, 2), yi, records.a_c, yti)
    for i, y in enumerate(Y_VALUES):
        for ac in A_VALUES:
            if joint[i, ac].sum() == 0:
                raise EmptyCellError(f"no records with Y={y}, corrupted attribute={ac}")

    fourway = _bincount_table((2, 2, 2, 2), yi, records.a, yti, records.a_c)
    for i, y in enumerate(Y_VALUES):
        for a in A_VALUES:
            if fourway[i, a].sum() == 0:
                raise EmptyCellError(f"no records with Y={y}, A={a}")
    return CorruptedTables(joint, fourway)
