"""Command-line front end.

Subcommands: ``sweep`` (analytic flip-rate sweeps to CSV), ``dataset``
(record-level corruption experiments to CSV), ``bound`` (print the bias
shrink factor), ``reproduce-lemma1`` (the two settings where corruption
provably raises bias), and ``estimate`` (fit instance parameters from a
record CSV).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 degenerate
program (an internal invariant failed).
"""

from __future__ import annotations

import argparse
import codecs
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateProgramError, EmptyCellError, EoNoiseError, RangeError
from .metrics import (
    bias_at,
    bias_derived,
    bias_given,
    bias_shrink_factor,
    check_classifier_informative,
    check_flip_budget_grid,
    corrupted_bias_bound_grid,
    error_at,
    error_derived,
    error_given,
    independence_measure,
)
from .model import GIVEN_PREDICTOR_P, Y_VALUES, DerivedPredictor, PerturbationSpec, ProblemInstance
from .perturb import GammaSchedule, RecordScenario, SCENARIO_KINDS, apply_scenario
from .programs import derive_predictor, grid_programs, program_from_table
from .lp import RESIDUAL_TOL, solve
from .records import (
    clean_counts,
    estimate_corrupted_tables,
    estimate_instance,
    evaluate_predictor_on_records,
    read_records_csv,
    split,
)

BALANCED_BASE = (0.25, 0.25, 0.25, 0.25)

#: Bundled alpha/beta and schedule parameters for the named sweep presets.
#: Base rates are not part of a preset; they default to balanced and can be
#: overridden with the ``base`` config key.
PRESETS: dict[str, dict] = {
    "fig1-top-left": dict(alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1, schedule="equal"),
    "fig1-top-right": dict(alpha1=0.9, beta1=0.6, alpha2=0.7, beta2=0.1, schedule="halves"),
    "fig1-bottom-left": dict(alpha1=0.9, beta1=0.6, alpha2=0.3, beta2=0.8, schedule="power-halving"),
    "fig1-bottom-right": dict(alpha1=0.9, beta1=0.5, alpha2=0.0, beta2=0.4, schedule="equal"),
    "tableA3-row-1": dict(alpha1=0.8, beta1=0.9, alpha2=0.1, beta2=0.0, schedule="equal"),
    "tableA3-row-2": dict(alpha1=0.8, beta1=0.9, alpha2=0.1, beta2=0.0, schedule="power-halving"),
    "tableA3-row-3": dict(alpha1=0.8, beta1=0.9, alpha2=0.1, beta2=0.0, schedule="halves"),
    "tableA3-row-4": dict(alpha1=0.8, beta1=0.9, alpha2=0.1, beta2=0.0, schedule="capped"),
    "tableA3-row-5": dict(alpha1=0.9, beta1=0.6, alpha2=0.7, beta2=0.1, schedule="equal"),
    "tableA3-row-6": dict(alpha1=0.9, beta1=0.4, alpha2=0.1, beta2=0.1, schedule="power-halving"),
    "tableA3-row-7": dict(alpha1=0.7, beta1=0.9, alpha2=0.3, beta2=0.0, schedule="halves"),
    "tableA3-row-8": dict(alpha1=0.7, beta1=0.9, alpha2=0.3, beta2=0.0, schedule="capped"),
    "tableA3-row-9": dict(alpha1=0.3, beta1=0.8, alpha2=0.1, beta2=0.2, schedule="equal"),
    "tableA3-row-10": dict(alpha1=0.3, beta1=0.8, alpha2=0.1, beta2=0.2, schedule="equal"),
    "tableA3-row-11": dict(alpha1=0.9, beta1=0.6, alpha2=0.4, beta2=0.1, schedule="power-halving"),
    "tableA3-row-12": dict(alpha1=0.9, beta1=0.6, alpha2=0.4, beta2=0.4, schedule="power-halving"),
    "tableA3-row-13": dict(alpha1=0.5, beta1=0.8, alpha2=0.1, beta2=0.4, schedule="equal"),
    "tableA3-row-14": dict(alpha1=0.6, beta1=0.8, alpha2=0.1, beta2=0.4, schedule="capped"),
    "tableA4-row-1": dict(alpha1=0.6, beta1=0.55, alpha2=0.1, beta2=0.3, schedule="equal"),
    "tableA4-row-2": dict(alpha1=0.9, beta1=0.6, alpha2=0.4, beta2=0.1, schedule="equal"),
    "tableA4-row-3": dict(alpha1=1.0, beta1=0.8, alpha2=0.0, beta2=0.1, schedule="equal"),
    "tableA4-row-4": dict(alpha1=0.4, beta1=0.95, alpha2=0.1, beta2=0.15, schedule="equal"),
    "tableA4-row-5": dict(alpha1=0.3, beta1=0.7, alpha2=0.1, beta2=0.5, schedule="power-halving"),
    "tableA4-row-6": dict(alpha1=0.35, beta1=0.95, alpha2=0.1, beta2=0.15, schedule="halves"),
}

SWEEP_COLUMNS = (
    "gamma10", "gamma11", "gammam10", "gammam11",
    "bias_pos_corr", "bias_neg_corr", "error_corr",
    "bias_pos_given", "bias_neg_given", "error_given",
    "bound_pos", "bound_neg",
    "assumption_1b_pos", "assumption_1b_neg", "assumption_2",
    "error_vs_true_flag",
)

DATASET_COLUMNS = (
    "level",
    "bias_pos_given", "bias_neg_given", "error_given",
    "bias_pos_corr", "bias_neg_corr", "error_corr",
    "bias_pos_true", "bias_neg_true", "error_true",
    "independence_measure",
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class SweepConfig:
    instance: ProblemInstance
    schedule: GammaSchedule
    grid: tuple[float, float, float]  # start, stop, step
    out: str | None = None  # as given: Path would drop a trailing "/" or "/.", naming a directory

    def __post_init__(self) -> None:
        for y in Y_VALUES:
            share = self.instance.attr_given_label(y)
            if not 0.0 < share < 1.0:
                raise ConfigError(f"key 'base': P[A=1 | Y={y:+d}] = {share!r} is not strictly "
                                  "between 0 and 1, where the bias bound is defined")
        _check_grid(*self.grid, "the sweep grid {}:{}:{}".format(*self.grid))
        if not (0.0 <= self.grid[0] and self.grid[1] <= 1.0):
            raise ConfigError("grid must satisfy 0 <= start <= stop <= 1")


_SWEEP_KEYS = ("preset", "alpha1", "beta1", "alpha2", "beta2", "base",
               "schedule", "grid_start", "grid_stop", "grid_step", "out")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat ``key = value`` lines, '#' comments; unknown keys are hard errors."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def load_sweep_config(path) -> SweepConfig:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    # "utf-8-sig" would count error offsets from after the BOM
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not valid UTF-8") from None
    values = parse_config_text(text, str(path))

    merged: dict[str, str | float] = {}
    preset = values.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        merged.update(PRESETS[preset])
    merged.update(values)

    def need(key):
        if key not in merged:
            raise ConfigError(f"missing required key {key!r}")
        return merged[key]

    def number(key, value):
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"key {key!r}: {value!r} is not a number") from None

    base = BALANCED_BASE
    if "base" in merged:
        parts = [p for p in str(merged["base"]).replace(",", " ").split() if p]
        if len(parts) != 4:
            raise ConfigError("key 'base': expected four probabilities")
        base = tuple(number("base", p) for p in parts)

    rates = {key: number(key, need(key)) for key in ("alpha1", "beta1", "alpha2", "beta2")}
    kind = str(need("schedule"))
    try:
        instance = ProblemInstance(base=base, **rates)
        schedule = GammaSchedule(kind)
    except ValueError as exc:
        raise ConfigError(f"invalid instance/schedule parameters: {exc}") from None

    grid = tuple(number(key, need(key)) for key in ("grid_start", "grid_stop", "grid_step"))
    return SweepConfig(instance=instance, schedule=schedule, grid=grid, out=merged.get("out"))


#: Most points a grid may have.  A longer grid is a configuration error:
#: a step of 1e-300 would otherwise run until memory runs out.
MAX_GRID_POINTS = 100_000
_GRID_SLACK = 1e-12


def _check_grid(start: float, stop: float, step: float, what: str) -> None:
    """Reject a grid unless start, stop and step are finite, start + step
    exceeds start, stop is at least start and grid_points gives at most
    MAX_GRID_POINTS points."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"{what} contains a non-finite field")
    if start + step <= start or stop < start:  # a step too small to move start loops
        raise ConfigError(f"{what} needs a positive step that moves start and stop >= start")
    # start + k * step never decreases in k, so by grid_points's own tests it
    # passes the cap exactly when point k = cap - 1 is below stop and k = cap is kept
    cap = MAX_GRID_POINTS
    if start + (cap - 1) * step < stop and start + cap * step <= stop + _GRID_SLACK:
        raise ConfigError(f"{what} has more than {MAX_GRID_POINTS} points")


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """start + k * step for k = 0, 1, ... up to stop; a point past stop by
    rounding only is clamped to stop, so no point leaves [start, stop], and
    the grid ends at its first point at stop, so stop is not repeated."""
    points = []
    k = 0
    while True:
        g = start + k * step
        if g > stop + _GRID_SLACK:
            break
        points.append(min(g, stop))
        if g >= stop:
            break
        k += 1
    return points


def _check_feasible(program, predictor: DerivedPredictor, where: str, *levels: float) -> None:
    """Raise DegenerateProgramError at ``where.format(*levels)`` unless ``predictor.p`` is feasible."""
    residual = program.residual(predictor.p)
    if residual > RESIDUAL_TOL:
        raise DegenerateProgramError(f"{where.format(*map(_fmt, levels))}, the solver's "
                                     f"p = {predictor.p} violates a constraint by {residual:.3g}")


def run_sweep(config: SweepConfig) -> np.ndarray:
    """The (N, 16) float64 table of SWEEP_COLUMNS, one row per grid point in
    grid order; an undefined bound is NaN and a flag is 0.0 or 1.0.  Every
    step but the LP runs once over the whole grid as float64 arrays; each
    row's program is solved exactly on its own, started from the previous
    row's optimum, which the solver keeps only where it proves the answer
    unchanged, so the table is bit for bit that of a sweep solved cold."""
    inst = config.instance
    gamma10 = np.array(grid_points(*config.grid))
    flips = config.schedule.grid_rates(gamma10)

    solutions = []
    start = None
    for g10, program in zip(gamma10.tolist(), grid_programs(inst, flips)):
        predictor = solve(program, start)
        _check_feasible(program, predictor, "at gamma10 = {}", g10)
        start = predictor.p
        solutions.append(start)
    p = np.array(solutions).reshape(-1, 4)
    # after the grid, so that an empty pair in a row is named by its row
    try:
        error_true = error_derived(inst, derive_predictor(inst, None))
    except EmptyCellError as exc:
        raise EmptyCellError(f"at the true attribute, {exc}") from None

    err_corr = error_at(inst, *p.T)
    biases = [bias_at(inst, y, *p.T) for y in Y_VALUES]
    # The bound is NaN where a flip rate of the label's class is 1, outside
    # bias_shrink_factor's domain [0, 1).  Where it is defined, the derived
    # predictor must keep to it.
    bounds = [corrupted_bias_bound_grid(inst, flips, y) for y in Y_VALUES]
    broken = [bias > bound + 1e-9 for bias, bound in zip(biases, bounds)]
    if (broken[0] | broken[1]).any():
        row = int(np.argmax(broken[0] | broken[1]))  # the first row at fault
        k = 0 if broken[0][row] else 1
        raise DegenerateProgramError(
            f"at gamma10 = {_fmt(gamma10[row])}, the label {Y_VALUES[k]:+d} bias "
            f"{_fmt(biases[k][row])} exceeds its bound {_fmt(bounds[k][row])}")

    columns = [gamma10, *flips[1:], *biases, err_corr,
               bias_given(inst, 1), bias_given(inst, -1), error_given(inst), *bounds,
               *(check_flip_budget_grid(flips, y) for y in Y_VALUES),
               check_classifier_informative(inst), err_corr <= error_true + 1e-12]
    return np.column_stack(np.broadcast_arrays(*columns))


def _check_out(path) -> None:
    """Raise ConfigError unless ``path``, as given, names a file in an existing directory."""
    text = os.fspath(path)
    if ("\0" in text or os.path.basename(text) in ("", ".") or os.path.isdir(text)  # open() rejects NUL
            or not os.path.isdir(os.path.dirname(text) or ".")):
        raise ConfigError(f"output path {text} is not a file in an existing directory")


def write_csv(path, columns, table) -> None:
    """Write the header ``columns`` and one line per row of the float64
    ``table``, each value as ``format(v, ".12g")`` and a NaN as an empty
    field.  The rows are one ``%`` over a line template repeated once per
    row; ``%.12g`` writes ``nan`` only for a NaN, of either sign, so the
    replace touches nothing else."""
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write((line * len(table) % tuple(table.ravel().tolist())).replace("nan", ""))


def run_dataset(records, scenarios, seed: int) -> np.ndarray:
    """The (L, 11) float64 table of DATASET_COLUMNS, one row per
    RecordScenario: corrupt the training half, estimate both predictors
    there, evaluate everything on the held-out half with the true
    attribute."""
    train, test = split(records, seed)

    clean_program = program_from_table(clean_counts(train))
    true_pred = solve(clean_program)
    _check_feasible(clean_program, true_pred, "at the true attribute")
    given_metrics = evaluate_predictor_on_records(test, DerivedPredictor(GIVEN_PREDICTOR_P))
    true_metrics = evaluate_predictor_on_records(test, true_pred)

    rows = []
    for scenario in scenarios:
        corrupted = apply_scenario(train, scenario, seed)
        try:
            tables = estimate_corrupted_tables(corrupted)
        except EmptyCellError as exc:
            raise EmptyCellError(f"at level {_fmt(scenario.level)}, {exc}") from None
        program = program_from_table(tables.joint)
        corr_pred = solve(program)
        _check_feasible(program, corr_pred, "at level {}", scenario.level)
        corr_metrics = evaluate_predictor_on_records(test, corr_pred)
        measure = independence_measure(tables.fourway)
        rows.append((scenario.level, *given_metrics, *corr_metrics, *true_metrics, measure))
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(DATASET_COLUMNS))


LEMMA1_MODES = ("a_violated", "b_violated")


def run_counterexample(mode: str, level: float):
    """Report for the two settings where corruption raises the bias.

    ``a_violated`` flips, with probability ``level``, only records the
    classifier got wrong (prediction-dependent flips); ``b_violated`` flips
    every cell with probability ``level``, so above 1/2 the rates sum past
    one.  Returns (bias of the given classifier, bias of the corrupted-trained
    predictor, PASS flag) for the positive class.
    """
    if mode == "a_violated":
        inst = ProblemInstance(base=BALANCED_BASE, alpha1=0.65, beta1=0.6,
                               alpha2=0.0, beta2=0.0)
        spec = PerturbationSpec.general({(1, 0, -1): level})
    elif mode == "b_violated":
        inst = ProblemInstance(base=BALANCED_BASE, alpha1=0.9, beta1=0.8,
                               alpha2=0.4, beta2=0.1)
        spec = PerturbationSpec.uniform(level)
    else:
        raise ConfigError(f"mode must be one of {LEMMA1_MODES}, got {mode!r}")

    predictor = derive_predictor(inst, spec)
    given = bias_given(inst, 1)
    corrupted = bias_derived(inst, predictor, 1)
    return given, corrupted, corrupted > given


def _cmd_sweep(args) -> int:
    config = load_sweep_config(args.config)
    out = config.out if args.out is None else args.out
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    _check_out(out)
    table = run_sweep(config)
    write_csv(out, SWEEP_COLUMNS, table)
    print(f"wrote {len(table)} rows to {out}")
    return 0


def _cmd_dataset(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    _check_out(args.out)
    try:
        scenarios = [RecordScenario(args.scenario, level) for level in parse_grid(args.grid)]
    except RangeError as exc:
        raise ConfigError(f"--grid {args.grid!r}: {exc}") from None
    records = read_records_csv(args.records)
    table = run_dataset(records, scenarios, args.seed)
    write_csv(args.out, DATASET_COLUMNS, table)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    try:
        factor = bias_shrink_factor(args.gamma1, args.gamma2, args.p)
    except RangeError as exc:  # the arguments are the command's own
        raise ConfigError(str(exc)) from None
    print(_fmt(factor))
    return 0


def _cmd_counterexample(args) -> int:
    if not 0.0 <= args.level <= 1.0:
        flag = "--flip" if args.mode == "a_violated" else "--gamma"
        raise ConfigError(f"{flag} {args.level} outside [0, 1]")
    given, corrupted, ok = run_counterexample(args.mode, args.level)
    print(f"mode = {args.mode}")
    print(f"bias_pos_given = {_fmt(given)}")
    print(f"bias_pos_corrupted = {_fmt(corrupted)}")
    print("result = " + ("PASS (corrupted bias exceeds given bias)" if ok
                         else "FAIL (corrupted bias does not exceed given bias)"))
    return 0


def _cmd_estimate(args) -> int:
    if args.out is not None:
        _check_out(args.out)
    records = read_records_csv(args.records)
    est = estimate_instance(records)
    inst = est.instance
    # repr is the shortest text that reads back as the same float
    lines = [f"base = {', '.join(map(repr, inst.base))}",
             *(f"{name} = {getattr(inst, name)!r}" for name in ("alpha1", "beta1", "alpha2", "beta2")),
             "# cell counts (y=+1 a=0, y=+1 a=1, y=-1 a=0, y=-1 a=1): "
             + ", ".join(map(str, est.counts))]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote estimate to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def parse_grid(text: str) -> list[float]:
    """'start:stop:step' or a single value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"grid must be 'start:stop:step' or a single value, got {text!r}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"grid {text!r} contains a non-numeric field") from None
    if len(numbers) == 1:
        numbers = [numbers[0], numbers[0], 1.0]  # the one-point grid v:v:1
    _check_grid(*numbers, f"grid {text!r}")
    return grid_points(*numbers)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eonoise",
        description="Equalized-odds postprocessing under a corrupted protected attribute",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="analytic flip-rate sweep to CSV")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", default=None, help="output CSV path (overrides config)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dataset", help="record-level corruption experiment to CSV")
    p.add_argument("records", help="record CSV (header y,a,a_c,score,yhat)")
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--grid", required=True, help="perturbation levels, 'start:stop:step'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("bound", help="print the bias shrink factor")
    p.add_argument("gamma1", type=float)
    p.add_argument("gamma2", type=float)
    p.add_argument("p", type=float)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("reproduce-lemma1",
                       help="settings where corrupted training raises the bias")
    p.set_defaults(func=_cmd_counterexample)
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("a_violated", help="prediction-dependent flips")
    m.add_argument("--flip", dest="level", type=float, default=0.15,
                   help="prediction-dependent flip probability")
    m = modes.add_parser("b_violated", help="flip rates summing past one")
    m.add_argument("--gamma", dest="level", type=float, default=0.7,
                   help="uniform flip probability")

    p = sub.add_parser("estimate", help="estimate instance parameters from records")
    p.add_argument("records")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateProgramError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (EoNoiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
