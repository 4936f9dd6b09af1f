import codecs
import inspect
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonoise import (
    GIVEN_PREDICTOR_P,
    DerivedPredictor,
    EoNoiseError,
    ProblemInstance,
    sample_records,
    solve,
    split,
    write_records_csv,
)
import eonoise.cli
from eonoise.cli import (
    DATASET_COLUMNS,
    MAX_GRID_POINTS,
    SWEEP_COLUMNS,
    SweepConfig,
    grid_points,
    load_sweep_config,
    main,
    parse_config_text,
    parse_grid,
    run_counterexample,
    run_dataset,
    run_sweep,
    write_csv,
)
import eonoise.errors
from eonoise.errors import ConfigError, DegenerateProgramError, EmptyCellError, RecordsError
from eonoise.perturb import SCENARIO_KINDS, SCHEDULE_KINDS, GammaSchedule, RecordScenario
from eonoise.records import RecordSet, estimate_instance, read_records_csv
import sweep_oracle
from support import fig1_top_left, random_instance

ROOT = Path(__file__).resolve().parents[1]

TOP_LEFT_CONFIG = """
# reference sweep
preset = fig1-top-left
grid_start = 0.0
grid_stop = 0.5
grid_step = 0.05
"""


def _write_config(tmp_path, text=TOP_LEFT_CONFIG, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _rowmap(row):
    return dict(zip(SWEEP_COLUMNS, row))


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("alpha1 = 0.5\nwibble = 3\n")


def test_config_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("alpha1 = 0.5\nalpha1 = 0.6\n")


def test_config_requires_assignment():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("alpha1 0.5\n")


def test_preset_fills_parameters(tmp_path):
    config = load_sweep_config(_write_config(tmp_path))
    inst = config.instance
    assert (inst.alpha1, inst.beta1, inst.alpha2, inst.beta2) == (0.9, 0.8, 0.4, 0.1)
    assert inst.base == (0.25, 0.25, 0.25, 0.25)
    assert config.schedule.kind == "equal"


def test_explicit_keys_override_preset(tmp_path):
    text = TOP_LEFT_CONFIG + "beta1 = 0.7\nschedule = halves\nbase = 0.1, 0.2, 0.3, 0.4\n"
    config = load_sweep_config(_write_config(tmp_path, text))
    assert config.instance.beta1 == 0.7
    assert config.instance.base == (0.1, 0.2, 0.3, 0.4)
    assert config.schedule.kind == "halves"


def test_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match="missing required key"):
        load_sweep_config(_write_config(tmp_path, "alpha1 = 0.9\n"))


def test_unknown_preset(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        load_sweep_config(_write_config(tmp_path, "preset = fig9\ngrid_start=0\ngrid_stop=0\ngrid_step=1\n"))


def test_sweep_zero_grid(tmp_path):
    from eonoise import derive_predictor, error_derived

    config = load_sweep_config(_write_config(
        tmp_path, "preset = fig1-top-left\ngrid_start = 0\ngrid_stop = 0\ngrid_step = 0.05\n"))
    rows = run_sweep(config)
    assert rows.shape == (1, len(SWEEP_COLUMNS)) and rows.dtype == np.float64
    row = _rowmap(rows[0])
    assert row["bias_pos_corr"] == pytest.approx(0.0, abs=1e-9)
    # at zero corruption the derived predictor IS the true-attribute one
    inst = config.instance
    error_true = error_derived(inst, derive_predictor(inst, None))
    assert row["error_corr"] == pytest.approx(error_true, abs=1e-9)
    assert row["error_vs_true_flag"] == 1.0


def test_sweep_rows_respect_bound_and_given_bias(tmp_path):
    config = load_sweep_config(_write_config(tmp_path))
    rows = run_sweep(config)
    assert rows.shape == (11, len(SWEEP_COLUMNS)) and rows.dtype == np.float64
    for raw in rows:
        row = _rowmap(raw)
        if row["assumption_1b_pos"] == 1.0:
            assert row["bias_pos_corr"] <= row["bound_pos"] + 1e-9
            assert row["bias_pos_corr"] <= row["bias_pos_given"] + 1e-9
        if row["assumption_1b_neg"] == 1.0:
            assert row["bias_neg_corr"] <= row["bound_neg"] + 1e-9
        assert row["assumption_2"] == 1.0


def test_sweep_csv_byte_deterministic(tmp_path):
    config_path = _write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(out2)]) == 0
    first, second = out1.read_bytes(), out2.read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


@pytest.mark.parametrize("schedule, empty", [
    ("equal", ("bound_pos", "bound_neg")), ("halves", ("bound_pos",)),
    ("power-halving", ("bound_pos",)), ("capped", ("bound_pos",)),
])
def test_sweep_leaves_bound_empty_at_flip_rate_one(tmp_path, schedule, empty):
    config = _write_config(tmp_path, f"preset = fig1-top-left\nschedule = {schedule}\n"
                                     "grid_start = 0.9\ngrid_stop = 1\ngrid_step = 0.1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text()
    assert "nan" not in text
    header, below_one, at_one = text.splitlines()
    assert header == ",".join(SWEEP_COLUMNS)
    for name, value in _rowmap(below_one.split(",")).items():
        assert value != "", name
    for name, value in _rowmap(at_one.split(",")).items():
        assert (value == "") == (name in empty), name


def test_sweep_exits_4_when_a_bias_breaks_its_bound(tmp_path, monkeypatch, capsys):
    # The given classifier keeps its own bias, which the bound shrinks.  It
    # breaks the program's constraints too, so the feasibility check is
    # turned off to reach the bound check.
    monkeypatch.setattr(eonoise.cli, "solve",
                        lambda program, start=None: DerivedPredictor(GIVEN_PREDICTOR_P))
    monkeypatch.setattr(eonoise.cli, "RESIDUAL_TOL", math.inf)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "at gamma10 = 0, the label +1 bias " in err and "exceeds its bound" in err


def test_sweep_exits_4_when_the_solver_breaks_a_constraint(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(eonoise.cli, "solve",
                        lambda program, start=None: DerivedPredictor((1.0, 0.0, 0.0, 0.0)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "at gamma10 = 0, the solver's p = (1.0, 0.0, 0.0, 0.0) violates a constraint" in err


@pytest.mark.parametrize("bad_call, where", [(0, "at the true attribute"), (1, "at level 0")])
def test_dataset_exits_4_when_the_solver_breaks_a_constraint(tmp_path, monkeypatch, capsys,
                                                            bad_call, where):
    calls = []

    def solve_badly(program):
        calls.append(program)
        return solve(program) if len(calls) <= bad_call else DerivedPredictor((1.0, 0.0, 0.0, 0.0))

    monkeypatch.setattr(eonoise.cli, "solve", solve_badly)
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 2000, seed=39))
    out = tmp_path / "out.csv"
    assert main(["dataset", str(records), "--scenario", "independent-flip",
                 "--grid", "0:0.2:0.1", "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{where}, the solver's p = (1.0, 0.0, 0.0, 0.0) violates a constraint" in err


def test_sweep_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_bytes(TOP_LEFT_CONFIG.encode() + b"\xff\n")
    with pytest.raises(ConfigError, match=r"sweep\.cfg:7: not valid UTF-8"):
        load_sweep_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert "sweep.cfg:7: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("base, label", [
    ("1e-320 0.3333333333333333 0.3333333333333333 0.3333333333333334", "+1"),
    ("0.3333333333333333 0.3333333333333334 1e-320 0.3333333333333333", "-1"),
])
def test_sweep_config_base_whose_group_share_rounds_to_one_exits_2(tmp_path, capsys, base, label):
    path = _write_config(tmp_path, TOP_LEFT_CONFIG + f"base = {base}\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"key 'base': P[A=1 | Y={label}] = 1.0 is not strictly between 0 and 1" in err
    assert not out.exists()
    # a SweepConfig built in library code fails when it is built; the share
    # cannot round to 0, as P[A=1 | Y=y] is at least P[Y=y, A=1] > 0
    inst = ProblemInstance(base=tuple(map(float, base.split())), alpha1=0.9, beta1=0.8,
                           alpha2=0.4, beta2=0.1)
    with pytest.raises(ConfigError, match=re.escape(f"P[A=1 | Y={label}] = 1.0 is not strictly")):
        SweepConfig(instance=inst, schedule=GammaSchedule("equal"), grid=(0.0, 0.5, 0.25))


def test_sweep_config_with_a_utf8_bom(tmp_path, capsys):
    text = "preset = fig1-top-left\ngrid_start = 0\ngrid_stop = 0.5\ngrid_step = 0.25\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text)
    bom.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load_sweep_config(bom) == load_sweep_config(plain)
    assert main(["sweep", "--config", str(bom), "--out", str(tmp_path / "bom.csv")]) == 0
    assert main(["sweep", "--config", str(plain), "--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    # the BOM is not counted into a later line's number
    bom.write_bytes(codecs.BOM_UTF8 + b"preset = fig1-top-left\n\xff\n")
    assert main(["sweep", "--config", str(bom), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.endswith("bom.cfg:2: not valid UTF-8\n")


_RATES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _sweep_configs(draw):
    weights = draw(st.tuples(*[st.floats(0.01, 1.0)] * 4))
    instance = ProblemInstance(base=tuple(w / sum(weights) for w in weights),
                               alpha1=draw(_RATES), beta1=draw(_RATES),
                               alpha2=draw(_RATES), beta2=draw(_RATES))
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    stop = draw(st.one_of(st.just(1.0), st.floats(start, 1.0)))
    # at most 13 points: a step far below stop - start would never end
    step = (stop - start) / draw(st.integers(1, 12)) if stop - start > 1e-3 else 1.0
    return SweepConfig(instance=instance, schedule=GammaSchedule(draw(st.sampled_from(SCHEDULE_KINDS))),
                       grid=(start, stop, step))


def _outcome(run, config):
    try:
        return run(config)
    except EoNoiseError as exc:
        return type(exc), str(exc)


def _same_bits(first, second):
    """Equal float64 tables, bit for bit: NaN in the same places and the
    same sign bits, so 0.0 and -0.0 differ."""
    return (first.dtype == second.dtype == np.float64
            and np.array_equal(first, second, equal_nan=True)
            and np.array_equal(np.signbit(first), np.signbit(second)))


@given(_sweep_configs())
@settings(max_examples=150, deadline=None)
def test_sweep_rows_match_the_row_by_row_oracle(config):
    got, want = _outcome(run_sweep, config), _outcome(sweep_oracle.run_sweep, config)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and _same_bits(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("grid, message", [
    ((0.5, 0.2, 0.1), "needs a positive step that moves start"),  # no points
    ((0.0, 0.5, 0.0), "needs a positive step that moves start"),
    ((0.0, 0.5, -0.1), "needs a positive step that moves start"),
    ((0.0, 0.5, math.nan), "non-finite"),
    ((-0.1, 0.5, 0.1), "0 <= start <= stop <= 1"),
    ((0.0, 1.5, 0.1), "0 <= start <= stop <= 1"),
], ids=["stop-below-start", "zero-step", "negative-step", "nan-step", "negative-start",
        "stop-past-1"])
def test_sweep_config_checks_its_grid_at_construction(no_grid_expansion, grid, message):
    # grid_points, and so run_sweep, would never end on a zero step
    with pytest.raises(ConfigError, match=message):
        run_sweep(SweepConfig(instance=fig1_top_left(), schedule=GammaSchedule("equal"),
                              grid=grid))


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = fig1-top-left\nwhat = 1\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["dataset", str(tmp_path / "missing.csv"), "--scenario",
                 "independent-flip", "--grid", "0:0.2:0.1", "--out",
                 str(tmp_path / "y.csv")]) == 3
    capsys.readouterr()
    assert main(["bound", "1.0", "0.2", "0.5"]) == 2
    assert capsys.readouterr().err == "error: (1.0, 0.2, 0.5) outside [0,1) x [0,1) x (0,1)\n"


@pytest.mark.parametrize("base, grid, where, pair", [
    ("5e-324 5e-324 0.5 0.5", (0, 0.5, 0.1), "gamma10 = 0", "(Y=1, training attribute=0)"),
    # the (+1, 1) cells round to 0, so the flips refill (+1, 1) below
    # gamma10 = 1 and empty (+1, 0) at it; the true attribute's program is
    # read only after the grid
    ("0.5 5e-324 0.25 0.25", (0.5, 1, 0.25), "gamma10 = 1", "(Y=1, training attribute=0)"),
    ("0.5 5e-324 0.25 0.25", (0.5, 0.75, 0.25), "the true attribute",
     "(Y=1, training attribute=1)"),
], ids=["first-row", "last-row", "true-attribute"])
def test_sweep_names_the_row_of_an_empty_pair(tmp_path, capsys, base, grid, where, pair):
    config = _write_config(tmp_path, "alpha1 = 0.5\nbeta1 = 0.5\nalpha2 = 0.5\nbeta2 = 0.5\n"
                           "schedule = equal\nbase = {}\ngrid_start = {}\ngrid_stop = {}\n"
                           "grid_step = {}\n".format(base, *grid))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: at {where}, no mass at {pair}\n"
    assert not out.exists()


_RATES_CONFIG = ("alpha1 = 0.9\nbeta1 = 0.8\nalpha2 = 0.4\nbeta2 = 0.1\nschedule = equal\n"
                 "grid_start = 0\ngrid_stop = 0.1\ngrid_step = 0.05\n")


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    (_RATES_CONFIG.replace("0.9", "abc"), "key 'alpha1': 'abc' is not a number"),
    (_RATES_CONFIG + "base = 0.25 0.25 0.5\n", "key 'base': expected four probabilities"),
    (_RATES_CONFIG + "base = 0.3 0.3 0.3 0.3\n",
     "invalid instance/schedule parameters: base probabilities sum to 1.2, not 1"),
    # an empty cell and a NaN one raise different errors, with one exit code and text
    (_RATES_CONFIG + "base = 0 0.3 0.3 0.4\n",
     "invalid instance/schedule parameters: P[Y=1, A=0] = 0.0 must be strictly positive"),
    (_RATES_CONFIG + "base = 0.3 0.3 nan 0.4\n",
     "invalid instance/schedule parameters: P[Y=-1, A=0] = nan must be strictly positive"),
    (_RATES_CONFIG.replace("equal", "bogus"),
     "invalid instance/schedule parameters: unknown schedule kind 'bogus'"),
    (_RATES_CONFIG, "no output path: pass --out or set 'out' in the config"),
], ids=["missing", "not-a-number", "three-base", "base-sum", "zero-base", "nan-base", "schedule",
        "no-out"])
def test_sweep_config_errors_exit_2_with_their_message(tmp_path, capsys, text, message):
    path = tmp_path / "sweep.cfg"
    if text is not None:
        path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_sweep_config_out_with_a_nul_byte_exits_2(tmp_path, capsys):
    # only a config file's 'out' can carry a NUL; open() would raise ValueError
    out = f"{tmp_path}/\x00out.csv"
    path = _write_config(tmp_path, _RATES_CONFIG + f"out = {out}\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: output path {out} is not a file in an existing directory\n")


class _Worked(Exception):
    """Raised by a spy in place of reading records or computing rows."""


def _argv(command, tmp_path, out):
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 200, seed=5))
    config_out = _write_config(tmp_path, TOP_LEFT_CONFIG + f"out = {out}\n", "out.cfg")
    return {
        "sweep": ["sweep", "--config", str(_write_config(tmp_path)), "--out", str(out)],
        "sweep-config-out": ["sweep", "--config", str(config_out)],
        "dataset": ["dataset", str(records), "--scenario", "independent-flip",
                    "--grid", "0:0.2:0.1", "--out", str(out)],
        "estimate": ["estimate", str(records), "--out", str(out)],
    }[command]


_OUT_COMMANDS = ["sweep", "sweep-config-out", "dataset", "estimate"]


def _spy_on_work(monkeypatch):
    def worked(*args, **kwargs):
        raise _Worked

    for name in ("run_sweep", "read_records_csv", "run_dataset", "estimate_instance"):
        monkeypatch.setattr(eonoise.cli, name, worked)


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", _OUT_COMMANDS)
def test_unusable_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, where):
    out = tmp_path / "missing" / "out.csv" if where == "missing directory" else tmp_path
    argv = _argv(command, tmp_path, out)
    _spy_on_work(monkeypatch)
    assert main(argv) == 2
    assert not (tmp_path / "missing").exists()
    err = capsys.readouterr().err
    assert f"error: output path {out} is not a file in an existing directory" in err


@pytest.mark.parametrize("command", _OUT_COMMANDS)
def test_usable_out_reaches_the_work(tmp_path, monkeypatch, command):
    # the spies above sit on the path a run takes, so their silence means no work
    argv = _argv(command, tmp_path, tmp_path / "out.csv")
    _spy_on_work(monkeypatch)
    with pytest.raises(_Worked):
        main(argv)


def test_bound_where_the_denominator_underflows(capsys):
    assert main(["bound", "0.9999999999999999", "0", "5e-324"]) == 0
    assert capsys.readouterr() == ("0\n", "")


# main in a fresh process, which must not have built the parser at import
_FRESH_MAIN = """
import sys
from eonoise.cli import build_parser, main
if build_parser.cache_info().currsize:
    raise SystemExit("the parser was built at import")
raise SystemExit(main(sys.argv[1:]))
"""


def test_main_called_again_in_one_process_behaves_as_in_fresh_ones(tmp_path, capsys):
    # main builds its parser once per process, so an argparse error (exit 2)
    # must leave nothing behind for the calls after it
    out = tmp_path / "out.csv"
    calls = [["bound", "0.2", "x", "0.5"],
             ["sweep", "--config", str(_write_config(tmp_path)), "--out", str(out)],
             ["bound", "0.2", "0.3", "0.5"],
             ["sweep"]]

    def written():
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return data

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        fresh.append((done.returncode, done.stdout, done.stderr, written()))
    one_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        one_process.append((code, captured.out, captured.err, written()))
    assert [call[0] for call in fresh] == [2, 0, 0, 2]
    assert one_process == fresh
    assert eonoise.cli.build_parser() is eonoise.cli.build_parser()


def test_bound_subcommand_prints_value(capsys):
    assert main(["bound", "0.2", "0.3", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.494949494949"


def test_counterexample_modes(capsys):
    given, corrupted, ok = run_counterexample("a_violated", 0.15)
    assert ok and 0.05 < corrupted < 0.07 and given == pytest.approx(0.05, abs=1e-12)
    given, corrupted, ok = run_counterexample("b_violated", 0.7)
    assert ok and corrupted > given

    # control: without the prediction-dependent flip the corrupted predictor
    # is the true-attribute one and has zero bias
    given, corrupted, ok = run_counterexample("a_violated", 0.0)
    assert not ok and corrupted == pytest.approx(0.0, abs=1e-9)

    assert main(["reproduce-lemma1", "a_violated"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["reproduce-lemma1", "a_violated", "--flip", "0"]) == 0
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["a_violated", "--flip", "1.5"], "--flip"),
    (["a_violated", "--flip", "-0.1"], "--flip"),
    (["a_violated", "--flip", "nan"], "--flip"),
    (["b_violated", "--gamma", "nan"], "--gamma"),
    (["b_violated", "--gamma", "1.01"], "--gamma"),
])
def test_counterexample_flag_outside_unit_interval_is_a_config_error(argv, flag, capsys):
    assert main(["reproduce-lemma1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "outside [0, 1]" in err


@pytest.mark.parametrize("argv, flag", [
    (["a_violated", "--gamma", "0.3"], "--gamma"),
    (["b_violated", "--flip", "0.9"], "--flip"),
])
def test_counterexample_rejects_the_other_modes_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-lemma1", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


def test_parse_grid():
    assert parse_grid("0.5") == [0.5]
    assert parse_grid("0:0.2:0.1") == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ConfigError):
        parse_grid("0:0.2")
    with pytest.raises(ConfigError):
        parse_grid("a:b:c")
    with pytest.raises(ConfigError):
        parse_grid("0:0.2:-0.1")


@pytest.fixture
def no_grid_expansion(monkeypatch):
    """Grids that would never finish expanding must be rejected before
    grid_points runs; with this fixture a regression fails at once instead
    of eating memory."""
    def refuse(*args):
        raise AssertionError(f"grid_points reached with {args}")
    monkeypatch.setattr(eonoise.cli, "grid_points", refuse)


# 1e300 + k * 1.0 == 1e300 for every k, so a step that does not move start
# never reaches a point past stop
@pytest.mark.parametrize("text", ["0:1:nan", "0:inf:0.1", "0:1:1e-300", "nan:1:0.1",
                                  "-inf:0:0.1", "0:1:inf", "nan", "inf", "0:1:0.00001",
                                  "1e300", "1e300:1e300:1", "1e20"])
def test_parse_grid_rejects_unbounded_grids(no_grid_expansion, tmp_path, capsys, text):
    with pytest.raises(ConfigError):
        parse_grid(text)
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 200, seed=35))
    assert main(["dataset", str(records), "--scenario", "independent-flip",
                 f"--grid={text}", "--out", str(tmp_path / "out.csv")]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("grid_step", "nan"), ("grid_step", "1e-300"),
                                        ("grid_step", "inf"), ("grid_start", "nan"),
                                        ("grid_stop", "nan"), ("grid_step", "0.000001")])
def test_sweep_config_rejects_unbounded_grids(no_grid_expansion, tmp_path, capsys, key, value):
    text = "".join(f"{key} = {value}\n" if line.startswith(key) else line
                   for line in TOP_LEFT_CONFIG.splitlines(keepends=True))
    assert f"\n{key} = {value}\n" in text
    path = _write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="grid"):
        load_sweep_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert "grid" in capsys.readouterr().err


def test_grid_points_stay_inside_start_stop():
    # 3 * 0.1 is 0.30000000000000004, past stop by rounding only
    assert grid_points(0.0, 0.3, 0.1)[-1] == 0.3
    assert parse_grid("0:1.5:0.5") == [0.0, 0.5, 1.0, 1.5]
    assert parse_grid("0") == [0.0]
    for start, stop, step in [(0.0, 0.3, 0.1), (0.1, 0.7, 0.2), (0.0, 1.0, 1 / 3)]:
        points = grid_points(start, stop, step)
        assert points[-1] == stop and all(start <= g <= stop for g in points)


def test_grid_ends_at_its_first_point_at_stop(tmp_path):
    # a step below the 1e-12 slack puts many points within the slack past
    # stop; each would be clamped to stop, so only the first is kept
    assert parse_grid("0:0:1e-17") == [0.0]
    points = parse_grid("0:1e-13:1e-14")
    assert len(points) == 11 and points[-1] == 1e-13
    assert all(left < right for left, right in zip(points, points[1:]))
    config = _write_config(tmp_path, "preset = fig1-top-left\ngrid_start = 0\n"
                                     "grid_stop = 1e-13\ngrid_step = 1e-14\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 11 and rows[-1].startswith("1e-13,")


def test_write_csv_formats_each_value_with_12_significant_digits(tmp_path):
    nan = math.nan
    table = np.array([[0.0, -0.0, 5e-324, 1e300],
                      [math.inf, -math.inf, 0.1 + 0.2, 1 - 1e-13],
                      [nan, np.copysign(nan, -1.0), 0.0, 1.0]])
    assert np.signbit(table[2, 1]) and not np.signbit(table[2, 0])
    out = tmp_path / "out.csv"
    write_csv(out, ("a", "b", "c", "d"), table)
    want = ["a,b,c,d"] + [",".join("" if math.isnan(v) else format(v, ".12g") for v in row)
                          for row in table.tolist()]
    assert out.read_text().splitlines() == want
    assert want[1:] == ["0,-0,4.94065645841e-324,1e+300", "inf,-inf,0.3,1",
                        ",,0,1"]
    # a flag written as a float has the bytes of the boolean written as %d
    assert want[3].endswith(f"{False:d},{True:d}")
    write_csv(out, ("a", "b", "c", "d"), np.empty((0, 4)))
    assert out.read_text() == "a,b,c,d\n"


@pytest.mark.parametrize("text", ["0:1.5:0.5", "1.5"])
def test_dataset_level_outside_the_scenario_range_exits_2(tmp_path, monkeypatch, capsys, text):
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 200, seed=36))
    out = tmp_path / "out.csv"
    _spy_on_work(monkeypatch)
    assert main(["dataset", str(records), "--scenario", "independent-flip",
                 f"--grid={text}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: --grid '{text}': ")
    assert "flip probability 1.5 outside [0, 1]" in err
    assert not out.exists()


def test_dataset_bad_grid_exits_2_before_the_missing_records(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["dataset", str(tmp_path / "missing.csv"), "--scenario", "independent-flip",
                 "--grid", "a:b:c", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid 'a:b:c'" in err
    assert not out.exists()


def test_an_error_outside_the_cli_classes_exits_3(monkeypatch, capsys):
    def empty(*args):
        raise EmptyCellError("no records with Y=1, A=0")

    monkeypatch.setattr(eonoise.cli, "bias_shrink_factor", empty)
    assert main(["bound", "0.2", "0.3", "0.5"]) == 3
    assert capsys.readouterr().err == "error: no records with Y=1, A=0\n"


_ERROR_CLASSES = [cls for _, cls in inspect.getmembers(eonoise.errors, inspect.isclass)
                  if cls.__module__ == eonoise.errors.__name__]
#: The exit code and stderr prefix of main for each package error class; any
#: class not named here is a data error.
_EXITS = {ConfigError: (2, "error: "), DegenerateProgramError: (4, "internal error: ")}


@pytest.mark.parametrize("cls", [*_ERROR_CLASSES, OSError], ids=lambda cls: cls.__name__)
def test_each_error_class_maps_to_one_exit_code(monkeypatch, capsys, cls):
    def fail(*args):
        raise cls("the message")

    monkeypatch.setattr(eonoise.cli, "run_counterexample", fail)
    code, prefix = _EXITS.get(cls, (3, "error: "))
    assert main(["reproduce-lemma1", "a_violated"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}the message\n"
    assert captured.out == ""


def test_dataset_rejects_a_negative_seed(tmp_path, capsys):
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 200, seed=37))
    out = tmp_path / "out.csv"
    assert main(["dataset", str(records), "--scenario", "independent-flip",
                 "--grid", "0:0.2:0.1", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("grid_start = 0.5\ngrid_stop = 0.2\ngrid_step = 0.1\n", "needs a positive step"),
    ("grid_start = 0\ngrid_stop = 0.5\ngrid_step = 0\n", "needs a positive step"),
    ("grid_start = -0.1\ngrid_stop = 0.5\ngrid_step = 0.1\n", "0 <= start <= stop <= 1"),
    ("grid_start = 0\ngrid_stop = 1.5\ngrid_step = 0.1\n", "0 <= start <= stop <= 1"),
])
def test_sweep_config_grid_messages(tmp_path, grid, message):
    path = _write_config(tmp_path, "preset = fig1-top-left\n" + grid)
    with pytest.raises(ConfigError, match=message):
        load_sweep_config(path)


def test_dataset_names_the_empty_cell_of_the_training_half(tmp_path, capsys):
    # the file's one record with Y=1, A=1 goes to the test half of the seed-0
    # split, so estimate reads the file and dataset stops at the training half
    rows = ["1,0,,,1", "1,0,,,-1", "-1,0,,,1", "-1,0,,,-1", "-1,1,,,1", "-1,1,,,-1"] * 4
    rows.insert(int(np.random.default_rng(0).permutation(len(rows) + 1)[-1]), "1,1,,,1")
    records = tmp_path / "records.csv"
    records.write_text("y,a,a_c,score,yhat\n" + "\n".join(rows) + "\n")
    _, test = split(read_records_csv(records), 0)
    assert int(((test.y == 1) & (test.a == 1)).sum()) == 1
    assert main(["estimate", str(records)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.csv"
    argv = ["dataset", str(records), "--scenario", "independent-flip", "--grid", "0.1",
            "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: no records with Y=1, A=1\n"
    # one record: the training half is empty
    records.write_text("y,a,a_c,score,yhat\n1,1,,,1\n")
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: no records with Y=1, A=0\n"
    assert not out.exists()


def test_dataset_names_the_level_of_an_empty_corrupted_pair(tmp_path, capsys):
    # every pair holds training records at level 0; at level 0.05 the score
    # band leaves none with Y=1 and corrupted attribute 1
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 40, seed=41, with_scores=True))
    out = tmp_path / "out.csv"
    assert main(["dataset", str(records), "--scenario", "score-band", "--grid", "0:0.1:0.05",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: at level 0.05, "
                                       "no records with Y=1, corrupted attribute=1\n")
    assert not out.exists()


def test_run_sweep_keeps_the_empty_cell_error_of_the_true_attribute(tmp_path):
    # main exits 3 on every EoNoiseError; the runner re-raises the type
    config = load_sweep_config(_write_config(
        tmp_path, "alpha1 = 0.5\nbeta1 = 0.5\nalpha2 = 0.5\nbeta2 = 0.5\nschedule = equal\n"
        "base = 0.5 5e-324 0.25 0.25\ngrid_start = 0.5\ngrid_stop = 0.75\ngrid_step = 0.25\n"))
    with pytest.raises(EmptyCellError, match=r"^at the true attribute, "
                                             r"no mass at \(Y=1, training attribute=1\)$"):
        run_sweep(config)


def test_run_dataset_keeps_the_empty_cell_error_of_a_level():
    rs = sample_records(fig1_top_left(), 40, seed=41, with_scores=True)
    scenarios = [RecordScenario("score-band", level) for level in (0.0, 0.05, 0.1)]
    with pytest.raises(EmptyCellError, match=r"^at level 0\.05, "
                                             r"no records with Y=1, corrupted attribute=1$"):
        run_dataset(rs, scenarios, seed=0)


def test_dataset_without_predictions_fails_at_the_clean_table():
    rs = sample_records(fig1_top_left(), 200, seed=38)
    with pytest.raises(RecordsError, match="estimation needs a yhat column"):
        run_dataset(RecordSet(y=rs.y, a=rs.a), [RecordScenario("independent-flip", 0.1)], seed=0)


def test_grid_point_cap_is_exact():
    assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="more than"):
        parse_grid(f"0:{MAX_GRID_POINTS}:1")


@pytest.mark.parametrize("grid, points", [
    ("0:0:1e-18", 1),
    ("0:1e-14:1e-18", 10_001),
    ("0:1e-13:1e-18", MAX_GRID_POINTS + 1),
])
def test_grid_cap_counts_the_points_of_a_step_below_the_slack(grid, points):
    if points > MAX_GRID_POINTS:
        with pytest.raises(ConfigError, match="more than"):
            parse_grid(grid)
        assert len(grid_points(*map(float, grid.split(":")))) == points
    else:
        assert len(parse_grid(grid)) == points


def test_dataset_on_a_one_point_grid_with_a_step_below_the_slack(tmp_path):
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 2000, seed=35, with_scores=True))
    out = tmp_path / "dataset.csv"
    assert main(["dataset", str(records), "--scenario", "independent-flip",
                 "--grid", "0:0:1e-18", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", [40, 41, 42])
def test_dataset_is_unchanged_when_the_groups_swap(tmp_path, monkeypatch, kind, seed):
    # a -> 1 - a only relabels the groups: each bias is a gap between them,
    # each error sums over them, and the independence measure is symmetric
    # in them, so every output value holds with no oracle
    rng = np.random.default_rng(seed)
    inst = fig1_top_left() if seed == 40 else random_instance(rng, min_cell=0.1)
    rs = sample_records(inst, 4000, seed=seed, with_scores=True)
    tables = []
    monkeypatch.setattr(eonoise.cli, "write_csv", lambda path, columns, table: tables.append(table))
    for name, a in (("records", rs.a), ("swapped", 1 - rs.a)):
        records = tmp_path / f"{name}.csv"
        write_records_csv(records, replace(rs, a=a))
        assert main(["dataset", str(records), "--scenario", kind, "--grid", "0:0.4:0.2",
                     "--seed", str(seed), "--out", str(tmp_path / "out.csv")]) == 0
    want, got = tables
    assert want.shape == (3, len(DATASET_COLUMNS))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def _grids_near_the_cap(draw):
    """start, stop and step whose grid has about MAX_GRID_POINTS points,
    steps below and above the grid's 1e-12 slack included."""
    step = draw(st.one_of(st.floats(1e-20, 1e-11), st.floats(1e-11, 1e3),
                          st.sampled_from([1e-18, 1e-13, 1e-12, 0.1, 1.0])))
    start = draw(st.one_of(st.sampled_from([0.0, -1e-13, 1e-15, 0.5, -3.0]),
                           st.floats(-10.0, 10.0)))
    n = draw(st.integers(MAX_GRID_POINTS - 3, MAX_GRID_POINTS + 1))
    shift = draw(st.floats(-1.0, 1.0)) * step
    if step > 1e-11:  # a shift by about the slack; below, it would add millions of points
        shift += draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-13]))
    return start, start + n * step + shift, step


@given(_grids_near_the_cap())
@settings(max_examples=20, deadline=None)
def test_grid_cap_holds_exactly_near_the_cap(grid):
    start, stop, step = grid
    text = f"{start!r}:{stop!r}:{step!r}"
    try:
        points = parse_grid(text)
    except ConfigError as error:
        if "more than" not in str(error):
            return
        assert len(grid_points(start, stop, step)) > MAX_GRID_POINTS
    else:
        assert len(points) <= MAX_GRID_POINTS


def _dataset_rowmap(row):
    return dict(zip(DATASET_COLUMNS, row))


def test_dataset_zero_flip_matches_true(tmp_path):
    rs = sample_records(fig1_top_left(), 20_000, seed=30)
    rows = run_dataset(rs, [RecordScenario("independent-flip", 0.0)], seed=5)
    assert rows.shape == (1, len(DATASET_COLUMNS)) and rows.dtype == np.float64
    row = _dataset_rowmap(rows[0])
    assert row["bias_pos_corr"] == row["bias_pos_true"]
    assert row["bias_neg_corr"] == row["bias_neg_true"]
    assert row["error_corr"] == row["error_true"]
    assert row["independence_measure"] <= 0.05


def test_dataset_on_errors_scenario_breaks_independence(tmp_path):
    rs = sample_records(fig1_top_left(), 20_000, seed=31)
    rows = run_dataset(rs, [RecordScenario("independent-flip-on-errors", 0.4)], seed=6)
    row = _dataset_rowmap(rows[0])
    assert row["independence_measure"] > 0.05


def test_dataset_rows_deterministic():
    rs = sample_records(fig1_top_left(), 10_000, seed=34)
    scenarios = [RecordScenario("independent-flip", level) for level in (0.1, 0.3)]
    first = run_dataset(rs, scenarios, seed=2)
    second = run_dataset(rs, scenarios, seed=2)
    assert first.shape == (2, len(DATASET_COLUMNS))
    assert _same_bits(first, second)


def test_dataset_cli_roundtrip(tmp_path):
    rs = sample_records(fig1_top_left(), 5000, seed=32, with_scores=True)
    records_path = tmp_path / "records.csv"
    write_records_csv(records_path, rs)
    out = tmp_path / "dataset.csv"
    code = main(["dataset", str(records_path), "--scenario", "score-band",
                 "--grid", "0:0.4:0.2", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(DATASET_COLUMNS)
    assert len(lines) == 4


def test_estimate_subcommand_feeds_sweep(tmp_path, capsys):
    rs = sample_records(fig1_top_left(), 50_000, seed=33)
    records_path = tmp_path / "records.csv"
    write_records_csv(records_path, rs)
    est_path = tmp_path / "estimate.cfg"
    assert main(["estimate", str(records_path), "--out", str(est_path)]) == 0
    capsys.readouterr()

    config_text = est_path.read_text() + "schedule = equal\ngrid_start = 0\ngrid_stop = 0.2\ngrid_step = 0.1\n"
    config = load_sweep_config(_write_config(tmp_path, config_text, name="from_est.cfg"))
    assert config.instance.alpha1 == pytest.approx(0.9, abs=0.02)
    rows = run_sweep(config)
    assert len(rows) == 3


def test_estimate_output_reads_back_as_the_estimated_instance(tmp_path, capsys):
    # cell counts (1, 1, 1, 3): base 1/6, 1/6, 1/6, 1/2, whose 12-digit
    # forms sum to 1.000000000001, past the config's normalization check
    records_path = tmp_path / "records.csv"
    records_path.write_text("y,a,a_c,score,yhat\n1,0,,,1\n1,1,,,-1\n-1,0,,,-1\n"
                            "-1,1,,,1\n-1,1,,,-1\n-1,1,,,-1\n")
    est_path = tmp_path / "estimate.cfg"
    assert main(["estimate", str(records_path), "--out", str(est_path)]) == 0
    assert "# cell counts (y=+1 a=0, y=+1 a=1, y=-1 a=0, y=-1 a=1): 1, 1, 1, 3" in est_path.read_text()

    cfg = _write_config(tmp_path, est_path.read_text() + "schedule = equal\ngrid_start = 0\n"
                        "grid_stop = 0.2\ngrid_step = 0.1\nout = " + str(tmp_path / "sweep.csv") + "\n",
                        name="from_est.cfg")
    assert main(["sweep", "--config", str(cfg)]) == 0
    want = estimate_instance(read_records_csv(records_path)).instance
    assert load_sweep_config(cfg).instance == want
