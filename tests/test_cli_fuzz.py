"""The command line on malformed input: sweep configs, ``--grid`` strings
and record CSVs drawn at random, each run in-process through ``cli.main``.
Every run must end with exit 0, 2 or 3; a failure prints exactly one
``error: ...`` line and no traceback, and a written CSV holds no nan.
``bound`` and ``reproduce-lemma1`` read no file, so they may end only with
exit 0 or 2."""

import codecs
import contextlib
import io
import re
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eonoise import sample_records, write_records_csv
from eonoise.cli import _SWEEP_KEYS, PRESETS, main
from eonoise.perturb import SCENARIO_KINDS, SCHEDULE_KINDS
from support import fig1_top_left

_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Number-like text that a parser may take, reject or misread.
_JUNK = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "-0", "", "0", "1", "0.5", "abc",
         "5e-324", "1e-300", "0x10", "1_0", "+.5", " 7 ", "1,2"]
_JUNK_TEXT = st.sampled_from(_JUNK)


def _number(lo, hi):
    return st.one_of(_JUNK_TEXT, st.floats(lo, hi).map(repr))


class _SlowExample(BaseException):
    """Raised by the alarm; a BaseException, so no handler in main takes it."""


def _run(argv):
    """Exit code, stdout and stderr of cli.main(argv), within 5 seconds."""
    def alarm(signum, frame):
        raise _SlowExample(f"cli.main({argv!r}) ran past 5 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _check(argv, written):
    code, _, stderr = _run(argv)
    assert code in (0, 2, 3), (code, stderr)
    assert "Traceback" not in stderr
    if code:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    else:
        assert stderr == ""
        for path in written:
            assert not re.search(r"(?i)\bnan\b", path.read_text()), path


_VALUES = {
    "preset": st.one_of(st.sampled_from(sorted(PRESETS)), _JUNK_TEXT),
    "alpha1": _number(0.0, 1.0), "beta1": _number(0.0, 1.0),
    "alpha2": _number(0.0, 1.0), "beta2": _number(0.0, 1.0),
    "base": st.one_of(
        _JUNK_TEXT,
        st.lists(_number(0.0, 1.0), min_size=3, max_size=5).map(" ".join),
        st.sampled_from(["0.25 0.25 0.25 0.25", "0.1, 0.2, 0.3, 0.4",
                         "5e-324 5e-324 0.5 0.5", "1e-320 0.3333333333333333 "
                         "0.3333333333333333 0.3333333333333334"])),
    "schedule": st.one_of(st.sampled_from(SCHEDULE_KINDS), _JUNK_TEXT),
    "grid_start": _number(-0.5, 1.5),
    "grid_stop": _number(-0.5, 1.5),
    # a step of at least 0.005 keeps a valid grid at or below ~300 points
    "grid_step": _number(0.005, 1.0),
}


@st.composite
def _config_bytes(draw, out_value):
    """A valid sweep config, then up to three keys set to drawn values,
    dropped or added, with junk lines, a BOM or a byte that is not UTF-8."""
    if draw(st.booleans()):
        values = {"preset": draw(st.sampled_from(sorted(PRESETS)))}
    else:
        values = {key: repr(draw(st.floats(0.0, 1.0))) for key in ("alpha1", "beta1", "alpha2", "beta2")}
        values["schedule"] = draw(st.sampled_from(SCHEDULE_KINDS))
    start = draw(st.floats(0.0, 1.0))
    values.update(grid_start=repr(start), grid_stop=repr(draw(st.floats(start, 1.0))),
                  grid_step=repr(draw(st.floats(0.005, 1.0))), out=out_value)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from([*_SWEEP_KEYS, "wibble", "alpha 1"]))
        if draw(st.booleans()):
            values.pop(key, None)
        else:
            values[key] = out_value if key == "out" else draw(_VALUES.get(key, _JUNK_TEXT))
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["# comment", "", "no equals sign", "= 1"]),
                           max_size=2))
    text = "\n".join(draw(st.permutations(lines))).encode()
    if draw(st.booleans()):
        text = codecs.BOM_UTF8 + text
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + text[at:]
    return text


@given(data=st.data())
@_FUZZ
def test_sweep_on_random_configs(tmp_path, data):
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    # absolute paths only: a relative 'out' would write into the working directory
    out_value = data.draw(st.sampled_from([str(out), str(tmp_path), str(tmp_path / "no" / "x.csv")]))
    config = tmp_path / "sweep.cfg"
    config.write_bytes(data.draw(_config_bytes(out_value)))
    argv = ["sweep", "--config", str(config)]
    if data.draw(st.booleans()):
        argv += ["--out", str(out)]
    _check(argv, [out])


@pytest.fixture(scope="module")
def records_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv(path, sample_records(fig1_top_left(), 400, seed=61, with_scores=True))
    return path


_GRIDS = st.one_of(
    st.text(max_size=12),
    _number(-0.5, 1.5),
    st.tuples(_number(-0.5, 1.5), _number(-0.5, 1.5), _number(0.005, 1.0)).map(":".join),
)


@given(grid=_GRIDS, scenario=st.sampled_from(SCENARIO_KINDS))
@_FUZZ
def test_dataset_on_random_grids(tmp_path, records_csv, grid, scenario):
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    _check(["dataset", str(records_csv), "--scenario", scenario, f"--grid={grid}",
            "--out", str(out)], [out])


@st.composite
def _record_bytes(draw):
    """A record CSV of at most 50 rows: valid rows with a few fields then
    replaced by junk."""
    has = {name: draw(st.booleans()) for name in ("a_c", "score", "yhat")}
    rows = []
    for _ in range(draw(st.integers(0, 50))):
        score = draw(st.floats(0.0, 1.0))
        rows.append([draw(st.sampled_from(["1", "-1"])), draw(st.sampled_from(["0", "1"])),
                     draw(st.sampled_from(["0", "1"])) if has["a_c"] else "",
                     repr(score) if has["score"] else "",
                     ("1" if score > 0.5 else "-1") if has["yhat"] else ""])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        rows[row][col] = draw(st.one_of(_JUNK_TEXT, st.sampled_from(["2", "1.0", "\xff", "1,1"])))
    header = draw(st.sampled_from(["y,a,a_c,score,yhat", "y, a ,a_c,score,yhat", "y,a,score"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header, *map(",".join, rows)]).encode("latin-1") + end.encode()


@given(data=st.data())
@_FUZZ
def test_dataset_and_estimate_on_random_records(tmp_path, data):
    records = tmp_path / "records.csv"
    records.write_bytes(data.draw(_record_bytes()))
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    scenario = data.draw(st.sampled_from(SCENARIO_KINDS))
    _check(["dataset", str(records), "--scenario", scenario, "--grid", "0:0.4:0.2",
            "--out", str(out)], [out])
    estimate = tmp_path / "estimate.cfg"
    estimate.unlink(missing_ok=True)
    _check(["estimate", str(records), "--out", str(estimate)], [estimate])


#: Numbers at the edges of the domains of bound and reproduce-lemma1.
_EDGE_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-0", "1e300", "5e-324", repr(1 - 2 ** -53)]),
    st.floats(-0.5, 1.5).map(repr))
_NUMBER_COMMANDS = st.one_of(
    # "--" keeps argparse from taking a number such as -1e-05 for an option
    st.lists(_EDGE_NUMBERS, min_size=3, max_size=3).map(lambda xs: ["bound", "--", *xs]),
    st.tuples(st.sampled_from([("a_violated", "--flip"), ("b_violated", "--gamma")]),
              _EDGE_NUMBERS).map(lambda t: ["reproduce-lemma1", t[0][0], f"{t[0][1]}={t[1]}"]))


@given(argv=_NUMBER_COMMANDS)
@example(argv=["bound", "--", "0.9999999999999999", "0", "5e-324"])
@_FUZZ
def test_bound_and_lemma1_on_edge_numbers(argv):
    code, _, stderr = _run(argv)
    assert code in (0, 2), (argv, code, stderr)
    if code:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    else:
        assert stderr == ""
