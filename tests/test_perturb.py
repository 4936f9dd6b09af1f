import numpy as np
import pytest

from eonoise import RangeError, RecordScenario, RecordsError, apply_scenario
from eonoise.perturb import SCENARIO_KINDS, GammaSchedule, schedule_eval
from eonoise.records import RecordSet


def test_equal_schedule():
    spec = schedule_eval(GammaSchedule("equal"), 0.3)
    assert spec.rates == (0.3, 0.3, 0.3, 0.3)


def test_halves_schedule():
    spec = schedule_eval(GammaSchedule("halves"), 0.4)
    assert spec.rates == (0.4, 0.4, 0.2, 0.2)


def test_power_halving_schedule():
    spec = schedule_eval(GammaSchedule("power-halving"), 0.4)
    assert spec.rates == (0.4, 0.2, 0.1, 0.05)


@pytest.mark.parametrize("kind", ["equal", "halves", "power-halving", "capped"])
def test_grid_rates_match_the_scalar_rates(kind):
    schedule = GammaSchedule(kind)
    grid = np.array([0.0, 5e-324, 0.1, 0.3, 0.4, 0.5, 1.0])
    columns = np.stack(schedule.grid_rates(grid), axis=1).tolist()
    assert columns == [list(schedule_eval(schedule, g).rates) for g in grid.tolist()]


def test_capped_schedule():
    spec = schedule_eval(GammaSchedule("capped"), 0.5)
    assert spec.rates == (0.5, 0.5, 0.8, 0.8)
    spec = schedule_eval(GammaSchedule("capped"), 0.1)
    assert spec.rates == (0.1, 0.1, 0.2, 0.2)


def test_schedule_rejects_out_of_range():
    with pytest.raises(RangeError):
        schedule_eval(GammaSchedule("equal"), 1.2)
    with pytest.raises(RangeError, match=r"driving flip rate 1\.2 outside \[0, 1\]"):
        GammaSchedule("equal").grid_rates(np.array([0.5, 1.2, -0.1]))
    with pytest.raises(RangeError):
        GammaSchedule("quadratic")


def _records(n=12, seed=0, with_score=True):
    rng = np.random.default_rng(seed)
    y = rng.choice((-1, 1), size=n)
    a = rng.choice((0, 1), size=n)
    score = rng.random(n)
    yhat = np.where(score > 0.5, 1, -1)
    return RecordSet(y=y, a=a, score=score if with_score else None, yhat=yhat)


def test_zero_flip_is_identity():
    rs = _records(200, seed=1)
    out = apply_scenario(rs, RecordScenario("independent-flip", 0.0), seed=9)
    assert (out.a_c == rs.a).all()


def test_full_band_flips_everything():
    rs = _records(200, seed=2)
    out = apply_scenario(rs, RecordScenario("score-band", 0.5), seed=0)
    assert (out.a_c == 1 - rs.a).all()


def test_flip_count_concentrates():
    n, gamma = 20_000, 0.3
    rs = _records(n, seed=3)
    out = apply_scenario(rs, RecordScenario("independent-flip", gamma), seed=4)
    flips = int((out.a_c != rs.a).sum())
    margin = 4.0 * np.sqrt(n * gamma * (1 - gamma))
    assert abs(flips - n * gamma) <= margin


def test_band_boundary_inclusive():
    y = np.array([1, 1, 1, 1])
    a = np.array([0, 0, 0, 0])
    score = np.array([0.25, 0.75, 0.2499999, 0.7500001])
    yhat = np.where(score > 0.5, 1, -1)
    rs = RecordSet(y=y, a=a, score=score, yhat=yhat)
    out = apply_scenario(rs, RecordScenario("score-band", 0.25), seed=0)
    assert list(out.a_c) == [1, 1, 0, 0]


def test_on_errors_variants_spare_correct_records():
    rs = _records(5000, seed=5)
    for scenario in (RecordScenario("independent-flip-on-errors", 0.8),
                     RecordScenario("score-band-on-errors", 0.4)):
        out = apply_scenario(rs, scenario, seed=6)
        correct = rs.yhat == rs.y
        assert (out.a_c[correct] == rs.a[correct]).all()
        wrong = ~correct
        assert (out.a_c[wrong] != rs.a[wrong]).any()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_corrupted_column_is_the_flipped_attribute(kind):
    rs = _records(5000, seed=13)
    scenario = RecordScenario(kind, 0.3)
    out = apply_scenario(rs, scenario, seed=14)
    if scenario.uses_score:
        flips = np.abs(rs.score - 0.5) <= 0.3
    else:
        flips = np.random.default_rng(14).random(rs.n) < 0.3
    if scenario.only_errors:
        flips &= rs.yhat != rs.y
    assert flips.any() and not flips.all()
    assert np.array_equal(out.a_c, np.where(flips, 1 - rs.a, rs.a))
    assert out.a_c.dtype == np.int8
    assert not out.a_c.flags.writeable and out.a_c.flags.owndata


def test_scenario_determinism():
    rs = _records(1000, seed=7)
    scenario = RecordScenario("independent-flip", 0.4)
    first = apply_scenario(rs, scenario, seed=8)
    second = apply_scenario(rs, scenario, seed=8)
    assert (first.a_c == second.a_c).all()
    other_seed = apply_scenario(rs, scenario, seed=9)
    assert (first.a_c != other_seed.a_c).any()


def test_metadata_recorded():
    rs = _records(10, seed=10)
    out = apply_scenario(rs, RecordScenario("independent-flip", 0.2), seed=11)
    assert out.meta["scenario"] == "independent-flip"
    assert out.meta["level"] == 0.2
    assert out.meta["seed"] == 11
    assert out.meta["rng"] == "numpy-pcg64"


def test_missing_columns_rejected():
    rs = _records(10, seed=12, with_score=False)
    with pytest.raises(RecordsError, match="scenario needs a score column"):
        apply_scenario(rs, RecordScenario("score-band", 0.2), seed=0)
    no_yhat = RecordSet(y=rs.y, a=rs.a)
    with pytest.raises(RecordsError, match="on-errors scenarios need a yhat column"):
        apply_scenario(no_yhat, RecordScenario("independent-flip-on-errors", 0.2), seed=0)


def test_scenario_level_ranges():
    with pytest.raises(RangeError):
        RecordScenario("independent-flip", 1.2)
    with pytest.raises(RangeError):
        RecordScenario("score-band", 0.6)
    with pytest.raises(RangeError):
        RecordScenario("banded", 0.1)
