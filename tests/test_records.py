import codecs
import itertools
import os
import re
import stat
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eonoise import (
    DerivedPredictor,
    EmptyCellError,
    EoNoiseError,
    GIVEN_PREDICTOR_P,
    PerturbationSpec,
    RecordScenario,
    RecordsError,
    apply_scenario,
    bias_derived,
    error_derived,
    error_given,
    estimate_corrupted_tables,
    estimate_instance,
    evaluate_predictor_on_records,
    independence_measure,
    sample_records,
    split,
    write_records_csv,
)
from eonoise import records
from eonoise.cli import main
from eonoise.perturb import SCENARIO_KINDS
from eonoise.records import RECORD_CSV_HEADER, RecordSet, clean_counts, read_records_csv
from records_oracle import apply_scenario as oracle_apply_scenario
from records_oracle import estimate_corrupted_tables as oracle_corrupted_tables
from records_oracle import estimate_instance as oracle_estimate_instance
from records_oracle import evaluate_predictor_exact
from records_oracle import evaluate_predictor_on_records as oracle_evaluate
from records_oracle import evaluate_predictor_sampled
from records_oracle import read_records_csv as oracle_read_records_csv
from records_oracle import sample_records as oracle_sample_records
from records_oracle import score_text
from records_oracle import write_records_csv as oracle_write_records_csv
from support import fig1_top_left, counterexample_instance, counterexample_spec, population_fourway


def test_recordset_validation():
    with pytest.raises(RecordsError):
        RecordSet(y=[1, 2], a=[0, 1])
    with pytest.raises(RecordsError):
        RecordSet(y=[1, -1], a=[0, 1, 0])
    with pytest.raises(RecordsError):
        RecordSet(y=[1, -1], a=[0, 1], score=[0.9, 0.2], yhat=[-1, -1])
    RecordSet(y=[1, -1], a=[0, 1], score=[0.9, 0.2], yhat=[1, -1])  # consistent
    with pytest.raises(RecordsError, match="one-dimensional"):
        RecordSet(y=[[1, -1], [1, 1]], a=[0, 1])
    with pytest.raises(RecordsError, match="one-dimensional"):
        RecordSet(y=1, a=0)


@pytest.mark.parametrize("column, values", [
    ("y", [255, 1]), ("yhat", [1, 255]), ("a", [256, 0]), ("a_c", [0, 257]), ("y", [1.5, 1]),
])
def test_recordset_rejects_values_that_int8_would_wrap(column, values):
    cols = {"y": [1, -1], "a": [0, 1], column: values}
    with pytest.raises(RecordsError, match=f"{column} values"):
        RecordSet(**cols)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -0.5, 1.5])
def test_recordset_rejects_scores_outside_unit_interval(score):
    with pytest.raises(RecordsError, match="finite"):
        RecordSet(y=[1, -1], a=[0, 1], score=[score, 0.2])


@pytest.mark.parametrize("column", RECORD_CSV_HEADER)
def test_recordset_keeps_no_alias_of_a_writeable_input(column):
    cols = {"y": np.array([1, -1, 1, -1], dtype=np.int8),
            "a": np.array([0, 1, 1, 0], dtype=np.int8),
            "a_c": np.array([0, 1, 0, 1], dtype=np.int8),
            "score": np.array([0.9, 0.2, 0.7, 0.4]),
            "yhat": np.array([1, -1, 1, -1], dtype=np.int8)}
    rs = RecordSet(**cols)
    before = getattr(rs, column).copy()
    cols[column][:] = 7
    assert np.array_equal(getattr(rs, column), before)
    with pytest.raises(ValueError, match="read-only"):
        getattr(rs, column)[0] = 7


def test_recordset_copies_a_read_only_view_of_writeable_memory():
    y = np.array([1, -1], dtype=np.int8)
    view = y[:]
    view.flags.writeable = False
    rs = RecordSet(y=view, a=[0, 1])
    y[0] = 7
    assert rs.y.tolist() == [1, -1]


def _read_only(col):
    col.flags.writeable = False
    return col


@pytest.mark.parametrize("make", [
    lambda path: np.memmap(path, dtype=np.int8, mode="r"),
    lambda path: np.frombuffer(path.read_bytes(), dtype=np.int8),
    lambda path: _read_only(np.fromfile(path, dtype=np.int8))[:],
], ids=["memmap", "frombuffer", "read-only-view-of-read-only-memory"])
def test_recordset_copies_memory_it_does_not_own(tmp_path, make):
    path = tmp_path / "y.bin"
    np.array([1, -1, 1], dtype=np.int8).tofile(path)
    given = make(path)
    assert not given.flags.owndata
    rs = RecordSet(y=given, a=[0, 1, 0])
    assert rs.y is not given and rs.y.flags.owndata and not rs.y.flags.writeable
    assert rs.y.tolist() == [1, -1, 1]


def test_recordset_stores_read_only_arrays_without_a_copy():
    y = np.array([1, -1], dtype=np.int8)
    y.flags.writeable = False
    rs = RecordSet(y=y, a=[0, 1])
    assert rs.y is y
    assert not rs.a.flags.writeable


def _assert_read_only(rs):
    for name in RECORD_CSV_HEADER:
        col = getattr(rs, name)
        assert col is None or not col.flags.writeable, name


def test_package_record_sets_are_read_only_and_shared(tmp_path, monkeypatch):
    # the package's producers hand over fresh, owned, read-only arrays, so
    # RecordSet stores each of them as is
    handed = []
    post_init = RecordSet.__post_init__

    def spy(self):
        given = [getattr(self, name) for name in RECORD_CSV_HEADER]
        post_init(self)
        handed.extend((col, getattr(self, name)) for name, col in zip(RECORD_CSV_HEADER, given)
                      if isinstance(col, np.ndarray))

    def stored_as_is():
        done = handed[:]
        handed.clear()
        return done and all(stored is col for col, stored in done)

    monkeypatch.setattr(RecordSet, "__post_init__", spy)
    rs = sample_records(fig1_top_left(), 40, seed=3, with_scores=True)
    _assert_read_only(rs)
    assert stored_as_is()
    parts = split(rs, seed=0)
    for part in parts:
        _assert_read_only(part)
    assert stored_as_is()
    corrupted = apply_scenario(parts[0], RecordScenario("independent-flip", 0.3), seed=1)
    _assert_read_only(corrupted)
    assert stored_as_is()
    # apply_scenario hands the kept columns over without a copy
    for name in ("y", "a", "score", "yhat"):
        assert getattr(corrupted, name) is getattr(parts[0], name)
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    _assert_read_only(read_records_csv(path))
    assert stored_as_is()
    # a slice is a view, so RecordSet copies it
    _assert_read_only(rs.subset(slice(5, 9)))
    assert handed and not any(stored is col for col, stored in handed)


def test_estimate_uniform_records():
    rows = [(y, a, yh) for y in (1, -1) for a in (0, 1) for yh in (1, -1)]
    rs = RecordSet(y=[r[0] for r in rows], a=[r[1] for r in rows], yhat=[r[2] for r in rows])
    est = estimate_instance(rs)
    assert est.counts == (2, 2, 2, 2)
    assert est.instance.base == (0.25, 0.25, 0.25, 0.25)
    for value in (est.instance.alpha1, est.instance.beta1,
                  est.instance.alpha2, est.instance.beta2):
        assert value == 0.5


def test_estimate_recovers_sampled_instance():
    inst = fig1_top_left()
    rs = sample_records(inst, 100_000, seed=42)
    est = estimate_instance(rs)
    assert np.allclose(est.instance.base, inst.base, atol=0.01)
    assert est.instance.alpha1 == pytest.approx(inst.alpha1, abs=0.01)
    assert est.instance.beta1 == pytest.approx(inst.beta1, abs=0.01)
    assert est.instance.alpha2 == pytest.approx(inst.alpha2, abs=0.01)
    assert est.instance.beta2 == pytest.approx(inst.beta2, abs=0.01)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("with_scores", [False, True], ids=["labels", "scores"])
def test_sample_records_matches_the_where_and_astype_reference(with_scores, n, seed):
    args = dict(inst=fig1_top_left(), n=n, seed=seed, with_scores=with_scores)
    got, want = sample_records(**args), oracle_sample_records(**args)
    for name in RECORD_CSV_HEADER:
        col, ref = getattr(got, name), getattr(want, name)
        if ref is None:
            assert col is None, name
            continue
        assert col.dtype == ref.dtype == (np.float64 if name == "score" else np.int8), name
        assert not col.flags.writeable and not ref.flags.writeable, name
        assert col.shape == ref.shape == (n,) and col.tobytes() == ref.tobytes(), name
    assert got.a_c is None and (got.score is None) != with_scores
    assert got.meta == want.meta


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_apply_scenario_matches_the_per_record_reference(kind, n, seed):
    # apply_scenario is the one place the package makes a sample's a_c
    rs = sample_records(fig1_top_left(), n, seed=seed, with_scores=True)
    scenario = RecordScenario(kind, 0.3)
    got, want = apply_scenario(rs, scenario, seed), oracle_apply_scenario(rs, scenario, seed)
    assert got.a_c.dtype == want.a_c.dtype == np.int8
    assert not got.a_c.flags.writeable and not want.a_c.flags.writeable
    assert got.a_c.shape == (n,) and got.a_c.tobytes() == want.a_c.tobytes()
    for name in ("y", "a", "score", "yhat"):
        assert getattr(got, name) is getattr(rs, name), name
    assert got.meta == want.meta


def test_estimate_missing_cell():
    rs = RecordSet(y=[1, 1, -1, -1], a=[1, 1, 0, 1], yhat=[1, -1, 1, -1])
    with pytest.raises(EmptyCellError, match="Y=1, A=0"):
        estimate_instance(rs)
    with pytest.raises(RecordsError, match="estimation needs a yhat column"):
        estimate_instance(RecordSet(y=[1, -1], a=[0, 1]))


def test_clean_counts_table_and_missing_prediction():
    rs = RecordSet(y=[1, 1, -1, -1, -1], a=[0, 1, 1, 1, 0], yhat=[-1, -1, 1, -1, -1])
    want = np.zeros((2, 2, 2))
    for y, a, yt in zip(rs.y, rs.a, rs.yhat):
        want[int(y == -1), a, int(yt == -1)] += 1
    got = clean_counts(rs)
    assert got.dtype == float and np.array_equal(got, want)
    with pytest.raises(RecordsError, match="yhat"):
        clean_counts(RecordSet(y=[1, -1], a=[0, 1]))


def _outcome(estimate, rs):
    """float.hex of every number an estimator returns, or the type and the
    message of the error it raises."""
    try:
        got = estimate(rs)
    except EoNoiseError as exc:
        return type(exc), str(exc)
    if hasattr(got, "fourway"):
        assert got.joint.flags.c_contiguous
        return [t.shape for t in got] + [float.hex(v) for t in got for v in t.ravel().tolist()]
    inst = got.instance
    return list(got.counts) + [float.hex(v) for v in
                               (*inst.base, inst.alpha1, inst.beta1, inst.alpha2, inst.beta2)]


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(0, 12), st.integers(13, 3000)),
       skew=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1), absent=st.sets(st.sampled_from(("a_c", "yhat"))))
def test_estimators_match_mask_and_two_bincount_oracles(n, skew, seed, absent):
    rng = np.random.default_rng(seed)
    weights = np.asarray(skew) + 1e-3
    # a skewed draw over the (y, a, a_c) cells leaves cells empty at small n
    cell = rng.choice(8, size=n, p=weights / weights.sum())
    cols = {"y": np.where(cell < 4, 1, -1), "a": (cell >> 1) % 2, "a_c": cell % 2,
            "yhat": rng.choice((-1, 1), size=n)}
    rs = RecordSet(**{name: None if name in absent else col for name, col in cols.items()})
    assert _outcome(estimate_instance, rs) == _outcome(oracle_estimate_instance, rs)
    assert _outcome(estimate_corrupted_tables, rs) == _outcome(oracle_corrupted_tables, rs)


def test_estimators_match_oracles_on_sampled_records():
    spec = PerturbationSpec.restricted(0.2, 0.3, 0.15, 0.25)
    rs = oracle_sample_records(fig1_top_left(), 200_000, seed=20, spec=spec)
    for part in [rs, *split(rs, seed=4)]:
        assert _outcome(estimate_instance, part) == _outcome(oracle_estimate_instance, part)
        assert _outcome(estimate_corrupted_tables, part) == _outcome(oracle_corrupted_tables, part)


def test_corrupted_tables_identity_corruption():
    inst = fig1_top_left()
    rs = sample_records(inst, 5000, seed=1)
    rs = RecordSet(y=rs.y, a=rs.a, a_c=rs.a.copy(), yhat=rs.yhat)
    tables = estimate_corrupted_tables(rs)
    clean = np.zeros((2, 2, 2))
    np.add.at(clean, ((rs.y == -1).astype(int), rs.a.astype(int),
                      (rs.yhat == -1).astype(int)), 1.0)
    assert np.array_equal(tables.joint, clean)


def test_corrupted_tables_independence_small_for_restricted_sampling():
    inst = fig1_top_left()
    spec = PerturbationSpec.restricted(0.2, 0.3, 0.15, 0.25)
    rs = oracle_sample_records(inst, 100_000, seed=2, spec=spec)
    tables = estimate_corrupted_tables(rs)
    assert independence_measure(tables.fourway) <= 0.02


def test_counterexample_independence_estimate_matches_population():
    inst, spec = counterexample_instance(), counterexample_spec()
    exact = independence_measure(population_fourway(inst, spec))
    rs = oracle_sample_records(inst, 1_000_000, seed=3, spec=spec)
    tables = estimate_corrupted_tables(rs)
    assert independence_measure(tables.fourway) == pytest.approx(exact, abs=0.01)


def test_evaluate_identity_predictor_reproduces_given_metrics():
    inst = fig1_top_left()
    rs = sample_records(inst, 20_000, seed=4)
    metrics = evaluate_predictor_on_records(rs, DerivedPredictor(GIVEN_PREDICTOR_P))
    rate = {}
    for y in (1, -1):
        for a in (0, 1):
            mask = (rs.y == y) & (rs.a == a)
            rate[(y, a)] = float((rs.yhat[mask] == 1).mean())
    assert metrics.bias_pos == pytest.approx(abs(rate[(1, 0)] - rate[(1, 1)]), abs=1e-15)
    assert metrics.bias_neg == pytest.approx(abs(rate[(-1, 0)] - rate[(-1, 1)]), abs=1e-15)
    assert metrics.error == pytest.approx(float((rs.yhat != rs.y).mean()), abs=1e-15)


def test_evaluate_constant_predictor():
    inst = fig1_top_left()
    rs = sample_records(inst, 10_000, seed=5)
    metrics = evaluate_predictor_on_records(rs, DerivedPredictor((1.0,) * 4))
    assert metrics.error == pytest.approx(float((rs.y == -1).mean()), abs=1e-15)
    assert metrics.bias_pos == 0.0 and metrics.bias_neg == 0.0


def test_sampled_evaluation_agrees_with_expectation():
    inst = fig1_top_left()
    rs = sample_records(inst, 5000, seed=6)
    pred = DerivedPredictor((0.9, 0.7, 0.2, 0.4))
    exact = evaluate_predictor_on_records(rs, pred)
    mean, samples = evaluate_predictor_sampled(rs, pred, seed=7, repetitions=100)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    for got, want, s in zip(mean, exact, se):
        assert abs(got - want) <= 3.0 * max(s, 1e-4)


def _random_predictor(rng):
    p = rng.random(4)
    p[rng.random(4) < 0.3] = rng.choice((0.0, 1.0))
    return DerivedPredictor(tuple(p.tolist()))


def _hex(metrics):
    return [float.hex(v) for v in metrics]


def _evaluation_cases(seed):
    """Record sets of 8, 300 or 20,011 rows from a random cell mix, their
    split halves and a resample, four random predictors each."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice((8, 300, 20_011)))
    cell = rng.choice(4, size=n, p=rng.dirichlet(np.ones(4)) * 0.9 + 0.025)
    cell[:4] = range(4)  # no empty cell
    rs = RecordSet(y=np.where(cell < 2, 1, -1), a=cell % 2, yhat=rng.choice((-1, 1), size=n))
    train, test = split(rs, seed)
    picked = rs.subset(rng.integers(0, n, size=n))
    for part in (rs, train, test, picked):
        for _ in range(4):
            yield part, _random_predictor(rng)


def _sampled_evaluation_cases():
    rs = sample_records(fig1_top_left(), 30_000, seed=18, with_scores=True)
    _, test = split(rs, seed=3)
    rng = np.random.default_rng(19)
    preds = [DerivedPredictor(GIVEN_PREDICTOR_P)] + [_random_predictor(rng) for _ in range(12)]
    return [(test, pred) for pred in preds]


def _off_exact(metrics, exact):
    return max(abs(Fraction(v) - e) for v, e in zip(metrics, exact))


@pytest.mark.parametrize("seed", range(6))
def test_evaluation_matches_exact_oracle(seed):
    for part, pred in _evaluation_cases(seed):
        try:
            want = oracle_evaluate(part, pred)
        except EmptyCellError as exc:
            with pytest.raises(EmptyCellError, match=str(exc)):
                evaluate_predictor_on_records(part, pred)
            continue
        exact = evaluate_predictor_exact(part, pred)
        assert _off_exact(evaluate_predictor_on_records(part, pred), exact) <= 1e-15
        assert _off_exact(want, exact) <= 1e-15


def test_evaluation_matches_exact_oracle_on_sampled_records():
    for test, pred in _sampled_evaluation_cases():
        exact = evaluate_predictor_exact(test, pred)
        assert _off_exact(evaluate_predictor_on_records(test, pred), exact) <= 1e-15
        assert _off_exact(oracle_evaluate(test, pred), exact) <= 1e-15


def test_evaluation_is_the_analytic_formulas_at_the_estimated_instance():
    cases = [case for seed in range(6) for case in _evaluation_cases(seed)]
    for part, pred in cases + _sampled_evaluation_cases():
        try:
            est = estimate_instance(part).instance
        except EmptyCellError:
            continue
        want = (bias_derived(est, pred, 1), bias_derived(est, pred, -1), error_derived(est, pred))
        assert _hex(evaluate_predictor_on_records(part, pred)) == _hex(want)


def test_evaluation_empty_cell_raises_on_every_call():
    rs = RecordSet(y=[1, 1, -1, -1, -1], a=[0, 0, 0, 1, 1], yhat=[1, -1, 1, -1, 1])
    rng = np.random.default_rng(20)
    for _ in range(3):
        with pytest.raises(EmptyCellError, match="Y=1, A=1"):
            evaluate_predictor_on_records(rs, _random_predictor(rng))
    with pytest.raises(RecordsError, match="yhat"):
        evaluate_predictor_on_records(RecordSet(y=[1, -1], a=[0, 1]), _random_predictor(rng))


def test_split_sizes_and_determinism():
    for n, sizes in [(1, [0, 1]), (7, [3, 4]), (10, [5, 5])]:
        rs = sample_records(fig1_top_left(), n, seed=9, with_scores=True)
        parts = split(rs, seed=1)
        assert [p.n for p in parts] == sizes
        again = split(rs, seed=1)
        for lhs, rhs in zip(parts, again):
            for name in ("y", "a", "score", "yhat"):
                assert np.array_equal(getattr(lhs, name), getattr(rhs, name))


def test_split_halves_are_the_seeded_shuffle():
    rs = sample_records(fig1_top_left(), 1001, seed=10, with_scores=True)
    train, test = split(rs, seed=2)
    perm = np.random.default_rng(2).permutation(rs.n)
    assert np.array_equal(train.score, rs.score[perm[:500]])
    assert np.array_equal(test.score, rs.score[perm[500:]])
    assert not np.array_equal(split(rs, seed=3)[0].score, train.score)


def test_split_partitions_rows():
    rs = sample_records(fig1_top_left(), 1000, seed=10, with_scores=True)
    parts = split(rs, seed=2)
    gathered = np.sort(np.concatenate([p.score for p in parts]))
    assert np.array_equal(gathered, np.sort(rs.score))


def test_split_parts_own_their_meta():
    rs = sample_records(fig1_top_left(), 10, seed=11)
    parts = split(rs, seed=0)
    assert all(p.meta == rs.meta and p.meta is not rs.meta for p in parts)
    parts[0].meta["note"] = "x"
    assert "note" not in rs.meta and "note" not in parts[1].meta


def test_estimators_permutation_invariant():
    rs = sample_records(fig1_top_left(), 4000, seed=12)
    perm = np.random.default_rng(13).permutation(rs.n)
    shuffled = rs.subset(perm)
    a, b = estimate_instance(rs), estimate_instance(shuffled)
    assert a.counts == b.counts
    assert np.allclose(a.instance.base, b.instance.base, atol=1e-12)
    for name in ("alpha1", "beta1", "alpha2", "beta2"):
        assert getattr(a.instance, name) == pytest.approx(getattr(b.instance, name), abs=1e-12)


def test_estimate_then_formula_consistency():
    rs = sample_records(fig1_top_left(), 3000, seed=14)
    est = estimate_instance(rs)
    metrics = evaluate_predictor_on_records(rs, DerivedPredictor(GIVEN_PREDICTOR_P))
    assert error_given(est.instance) == pytest.approx(metrics.error, abs=1e-12)


def test_csv_round_trip(tmp_path):
    rs = oracle_sample_records(fig1_top_left(), 50, seed=15,
                               spec=PerturbationSpec.uniform(0.2), with_scores=True)
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    back = read_records_csv(path)
    assert (back.y == rs.y).all() and (back.a == rs.a).all()
    assert (back.a_c == rs.a_c).all() and (back.yhat == rs.yhat).all()
    assert np.allclose(back.score, rs.score, atol=1e-12)


def test_csv_optional_columns_blank(tmp_path):
    rs = sample_records(fig1_top_left(), 20, seed=16)
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    back = read_records_csv(path)
    assert back.a_c is None and back.score is None
    assert (back.yhat == rs.yhat).all()


def test_csv_header_and_uniformity_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("y,a,score\n1,0,0.5\n")
    with pytest.raises(RecordsError):
        read_records_csv(bad_header)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,a,a_c,score,yhat\n1,0,,0.7,1\n-1,1,0,,-1\n")
    with pytest.raises(RecordsError):
        read_records_csv(ragged)


CSV_HEADER = "y,a,a_c,score,yhat\n"


@pytest.mark.parametrize("body, line, what", [
    ("255,0,,,\n", 2, "y must be -1 or +1"),
    ("1,0,,,1\n\n-1,1,,\n", 4, "expected 5 fields, got 4"),
    ("1,0,,,1\n\n\nx,1,,,1\n", 5, "bad value in column y: 'x'"),
    ("1,0,,0.7,1\n1,0,,nan,-1\n", 3, "score must be finite"),
    ("1,0,,0.7,1\n1,0,,inf,-1\n", 3, "score must be finite"),
    ("1,0,,0.7,1\r\n\r\n-1,1,,0.2,1\r\n", 4, "yhat must be +1 exactly where"),
    ("1,0,,,1\n-1,1,1,,1\n", 3, "column a_c is filled here but empty on the first"),
    ("1,0,1,,1\n-1,1, \t,,1\n", 3, "column a_c is empty here but filled on the first"),
    ("99999999999999999999,0,,,\n", 2, "y must be -1 or +1, got '99999999999999999999'"),
    (" ,0,,,1\n", 2, "the y and a columns are required"),
    ("1,0,,,1\n1,0,,,1\n   \n", 4, "expected 5 fields, got 1"),
    ('1,0,,,"1"\n', 2, "bad value in column yhat"),
    ("1,0,,,1\x00\n", 2, "bad value in column yhat"),
    ("1,0,,,\u00e91\n", 2, "bad value in column yhat"),
])
def test_csv_errors_name_the_file_line(tmp_path, body, line, what):
    path = tmp_path / "bad.csv"
    path.write_bytes((CSV_HEADER + body).encode())
    with pytest.raises(RecordsError) as info:
        read_records_csv(path)
    assert f"{path}:{line}: " in str(info.value)
    assert what in str(info.value)


@pytest.mark.parametrize("text", ["", "y,a,score\n1,0,0.5\n", "\ny,a,a_c,score,yhat\n1,0,,,1\n",
                                  CSV_HEADER, CSV_HEADER + "\r\n\n",
                                  "y,a,a_c,score,y\n1,0,,0.75,1\n"])
def test_csv_header_and_empty_file_errors(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(RecordsError):
        read_records_csv(path)


def test_dataset_cli_exits_3_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "1,0,,0.7,1\n\n-1,1,,nan,-1\n")
    code = main(["dataset", str(path), "--scenario", "independent-flip",
                 "--grid", "0.1", "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert f"{path}:4: score must be finite" in capsys.readouterr().err


def test_csv_crlf_padding_and_blank_lines(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(b" y , a ,a_c,score,yhat\r\n\r\n 1 ,\t0, ,0.75 , 1\r\n\n-1,1,\t,0.25,-1")
    back = read_records_csv(path)
    assert back.y.tolist() == [1, -1] and back.a.tolist() == [0, 1]
    assert back.a_c is None and back.score.tolist() == [0.75, 0.25]


def _read_lines(path):
    return records._read_lines(path, None)  # as read_records_csv calls it on a regular file


#: The package's two ways to read a record CSV: the entry point, which tries
#: np.loadtxt first, and the line reader it falls back to.
READERS = pytest.mark.parametrize("read", [read_records_csv, _read_lines],
                                  ids=["read_records_csv", "_read_lines"])


@READERS
def test_csv_readers_on_many_lines_blank_lines_and_a_wide_field(tmp_path, read):
    # 70,000 lines, blank lines between them, and one 100,000-byte field;
    # the file keeps the bytes of the writer's form.
    rs = oracle_sample_records(fig1_top_left(), 70_000, seed=17,
                               spec=PerturbationSpec.uniform(0.2), with_scores=True)
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    lines = path.read_text().split("\n")
    y, a, a_c, score, yhat = lines[40_000].split(",")
    lines[40_000] = ",".join((y, a, a_c, "0" * 100_000 + score, yhat))
    for k in range(len(lines) - 1, 0, -997):
        lines.insert(k, "")
    path.write_text("\n".join(lines))
    got, want = read(path), oracle_read_records_csv(path)
    for name in ("y", "a", "a_c", "yhat"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.score.view(np.int64), want.score.view(np.int64))
    assert got.n == rs.n and np.array_equal(got.a_c, rs.a_c)


_LABELS = {"y": ("1", "-1"), "a": ("0", "1"), "a_c": ("0", "1"), "yhat": ("1", "-1")}
_ODD_INTS = ("2", "255", "-2", "x", "1.0", "+1", "01", "0_1", "nan", "", " ")
_ODD_SCORES = ("nan", "inf", "-0.0", "1.5", "-0.25", "1e-3", "x", "5e-1", ".5", "0_0.5", "", "\t")
_PADS = st.sampled_from(("",) * 6 + (" ", "\t", "  \t"))
#: Fields np.loadtxt must not be trusted with: separator bytes, NUL,
#: non-ASCII, a lone CR, a comment mark, quotes and a sixth field.
_HOSTILE = ("1\x1c", "\x1f0", "1\x00", "0.5\x1f", "\u00e91", "1\r", "\r0", "#1", '"1"', "'0'",
            "1,", ",0")
#: Padding alone, which leaves a field empty.
_BLANKS = (" ", "\t", "\v", "\f", "\r")


@st.composite
def record_csv_files(draw, hostile=False):
    """Record CSV text over random columns: empty optional columns, CRLF,
    blank lines and padded fields.  Half the files have one anomaly: an odd
    value, a value in an empty column, a flipped yhat or a wrong field count.

    With ``hostile``, half the files have no padding, as the writer's output
    has none, the anomaly may also be a field from _HOSTILE or padding in an
    empty column, half the files have a blank line before the first row, and
    half join two lines with a lone CR."""
    pads = _PADS if not hostile or draw(st.booleans()) else st.just("")
    n = draw(st.integers(1, 12))
    present = {name: draw(st.integers(0, 15)) > 0 if name in ("y", "a")
               else draw(st.booleans()) for name in RECORD_CSV_HEADER}
    rows = []
    for _ in range(n):
        row = {}
        for name in RECORD_CSV_HEADER:
            if not present[name]:
                row[name] = ""
            elif name == "score":
                value = draw(st.floats(0.0, 1.0))
                row[name] = draw(st.sampled_from((repr(value), format(value, ".12g"))))
            else:
                row[name] = draw(st.sampled_from(_LABELS[name]))
        if present["score"] and present["yhat"]:
            row["yhat"] = "1" if float(row["score"]) > 0.5 else "-1"
        rows.append(row)

    cut = None
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        name = draw(st.sampled_from(RECORD_CSV_HEADER + ("fields",)))
        if name == "fields":
            cut = (k, draw(st.sampled_from((0, 1, 2, 3, 4, 6, 7))))
        elif not present[name]:
            rows[k][name] = draw(st.sampled_from(("1", "0", "0.5") + (_BLANKS if hostile else ())))
        elif name == "yhat" and present["score"]:
            rows[k][name] = {"1": "-1", "-1": "1"}[rows[k][name]]
        else:
            odd = _ODD_SCORES if name == "score" else _ODD_INTS
            rows[k][name] = draw(st.sampled_from(odd + (_HOSTILE if hostile else ())))

    lines = [draw(st.sampled_from(("y,a,a_c,score,yhat", " y , a ,a_c,score,yhat\t")))]
    if hostile:
        lines.extend([""] * draw(st.integers(0, 1)))
    for k, row in enumerate(rows):
        fields = [draw(pads) + row[name] + draw(pads) for name in RECORD_CSV_HEADER]
        if cut is not None and cut[0] == k:
            fields = (fields + ["1", "0"])[:cut[1]]
        lines.append(",".join(fields))
        lines.extend([""] * draw(st.sampled_from((0,) * 8 + (1, 2))))
    if hostile and len(lines) > 2 and draw(st.booleans()):
        k = draw(st.integers(1, len(lines) - 2))
        lines[k:k + 2] = [lines[k] + "\r" + lines[k + 1]]
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + draw(st.sampled_from(("", eol)))


def _assert_agrees_with_oracle(path, read=read_records_csv):
    try:
        want = oracle_read_records_csv(path)
    except RecordsError:
        with pytest.raises(RecordsError):
            read(path)
        return
    got = read(path)
    for name in RECORD_CSV_HEADER:
        lhs, rhs = getattr(got, name), getattr(want, name)
        if rhs is None:
            assert lhs is None, name
        elif name == "score":
            assert np.array_equal(lhs.view(np.int64), rhs.view(np.int64))
        else:
            assert lhs.dtype == rhs.dtype and np.array_equal(lhs, rhs), name


@given(record_csv_files())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_readers_agree_with_csv_module_oracle(tmp_path, text):
    # the line reader is checked on its own as well: read_records_csv falls
    # back to it on any file np.loadtxt is not given or rejects
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    for read in (read_records_csv, _read_lines):
        _assert_agrees_with_oracle(path, read)


def _outcome_of_read(read, path):
    """The columns a reader returns, labels as int8 and scores as float.hex,
    or the message of the RecordsError it raises."""
    try:
        got = read(path)
    except RecordsError as exc:
        return str(exc)
    columns = {}
    for name in RECORD_CSV_HEADER:
        col = getattr(got, name)
        if col is None or name == "score":
            columns[name] = col if col is None else [float.hex(v) for v in col.tolist()]
        else:
            assert col.dtype == np.int8, name
            columns[name] = col.tolist()
    return columns


@given(record_csv_files(hostile=True))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_numpy_path_agrees_with_line_reader(tmp_path, text):
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    assert _outcome_of_read(read_records_csv, path) == _outcome_of_read(_read_lines, path)


@pytest.fixture
def line_reads(monkeypatch):
    """The paths records._read_lines is called with; it is given the bytes
    already read only when the path is not a regular file."""
    calls = []
    read = records._read_lines

    def spy(path, data):
        assert (data is None) == stat.S_ISREG(os.stat(path).st_mode)
        calls.append(path)
        return read(path, data)

    monkeypatch.setattr(records, "_read_lines", spy)
    return calls


@pytest.fixture(scope="module")
def file_of_200000(tmp_path_factory):
    rs = oracle_sample_records(fig1_top_left(), 200_000, seed=22,
                               spec=PerturbationSpec.uniform(0.2), with_scores=True)
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv(path, rs)
    return rs, path.read_bytes()


@pytest.mark.parametrize("last_row, parsers, fault", [
    ("", {"np.loadtxt"}, None),
    ("-1,1,0,0.25,x", {"_read_lines"}, "bad value in column yhat: 'x'"),  # refused by the form check
    ("-1,1,0,1.5,1", {"np.loadtxt", "_read_lines"},  # refused by RecordSet after the parse
     "score must be finite and lie in [0, 1], got '1.5'"),
], ids=["numpy", "form-refused", "parse-refused"])
def test_csv_reader_holds_no_file_bytes_while_it_parses(tmp_path, monkeypatch, file_of_200000,
                                                        last_row, parsers, fault):
    # live traced memory at the entry of each parser stays far below the
    # file's size, so the bytes read for the form check were dropped
    rs, data = file_of_200000
    path = tmp_path / "records.csv"
    path.write_bytes(data + last_row.encode() + b"\n")
    live = {}
    loadtxt, read_lines = np.loadtxt, records._read_lines

    def loadtxt_spy(*args, **kwargs):
        live["np.loadtxt"] = tracemalloc.get_traced_memory()[0]
        return loadtxt(*args, **kwargs)

    def read_lines_spy(path, data):
        live["_read_lines"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()  # the line reader's own allocations are not in question
        return read_lines(path, data)

    monkeypatch.setattr(records.np, "loadtxt", loadtxt_spy)
    monkeypatch.setattr(records, "_read_lines", read_lines_spy)
    tracemalloc.start()
    try:
        if fault is None:
            _assert_reads_back(rs, read_records_csv(path))
        else:
            with pytest.raises(RecordsError, match=re.escape(f"{path}:{rs.n + 2}: {fault}")):
                read_records_csv(path)
    finally:
        tracemalloc.stop()
    assert set(live) == parsers
    assert max(live.values()) < path.stat().st_size / 4, live


@pytest.fixture(scope="module")
def sampled_70000():
    return oracle_sample_records(fig1_top_left(), 70_000, seed=21,
                                 spec=PerturbationSpec.uniform(0.2), with_scores=True)


#: Scores the writer must spell as format(v, ".12g") does: both ends of
#: [0, 1], the cut-off, an exponent form, the smallest subnormal, negative
#: zero, and values whose 12 significant digits round up to 1.
_EDGE_SCORES = (0.0, 1.0, 0.5, 1e-05, 5e-324, -0.0,
                1.0 - 1e-13, 0.99999999999951, float(np.nextafter(1.0, 0.0)))
_OPTIONAL = ("a_c", "score", "yhat")


def _record_set(rng, scores, absent):
    n = len(scores)
    score = np.array(scores, dtype=float)
    cols = {"y": rng.choice(np.array([-1, 1], dtype=np.int8), n),
            "a": rng.choice(np.array([0, 1], dtype=np.int8), n),
            "a_c": rng.choice(np.array([0, 1], dtype=np.int8), n),
            "score": score,
            "yhat": np.where(score > 0.5, 1, -1).astype(np.int8)}
    return RecordSet(**{name: None if name in absent else col for name, col in cols.items()})


def _assert_writer_matches_oracle(tmp_path, rs):
    path, reference = tmp_path / "records.csv", tmp_path / "reference.csv"
    write_records_csv(path, rs)
    oracle_write_records_csv(reference, rs)
    assert path.read_bytes() == reference.read_bytes()
    _assert_reads_back(rs, read_records_csv(path))


def _assert_reads_back(rs, back):
    """``back`` holds the columns of ``rs``, scores rounded as the writer
    spells them."""
    for name in RECORD_CSV_HEADER:
        col, got = getattr(rs, name), getattr(back, name)
        if col is None:
            assert got is None, name
        elif name == "score":
            want = np.array([float(score_text(v)) for v in col.tolist()])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        else:
            assert got.dtype == np.int8 and np.array_equal(got, col), name


_ABSENT = pytest.mark.parametrize("absent", [frozenset(c) for k in range(4)
                                             for c in itertools.combinations(_OPTIONAL, k)],
                                  ids=lambda absent: "-".join(sorted(absent)) or "none")


@pytest.mark.parametrize("chunk_lines", [records._CHUNK_LINES, 3])
@pytest.mark.parametrize("n", [1, len(_EDGE_SCORES)])
@_ABSENT
def test_csv_writer_matches_per_field_oracle(tmp_path, monkeypatch, absent, n, chunk_lines):
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    rs = _record_set(np.random.default_rng(n), _EDGE_SCORES[-n:], absent)
    _assert_writer_matches_oracle(tmp_path, rs)


@given(st.lists(st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(0.0, 1.0)),
                min_size=1, max_size=12),
       st.sets(st.sampled_from(_OPTIONAL)), st.sampled_from([records._CHUNK_LINES, 3]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_writer_agrees_with_per_field_oracle(tmp_path, monkeypatch, scores, absent,
                                                  chunk_lines, seed):
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    rs = _record_set(np.random.default_rng(seed), scores, absent)
    _assert_writer_matches_oracle(tmp_path, rs)


@pytest.mark.parametrize("chunk_lines", [records._CHUNK_LINES, 3])
@_ABSENT
def test_csv_writer_matches_per_field_oracle_on_no_rows(tmp_path, monkeypatch, absent,
                                                        chunk_lines):
    # both refuse before the file is opened: a header-only file would not read back
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    rs = _record_set(np.random.default_rng(0), [], absent)
    for write in (write_records_csv, oracle_write_records_csv):
        path = tmp_path / f"{write.__module__}.csv"
        with pytest.raises(RecordsError, match=f"^{re.escape(str(path))}: no data rows to write$"):
            write(path, rs)
        assert not path.exists()


@pytest.mark.parametrize("chunk_lines", [records._CHUNK_LINES, 3])
@_ABSENT
def test_csv_writer_matches_per_field_oracle_on_every_label_combination(
        tmp_path, monkeypatch, absent, chunk_lines):
    # one row per (y, a, a_c, yhat) combination, so every line template is written
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    rows = list(itertools.product((1, -1), (0, 1), (0, 1), (1, -1)))
    y, a, a_c, yhat = (np.array(col, dtype=np.int8) for col in zip(*rows))
    score = np.where(yhat == 1, 0.75, 0.25)
    cols = {"y": y, "a": a, "a_c": a_c, "score": score, "yhat": yhat}
    rs = RecordSet(**{name: None if name in absent else col for name, col in cols.items()})
    _assert_writer_matches_oracle(tmp_path, rs)
    labels = [name for name in RECORD_CSV_HEADER if name != "score" and name not in absent]
    lines = (tmp_path / "records.csv").read_text().splitlines()[1:]
    assert len({tuple(line.split(",")[RECORD_CSV_HEADER.index(name)] for name in labels)
                for line in lines}) == 2 ** len(labels)


#: Scores above 0.5 whose 12-digit text is "0.5".
_NEAR_HALF = (float(np.nextafter(0.5, 1.0)), 0.5 + 2**-52, 0.5 + 1e-13, 0.5 + 4.9e-13)


@READERS
@pytest.mark.parametrize("score", _NEAR_HALF)
def test_csv_scores_just_above_one_half_read_back(tmp_path, read, score):
    assert format(score, ".12g") == "0.5"
    rs = RecordSet(y=[1, -1], a=[0, 1], score=[score, 0.25], yhat=[1, -1])
    _assert_writer_matches_oracle(tmp_path, rs)
    path = tmp_path / "records.csv"
    assert path.read_text() == f"{CSV_HEADER}1,0,,{score!r},1\n-1,1,,0.25,-1\n"
    back = read(path)
    assert back.score.tolist() == [score, 0.25] and back.yhat.tolist() == [1, -1]


@given(st.lists(st.floats(0.5, 0.5 + 1e-12, exclude_min=True), min_size=1, max_size=8),
       st.sampled_from([records._CHUNK_LINES, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_scores_in_the_rounding_gap_above_one_half_read_back(tmp_path, monkeypatch,
                                                                 scores, chunk_lines, seed):
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    rs = _record_set(np.random.default_rng(seed), scores, frozenset())
    _assert_writer_matches_oracle(tmp_path, rs)
    back = read_records_csv(tmp_path / "records.csv")
    assert back.yhat.tolist() == [1] * len(scores)
    assert all(v > 0.5 for v in back.score.tolist())


def test_estimate_reads_a_score_just_above_one_half(tmp_path, capsys):
    rs = sample_records(fig1_top_left(), 40, seed=3, with_scores=True)
    score = rs.score.copy()
    score[rs.yhat == 1] = _NEAR_HALF[0]
    path = tmp_path / "records.csv"
    write_records_csv(path, RecordSet(y=rs.y, a=rs.a, score=score, yhat=rs.yhat))
    assert main(["estimate", str(path)]) == 0
    assert capsys.readouterr().err == ""


#: Valid spellings of each label column's values that are not ``str(v)``,
#: mixed with canonical ones.
_MIXED_SPELLINGS = {
    "y": ("1", "+1", "-1", "01", "-01", "0_1", "\t1\t", " -1", "1"),
    "a": ("0", "+0", "1", "01", "-0", "0_1", "\t1", "00 ", "1"),
}
_MIXED_SPELLINGS["yhat"] = _MIXED_SPELLINGS["y"]
_MIXED_SPELLINGS["a_c"] = _MIXED_SPELLINGS["a"]


def _label_column_file(path, column, values):
    """One row per value, the value in ``column``; the other label columns
    canonical and the score column empty."""
    rows = []
    for value in values:
        row = {"y": "1", "a": "0", "a_c": "0", "score": "", "yhat": "-1", column: value}
        rows.append(",".join(row[name] for name in RECORD_CSV_HEADER))
    path.write_text(CSV_HEADER + "\n".join(rows) + "\n")


@READERS
@pytest.mark.parametrize("column", sorted(_MIXED_SPELLINGS))
def test_csv_label_columns_mix_spellings(tmp_path, column, read):
    path = tmp_path / "records.csv"
    _label_column_file(path, column, _MIXED_SPELLINGS[column])
    got, want = read(path), oracle_read_records_csv(path)
    assert getattr(got, column).tolist() == getattr(want, column).tolist()
    assert len(set(getattr(got, column).tolist())) == 2


@READERS
@pytest.mark.parametrize("column", sorted(_MIXED_SPELLINGS))
@pytest.mark.parametrize("tail, line, what", [
    (("x",), 11, "bad value in column {}: 'x'"),
    (("2",), 11, "{} must be"),
    (("-2",), 11, "{} must be"),
    # the first line at fault is reported
    (("2", "x"), 11, "{} must be"),
    (("x", "2"), 11, "bad value in column {}: 'x'"),
])
def test_csv_bad_label_after_mixed_spellings(tmp_path, column, read, tail, line, what):
    path = tmp_path / "records.csv"
    _label_column_file(path, column, _MIXED_SPELLINGS[column] + tail + ("1",))
    with pytest.raises(RecordsError) as info:
        read(path)
    assert f"{path}:{line}: " in str(info.value)
    assert what.format(column) in str(info.value)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("n", [1, 70_000])
@_ABSENT
def test_csv_in_the_writers_form_is_read_by_numpy(tmp_path, line_reads, sampled_70000,
                                                    absent, n, eol):
    rs = RecordSet(**{name: None if name in absent else getattr(sampled_70000, name)[:n]
                      for name in RECORD_CSV_HEADER})
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
    back = read_records_csv(path)
    assert not line_reads
    _assert_reads_back(rs, back)


@pytest.mark.parametrize("text", [
    " y , a , a_c , score , yhat\t\n1,0,,0.75,1\n-1,1,,0.25,-1\n",
    CSV_HEADER + "\n\n1,0,,0.75,1\n\n-1,1,,0.25,-1",
    (CSV_HEADER + "\n1,0,,0.75,1\n-1,1,,0.25,-1\n").replace("\n", "\r\n"),
    "y, a, a_c, score, yhat\n1, 0, , 0.75, 1\n-1, 1, , 0.25, -1\n",
    CSV_HEADER + "1,0,\t\v\f,0.75,1\n-1,1,   ,0.25,-1\r\n",
    CSV_HEADER + "\t1 ,0\f,,\v0.75,1 \n-1,1,,0.25,-1\n",
    CSV_HEADER.replace("\n", "\r\n") + "1,0,,0.75,1\n-1,1,,0.25,-1\n",
], ids=["padded-header", "blank-lines-first", "CRLF-blank-line", "comma-space",
        "empty-column-padded", "padded-fields", "CRLF-ends-only-the-header"])
def test_csv_padding_and_blank_lines_are_read_by_numpy(tmp_path, line_reads, text):
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    back = read_records_csv(path)
    assert not line_reads
    assert back.y.tolist() == [1, -1] and back.a.tolist() == [0, 1] and back.a_c is None
    assert back.score.tolist() == [0.75, 0.25] and back.yhat.tolist() == [1, -1]


@pytest.mark.parametrize("second_line, accepted", [
    ("-1,1,,0.25\r,-1\n", True),
    ("-1,1,,0.25,-1\r1,0,,0.75,1\n", False),
    ("-1,1,,0.25,-1\r", True),
    ("-1,1, \t  ,0.25,-1\n", True),
    ("-1,1,    1,0.25,-1\n", False),
    ("-1,1,,0.25,-1\x1c\n", False),
    ("-1.0,1,,0.25,-1\n", False),
    ("-1,1,,0.25,-1,\n", False),
], ids=["lone-CR-in-a-field", "lone-CR-between-rows", "lone-CR-as-the-last-byte",
        "empty-column-padded-to-the-cut", "value-past-the-cut", "1-x1c", "label-1.0",
        "6-fields"])
def test_csv_outside_the_numpy_form_is_read_line_by_line(tmp_path, line_reads,
                                                         second_line, accepted):
    path = tmp_path / "records.csv"
    path.write_bytes((CSV_HEADER + "1,0,,0.75,1\n" + second_line).encode())
    if accepted:
        back = read_records_csv(path)
        assert back.y.tolist() == [1, -1] and back.a_c is None
        assert back.score.tolist() == [0.75, 0.25]
    else:
        with pytest.raises(RecordsError, match=f"{path}:3: "):
            read_records_csv(path)
    assert line_reads == [path]


@pytest.fixture
def piped():
    """Puts bytes into a pipe and returns the /dev/fd path of its read end."""
    ends = []

    def pipe(data: bytes) -> str:
        r, w = os.pipe()
        ends.append(r)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)  # under the pipe's 64 KiB buffer, so it never blocks
        return f"/dev/fd/{r}"

    yield pipe
    for fd in ends:
        os.close(fd)


def _piped_sample(tmp_path):
    rs = oracle_sample_records(fig1_top_left(), 300, seed=39,
                               spec=PerturbationSpec.uniform(0.2), with_scores=True)
    path = tmp_path / "records.csv"
    write_records_csv(path, rs)
    return rs, path


def test_csv_on_a_pipe_is_read_by_numpy_and_returns_every_row(tmp_path, line_reads, piped):
    # np.loadtxt reads the bytes already taken from the pipe, not the path
    rs, path = _piped_sample(tmp_path)
    fd_path = piped(path.read_bytes())
    back = read_records_csv(fd_path)
    assert not line_reads
    _assert_reads_back(rs, back)


def test_csv_on_a_pipe_names_the_line_at_fault(tmp_path, line_reads, piped):
    rs, path = _piped_sample(tmp_path)
    fd_path = piped(path.read_bytes() + b"-1,1,0,1.5,1\n")  # np.loadtxt reads it
    with pytest.raises(RecordsError, match=re.escape(
            f"{fd_path}:{rs.n + 2}: score must be finite and lie in [0, 1], got '1.5'")):
        read_records_csv(fd_path)
    assert line_reads == [fd_path]


def test_estimate_reads_the_same_records_from_a_pipe(tmp_path, capsys, piped):
    _, path = _piped_sample(tmp_path)
    assert main(["estimate", str(path)]) == 0
    by_path = capsys.readouterr().out
    assert main(["estimate", piped(path.read_bytes())]) == 0
    assert capsys.readouterr().out == by_path


def test_csv_with_a_utf8_bom_is_read_by_numpy(tmp_path, capsys, line_reads):
    rs, path = _piped_sample(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    back = read_records_csv(bom)
    assert not line_reads
    _assert_reads_back(rs, back)
    assert main(["estimate", str(path)]) == 0
    plain = capsys.readouterr().out
    assert main(["estimate", str(bom)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("fault, what", [
    ("-1,1,,1.5,-1", "score must be finite and lie in [0, 1], got '1.5'"),  # numpy reads it
    ("-1,1,,nan,-1", "score must be finite and lie in [0, 1], got 'nan'"),
])
def test_csv_with_a_utf8_bom_names_the_line_at_fault(tmp_path, line_reads, fault, what):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + (CSV_HEADER + f"1,0,,0.75,1\n{fault}\n").encode())
    with pytest.raises(RecordsError, match=re.escape(f"{path}:3: {what}")):
        read_records_csv(path)
    assert line_reads == [path]
