import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonoise import (
    DegenerateProgramError,
    DerivedPredictor,
    EmptyCellError,
    PerturbationSpec,
    ProblemInstance,
    RangeError,
    bias_derived,
    bias_given,
    bias_shrink_factor,
    check_flip_budget,
    check_flip_independence,
    corrupted_bias_bound,
    derive_predictor,
    error_derived,
    error_given,
    independence_measure,
    sample_records,
)
from eonoise.lp import EoProgram
from eonoise.metrics import (
    bias_at,
    check_classifier_informative,
    check_flip_budget_grid,
    corrupted_bias_bound_grid,
    error_at,
)
import metrics_oracle
from metrics_oracle import PreconditionError, balanced_uniform_predictor
from support import (
    BALANCED,
    fig1_top_left,
    counterexample_instance,
    counterexample_spec,
    population_fourway,
    random_balanced_informative,
    random_instance,
)


def _predictor(p):
    return DerivedPredictor(p=tuple(p))


# ---------------------------------------------------------------- bias/error

def test_bias_given_values():
    inst = fig1_top_left()
    assert bias_given(inst, 1) == pytest.approx(0.1, abs=1e-12)
    assert bias_given(inst, -1) == pytest.approx(0.3, abs=1e-12)
    flat = ProblemInstance(base=BALANCED, alpha1=0.6, beta1=0.2, alpha2=0.3, beta2=0.3)
    assert bias_given(flat, -1) == 0.0
    assert bias_given(counterexample_instance(), 1) == pytest.approx(0.05, abs=1e-12)


def test_bias_given_is_the_rate_gap_bit_for_bit():
    # bias_given runs bias_at at GIVEN_PREDICTOR_P; multiplying by 1.0 and
    # adding 0.0 must leave |h0 - h1| exactly as it is
    rng = np.random.default_rng(63)
    rates = np.where(rng.random((20_000, 4)) < 0.1, rng.choice([0.0, 1.0, 5e-324], size=(20_000, 4)),
                     rng.random((20_000, 4)))
    for row in rates.tolist():
        inst = ProblemInstance(BALANCED, *row)
        for y in (1, -1):
            want = abs(inst.rate(y, 0) - inst.rate(y, 1))
            assert float.hex(bias_given(inst, y)) == float.hex(want)


def test_bias_derived_reduces_to_given_for_identity_predictor():
    rng = np.random.default_rng(21)
    for _ in range(50):
        inst = random_instance(rng)
        identity = _predictor((1.0, 1.0, 0.0, 0.0))
        for y in (1, -1):
            assert bias_derived(inst, identity, y) == pytest.approx(bias_given(inst, y), abs=1e-12)


def test_constant_predictor_has_zero_bias():
    inst = fig1_top_left()
    for c in (0.0, 0.37, 1.0):
        pred = _predictor((c, c, c, c))
        assert bias_derived(inst, pred, 1) == pytest.approx(0.0, abs=1e-12)
        assert bias_derived(inst, pred, -1) == pytest.approx(0.0, abs=1e-12)


def test_clean_derived_predictor_is_unbiased():
    rng = np.random.default_rng(22)
    for _ in range(100):
        inst = random_instance(rng)
        pred = derive_predictor(inst)
        for y in (1, -1):
            assert bias_derived(inst, pred, y) <= 1e-9


def test_error_given_values():
    inst = fig1_top_left()
    assert error_given(inst) == pytest.approx(0.2, abs=1e-12)
    perfect = ProblemInstance(base=BALANCED, alpha1=1.0, beta1=1.0, alpha2=0.0, beta2=0.0)
    assert error_given(perfect) == pytest.approx(0.0, abs=1e-12)
    anti = ProblemInstance(base=BALANCED, alpha1=0.0, beta1=0.0, alpha2=1.0, beta2=1.0)
    assert error_given(anti) == pytest.approx(1.0, abs=1e-12)


def _mc_error(inst, predictor, n, seed):
    """Monte Carlo oracle: simulate the generative model and the predictor's
    coin, count disagreements."""
    rs = sample_records(inst, n, seed)
    rng = np.random.default_rng(seed + 1)
    flat = (rs.yhat == -1).astype(int) * 2 + rs.a
    p = np.asarray(predictor.p)[flat]
    out = rng.random(n) < p
    return float(np.where(rs.y == 1, ~out, out).mean())


def test_error_given_against_monte_carlo():
    inst = fig1_top_left()
    mc = _mc_error(inst, _predictor((1.0, 1.0, 0.0, 0.0)), 1_000_000, 101)
    assert error_given(inst) == pytest.approx(mc, abs=0.002)


def test_error_derived_identities():
    rng = np.random.default_rng(24)
    for _ in range(50):
        inst = random_instance(rng)
        assert error_derived(inst, _predictor((1.0, 1.0, 0.0, 0.0))) == pytest.approx(
            error_given(inst), abs=1e-12)
        assert error_derived(inst, _predictor((1.0,) * 4)) == pytest.approx(
            inst.label_prob(-1), abs=1e-12)


def test_error_derived_against_monte_carlo():
    rng = np.random.default_rng(25)
    inst = random_instance(rng)
    pred = _predictor(tuple(rng.uniform(0, 1, size=4)))
    mc = _mc_error(inst, pred, 1_000_000, 202)
    assert error_derived(inst, pred) == pytest.approx(mc, abs=0.002)


# ------------------------------------------------------------- shrink factor

def test_shrink_factor_reference_points():
    assert bias_shrink_factor(0.0, 0.0, 0.123) == 0.0
    assert bias_shrink_factor(0.3, 0.7, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert bias_shrink_factor(0.2, 0.3, 0.5) == pytest.approx(0.494949494949495, abs=1e-12)


def test_shrink_factor_domain():
    for bad in ((1.0, 0.2, 0.5), (0.2, 1.0, 0.5), (-0.1, 0.2, 0.5),
                (0.2, 0.3, 0.0), (0.2, 0.3, 1.0)):
        with pytest.raises(RangeError, match=re.escape(f"{bad} outside [0,1) x [0,1) x (0,1)")):
            bias_shrink_factor(*bad)


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=300, deadline=None)
def test_shrink_factor_range_and_symmetry(g1, g2, p):
    value = bias_shrink_factor(g1, g2, p)
    assert 0.0 <= value <= 2.0
    assert value == pytest.approx(bias_shrink_factor(g2, g1, 1.0 - p), abs=1e-12)
    if g1 + g2 < 1.0 - 1e-12:
        assert value < 1.0


def _plain_shrink(g1, g2, p):
    """The shrink factor's formula as written, which loses the second ratio
    where one of its products underflows."""
    first = g1 * p / (g1 * p + (1.0 - g2) * (1.0 - p))
    return first - (1.0 - g1) * p / ((1.0 - g1) * p + g2 * (1.0 - p)) + 1.0


def _exact_shrink(g1, g2, p):
    g1, g2, p = Fraction(g1), Fraction(g2), Fraction(p)
    return g1 * p / (g1 * p + (1 - g2) * (1 - p)) - (1 - g1) * p / ((1 - g1) * p + g2 * (1 - p)) + 1


def _underflows(x, y):
    """Whether the exact product of two floats is nonzero and below the
    smallest normal float, 2**-1022."""
    return 0 < Fraction(x) * Fraction(y) < Fraction(2) ** -1022


_UNIT = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0 ** -53]),
                  st.floats(0.0, 1.0, exclude_max=True))


@given(_UNIT, _UNIT, _UNIT.filter(lambda p: p > 0.0))
@example(0.6, 0.0, 5e-324)
@example(1.0 - 2.0 ** -53, 0.0, 5e-324)
@example(0.6, 5e-324, 5e-324)
@settings(max_examples=300, deadline=None)
def test_shrink_factor_is_the_plain_formula_unless_a_product_underflows(g1, g2, p):
    value = bias_shrink_factor(g1, g2, p)
    if _underflows(1.0 - g1, p) or _underflows(g2, 1.0 - p):
        assert abs(float(Fraction(value) - _exact_shrink(g1, g2, p))) <= 1e-15
    else:
        assert value.hex() == _plain_shrink(g1, g2, p).hex()


def test_bound_where_the_shrink_factor_denominator_underflows():
    # (1 - 0.9) * P[A=1 | Y=+1] rounds to 0, and group 0 of label +1 never flips
    inst = ProblemInstance(base=(0.5, 5e-324, 0.25, 0.25), alpha1=0.9, beta1=0.8,
                           alpha2=0.4, beta2=0.1)
    bound = corrupted_bias_bound(inst, PerturbationSpec.restricted(0, 0.9, 0, 0), 1)
    assert 0.0 <= bound <= bias_given(inst, 1)
    flips = (np.zeros(1), np.full(1, 0.9), np.zeros(1), np.zeros(1))
    assert corrupted_bias_bound_grid(inst, flips, 1).tolist() == [bound]


# --------------------------------------------------------------------- bound

def test_bound_zero_spec_is_zero():
    inst = fig1_top_left()
    assert corrupted_bias_bound(inst, PerturbationSpec.uniform(0.0), 1) == 0.0


def test_bound_equals_given_bias_on_budget_boundary():
    inst = fig1_top_left()
    spec = PerturbationSpec.restricted(0.4, 0.6, 0.25, 0.75)
    for y in (1, -1):
        assert corrupted_bias_bound(inst, spec, y) == pytest.approx(
            bias_given(inst, y), abs=1e-12)


def test_bound_dominates_bias_curve_on_reference_sweep():
    inst = fig1_top_left()
    for gamma in np.arange(0.0, 0.51, 0.05):
        spec = PerturbationSpec.uniform(float(gamma))
        pred = derive_predictor(inst, spec)
        assert bias_derived(inst, pred, 1) <= corrupted_bias_bound(inst, spec, 1) + 1e-9


def test_bound_requires_restricted_spec():
    with pytest.raises(RangeError, match="defined for prediction-independent flips only"):
        corrupted_bias_bound(counterexample_instance(), counterexample_spec(), 1)


def test_bias_vanishes_with_noise():
    inst = fig1_top_left()
    previous = np.inf
    for k in range(1, 21):
        gamma = 0.4 / 2**k
        spec = PerturbationSpec.uniform(gamma)
        bound = corrupted_bias_bound(inst, spec, 1)
        assert bound <= previous + 1e-15
        assert bias_derived(inst, derive_predictor(inst, spec), 1) <= bound + 1e-9
        previous = bound
    assert previous < 1e-6


# ---------------------------------------------------------------- assumptions

def test_flip_independence_checker():
    ok, gap = check_flip_independence(PerturbationSpec.uniform(0.3))
    assert ok and gap == 0.0
    ok, gap = check_flip_independence(counterexample_spec())
    assert not ok
    assert gap == pytest.approx(0.15, abs=1e-12)
    nearly = PerturbationSpec.general({(1, 0, 1): 1e-15})
    ok, gap = check_flip_independence(nearly)
    assert ok and gap <= 1e-12


def test_flip_budget_checker():
    assert check_flip_budget(PerturbationSpec.restricted(0.3, 0.4, 0.0, 0.0), 1)
    assert not check_flip_budget(PerturbationSpec.restricted(0.6, 0.6, 0.0, 0.0), 1)
    assert not check_flip_budget(PerturbationSpec.restricted(0.0, 1.0, 0.0, 0.0), 1)
    assert check_flip_budget(PerturbationSpec.restricted(0.6, 0.6, 0.2, 0.2), -1)


def test_flip_budget_of_a_general_spec_is_a_range_error():
    with pytest.raises(RangeError) as excinfo:
        check_flip_budget(counterexample_spec(), 1)
    assert excinfo.type is RangeError
    assert str(excinfo.value) == "flip budget is defined for prediction-independent flips only"


def test_general_spec_with_equal_pairs_gets_the_restricted_bound_and_budget():
    rates = (0.6, 0.7, 0.35, 0.05)
    general = PerturbationSpec("general", tuple(g for g in rates for _ in (1, -1)))
    restricted = PerturbationSpec.restricted(*rates)
    assert general.kind == "restricted" and general == restricted
    inst = fig1_top_left()
    for y in (1, -1):
        assert (corrupted_bias_bound(inst, general, y).hex()
                == corrupted_bias_bound(inst, restricted, y).hex())
        assert check_flip_budget(general, y) is check_flip_budget(restricted, y)
    assert [check_flip_budget(general, y) for y in (1, -1)] == [False, True]


@pytest.mark.parametrize("call, message", [
    (lambda spec: corrupted_bias_bound(fig1_top_left(), spec, 1),
     "bias bound is defined for prediction-independent flips only"),
    (lambda spec: check_flip_budget(spec, 1),
     "flip budget is defined for prediction-independent flips only"),
], ids=["bound", "budget"])
def test_one_unequal_pair_keeps_the_pinned_messages(call, message):
    # label +1's pairs are equal; label -1's second pair is one ulp apart
    spec = PerturbationSpec("general", (0.2, 0.2, 0.1, 0.1, 0.3, 0.3, 0.4, math.nextafter(0.4, 1)))
    with pytest.raises(RangeError) as excinfo:
        call(spec)
    assert excinfo.type is RangeError and str(excinfo.value) == message


def test_informative_classifier_checker():
    assert check_classifier_informative(fig1_top_left())
    bottom_left = ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.6, alpha2=0.3, beta2=0.8)
    assert not check_classifier_informative(bottom_left)
    tie = ProblemInstance(base=BALANCED, alpha1=0.5, beta1=0.8, alpha2=0.5, beta2=0.2)
    assert not check_classifier_informative(tie)


# ---------------------------------------------------------- independence gap

def test_independence_measure_zero_under_independence():
    inst = fig1_top_left()
    table = population_fourway(inst, PerturbationSpec.restricted(0.2, 0.4, 0.1, 0.3))
    assert independence_measure(table) <= 1e-12


def test_independence_measure_positive_for_counterexample():
    table = population_fourway(counterexample_instance(), counterexample_spec())
    value = independence_measure(table)
    assert value > 0.01
    # the only dependent cell is (Y=+1, A=0): gap = 0.65 * 0.0525
    assert value == pytest.approx(0.65 * 0.0525, abs=1e-12)


def test_independence_measure_bounded():
    rng = np.random.default_rng(31)
    for _ in range(50):
        table = rng.random((2, 2, 2, 2))
        assert 0.0 <= independence_measure(table) <= 1.0


def test_independence_measure_rejects_a_three_axis_table():
    with pytest.raises(RangeError) as excinfo:
        independence_measure(np.ones((2, 2, 2)))
    assert excinfo.type is RangeError
    assert str(excinfo.value) == "table must be (2, 2, 2, 2), got (2, 2, 2)"


def test_independence_measure_empty_cell():
    table = np.ones((2, 2, 2, 2))
    table[1, 0] = 0.0
    with pytest.raises(EmptyCellError):
        independence_measure(table)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_independence_measure_rejects_bad_cell(bad):
    # a non-finite cell gives nan gaps, which max() drops, so the measure
    # would read 0.0
    table = np.ones((2, 2, 2, 2))
    table[0, 1, 1, 0] = bad
    with pytest.raises(RangeError, match="finite and nonnegative"):
        independence_measure(table)


# ------------------------------------------------------- balanced closed form

def test_balanced_preconditions():
    with pytest.raises(PreconditionError):
        balanced_uniform_predictor(
            ProblemInstance(base=(0.3, 0.2, 0.3, 0.2), alpha1=0.9, beta1=0.8,
                            alpha2=0.4, beta2=0.1), 0.2)
    with pytest.raises(PreconditionError):
        balanced_uniform_predictor(
            ProblemInstance(base=BALANCED, alpha1=0.4, beta1=0.8, alpha2=0.5, beta2=0.1), 0.2)
    with pytest.raises(PreconditionError):
        balanced_uniform_predictor(fig1_top_left(), 0.6)


def test_balanced_unbiased_collapses_to_given():
    inst = ProblemInstance(base=BALANCED, alpha1=0.8, beta1=0.8, alpha2=0.3, beta2=0.3)
    for gamma in (0.0, 0.2, 0.5):
        pred = balanced_uniform_predictor(inst, gamma)
        assert bias_derived(inst, pred, 1) == pytest.approx(bias_given(inst, 1), abs=1e-12)
        assert error_derived(inst, pred) == pytest.approx(error_given(inst), abs=1e-12)


def test_balanced_matches_lp_solver():
    rng = np.random.default_rng(33)
    for _ in range(100):
        inst = random_balanced_informative(rng)
        gamma = float(rng.uniform(0.0, 0.5))
        closed = balanced_uniform_predictor(inst, gamma)
        via_lp = derive_predictor(inst, PerturbationSpec.uniform(gamma))
        for y in (1, -1):
            assert bias_derived(inst, closed, y) == pytest.approx(
                bias_derived(inst, via_lp, y), abs=1e-9)
        assert error_derived(inst, closed) == pytest.approx(
            error_derived(inst, via_lp), abs=1e-9)


def test_balanced_error_gain_closed_form():
    # group-0 gap smaller than group-1 gap, so the "first rate pinned to one"
    # branch applies and the error gain has an explicit formula
    inst = ProblemInstance(base=BALANCED, alpha1=0.6, beta1=0.9, alpha2=0.4, beta2=0.3)
    a1, b1, a2, b2 = inst.alpha1, inst.beta1, inst.alpha2, inst.beta2
    clean_error = error_derived(inst, balanced_uniform_predictor(inst, 0.0))
    for gamma in (0.1, 0.25, 0.4, 0.5):
        corr_error = error_derived(inst, balanced_uniform_predictor(inst, gamma))
        v = 0.5 * ((1 - gamma) * (b2 - b1) + gamma * (a2 - a1))
        expected = gamma / 4.0 * ((a2 - a1) ** 2 - (b2 - b1) ** 2) / (2.0 * v)
        assert clean_error - corr_error == pytest.approx(expected, abs=1e-12)
        assert expected > 0.0


def test_balanced_infeasible_closed_form_raises(monkeypatch):
    # every row asks group 0 for the positive rate 0.9 and group 1 for 0.1;
    # the closed form is built for the real program, so it violates this one
    skewed = EoProgram(objective=(0.0,) * 4, rates=((0.9, 0.1),) * 2)
    monkeypatch.setattr(metrics_oracle, "build_corrupted_program", lambda inst, spec: skewed)
    inst = ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.6, alpha2=0.4, beta2=0.1)
    with pytest.raises(DegenerateProgramError):
        balanced_uniform_predictor(inst, 0.2)


def test_grid_metrics_match_the_scalar_functions_bit_for_bit():
    rng = np.random.default_rng(72)
    for _ in range(30):
        inst = random_instance(rng)
        p = np.where(rng.random((25, 4)) < 0.3, rng.choice([0.0, 1.0], size=(25, 4)),
                     rng.random((25, 4)))
        flips = np.where(rng.random((25, 4)) < 0.3, rng.choice([0.0, 0.5, 1.0], size=(25, 4)),
                         rng.random((25, 4)))
        predictors = [DerivedPredictor(tuple(row)) for row in p.tolist()]
        specs = [PerturbationSpec.restricted(*row) for row in flips.tolist()]
        columns = tuple(flips.T.copy())
        assert error_at(inst, *p.T).tolist() == [error_derived(inst, d) for d in predictors]
        for y in (1, -1):
            assert bias_at(inst, y, *p.T).tolist() == [
                bias_derived(inst, d, y) for d in predictors]
            assert check_flip_budget_grid(columns, y).tolist() == [
                check_flip_budget(s, y) for s in specs]
            want = [corrupted_bias_bound(inst, s, y) if s.gamma(y, 0) < 1.0 and s.gamma(y, 1) < 1.0
                    else None for s in specs]
            got = corrupted_bias_bound_grid(inst, columns, y).tolist()
            assert [None if math.isnan(b) else b for b in got] == want


def test_grid_bound_checks_the_group_share():
    inst = ProblemInstance(base=(1e-320, 0.3333333333333333, 0.3333333333333333,
                                 0.3333333333333334), alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)
    flips = (np.array([1.0, 0.25]),) * 4
    with pytest.raises(RangeError, match=re.escape("(0.25, 0.25, 1.0) outside")):
        corrupted_bias_bound_grid(inst, flips, 1)
    # no row inside the domain: nothing to check
    assert math.isnan(corrupted_bias_bound_grid(inst, (np.ones(1),) * 4, 1)[0])
