import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonoise import (
    EmptyCellError,
    PerturbationSpec,
    ProblemInstance,
    RangeError,
    bias_derived,
    bias_given,
    derive_predictor,
    error_derived,
    error_given,
    program_from_table,
)
from eonoise import programs
from eonoise.lp import EoProgram
from eonoise.model import CELLS, GENERAL_INDEX, GENERAL_KEYS
from eonoise.programs import build_clean_program, build_corrupted_joint, build_corrupted_program
from programs_oracle import restricted_corrupted_program
from support import (
    BALANCED,
    clean_cell,
    fig1_top_left,
    counterexample_instance,
    counterexample_spec,
    population_fourway,
    random_general,
    random_instance,
    random_restricted,
)

LABELS = (1, -1)


def _attr_posterior(inst, spec, y, ac):
    """P[A=1 | Y=y, corrupted attribute=ac] from the exact four-way table."""
    table = population_fourway(inst, spec)[LABELS.index(y), :, :, ac]
    return table[1].sum() / table.sum()


def test_clean_objective_sums_to_label_gap():
    rng = np.random.default_rng(2)
    for _ in range(100):
        inst = random_instance(rng)
        prog = build_clean_program(inst)
        assert sum(prog.objective) == pytest.approx(
            inst.label_prob(-1) - inst.label_prob(1), abs=1e-12)


def test_perfect_fair_classifier_untouched():
    inst = ProblemInstance(base=BALANCED, alpha1=1.0, beta1=1.0, alpha2=0.0, beta2=0.0)
    pred = derive_predictor(inst)
    assert pred.p[0] - pred.p[2] == pytest.approx(1.0, abs=1e-12)
    assert pred.p[1] - pred.p[3] == pytest.approx(1.0, abs=1e-12)
    assert bias_derived(inst, pred, 1) == pytest.approx(0.0, abs=1e-12)
    assert error_derived(inst, pred) == pytest.approx(0.0, abs=1e-12)


def test_clean_solution_has_zero_bias():
    inst = fig1_top_left()
    pred = derive_predictor(inst)
    assert bias_derived(inst, pred, 1) == pytest.approx(0.0, abs=1e-9)
    assert bias_derived(inst, pred, -1) == pytest.approx(0.0, abs=1e-9)


def test_zero_perturbation_joint_is_clean_table():
    inst = fig1_top_left()
    spec = PerturbationSpec.uniform(0.0)
    joint = np.array(build_corrupted_joint(inst, spec))
    for yi, y in enumerate(LABELS):
        for a in (0, 1):
            for yti, yt in enumerate(LABELS):
                assert joint[yi, a, yti] == pytest.approx(clean_cell(inst, y, a, yt), abs=1e-15)
            assert joint[yi, a, 0] / joint[yi, a].sum() == pytest.approx(inst.rate(y, a), abs=1e-12)
        assert _attr_posterior(inst, spec, y, 0) == 0.0
        assert _attr_posterior(inst, spec, y, 1) == 1.0


def test_pure_noise_erases_attribute_information():
    inst = fig1_top_left()
    spec = PerturbationSpec.uniform(0.5)
    for y in LABELS:
        for ac in (0, 1):
            assert _attr_posterior(inst, spec, y, ac) == pytest.approx(0.5, abs=1e-12)


def test_corrupted_joint_is_a_distribution():
    rng = np.random.default_rng(3)
    for _ in range(200):
        inst = random_instance(rng)
        for spec in (random_restricted(rng), random_general(rng)):
            joint = np.array(build_corrupted_joint(inst, spec))
            assert joint.shape == (2, 2, 2)
            assert (joint >= 0.0).all()
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        for zero in (PerturbationSpec.uniform(0.0), PerturbationSpec.general()):
            joint = build_corrupted_joint(inst, zero)
            for yi, y in enumerate(LABELS):
                for a in (0, 1):
                    for yti, yt in enumerate(LABELS):
                        assert joint[yi][a][yti] == clean_cell(inst, y, a, yt)


_RATES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _instances(draw):
    weights = draw(st.tuples(*[st.floats(0.01, 1.0)] * 4))
    return ProblemInstance(base=tuple(w / sum(weights) for w in weights), alpha1=draw(_RATES),
                           beta1=draw(_RATES), alpha2=draw(_RATES), beta2=draw(_RATES))


_SPECS = st.one_of(st.tuples(*[_RATES] * 4).map(lambda r: PerturbationSpec("restricted", r)),
                   st.tuples(*[_RATES] * 8).map(lambda r: PerturbationSpec("general", r)))


def _program_or_error(build):
    try:
        prog = build()
    except EmptyCellError as exc:
        return repr(exc)
    return repr((prog.objective, prog.rates, prog.rows))


def _oracle_program(joint):
    """Program of a nested (label, attribute, prediction) joint, spelled out:
    each prediction's and attribute's mass gap between the labels, and each
    (label, attribute) pair's positive rate."""
    rates = []
    for y, by_attr in zip(LABELS, joint):
        for a, (pos, neg) in enumerate(by_attr):
            if pos + neg <= 0.0:
                raise EmptyCellError(f"no mass at (Y={y}, training attribute={a})")
        rates.append([pos / (pos + neg) for pos, neg in by_attr])
    objective = [joint[1][a][yti] - joint[0][a][yti] for yti in (0, 1) for a in (0, 1)]
    return EoProgram(objective=objective, rates=rates)


@given(inst=_instances(), spec=_SPECS)
@example(inst=fig1_top_left(), spec=PerturbationSpec.restricted(1.0, 0.0, 0.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_joints_and_corrupted_program_match_the_cell_oracle_bit_for_bit(inst, spec):
    # repr tells every bit, a zero's sign and an error's message
    clean = [[[clean_cell(inst, y, a, yt) for yt in LABELS] for a in (0, 1)] for y in LABELS]
    assert repr(programs._clean_joint(inst)) == repr(clean)
    # the four-way table summed over the true attribute, as (label, corrupted, prediction)
    corrupted = population_fourway(inst, spec).sum(axis=1).transpose(0, 2, 1).tolist()
    assert repr(build_corrupted_joint(inst, spec)) == repr(corrupted)
    assert _program_or_error(lambda: build_corrupted_program(inst, spec)) == _program_or_error(
        lambda: _oracle_program(corrupted))


def test_counterexample_marginal_flip_rate():
    spec = counterexample_spec()
    inst = counterexample_instance()
    marginal = sum(
        spec.rates[GENERAL_INDEX[(1, 0, yt)]] * clean_cell(inst, 1, 0, yt) / inst.cell(1, 0)
        for yt in (1, -1)
    )
    assert marginal == pytest.approx(0.15 * 0.35, abs=1e-12)
    assert marginal == pytest.approx(0.0525, abs=1e-12)


def test_vanishing_corrupted_cell_raises():
    inst = fig1_top_left()
    with pytest.raises(EmptyCellError, match=re.escape("no mass at (Y=1, training attribute=0)")):
        build_corrupted_program(inst, PerturbationSpec.restricted(1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("cell", CELLS, ids=["y+1-a0", "y+1-a1", "y-1-a0", "y-1-a1"])
def test_other_vanishing_corrupted_cells_are_named(cell):
    # each builder names an empty (label, attribute) pair the same way
    message = re.escape("no mass at (Y={}, training attribute={})".format(*cell))
    # flipping all of one pair and nothing into it empties that pair
    rates = [1.0 if c == cell else 0.0 for c in CELLS]
    with pytest.raises(EmptyCellError, match=message):
        build_corrupted_program(fig1_top_left(), PerturbationSpec.restricted(*rates))
    table = np.ones((2, 2, 2))
    table[LABELS.index(cell[0]), cell[1]] = 0.0
    with pytest.raises(EmptyCellError, match=message):
        program_from_table(table)
    # a base cell of 5e-324 at rate 1/2 rounds to 0 in both of its joint cells
    base = [5e-324 if c == cell else 1 / 3 for c in CELLS]
    tiny = ProblemInstance(base=tuple(base), alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)
    with pytest.raises(EmptyCellError, match=message):
        build_clean_program(tiny)


def test_zero_perturbation_program_equals_clean():
    # the clean program is read off the clean joint, which a zero spec's
    # corrupted joint equals bit for bit
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = random_instance(rng)
        clean = _program_or_error(lambda: build_clean_program(inst))
        for zero in (PerturbationSpec.uniform(0.0), PerturbationSpec.general()):
            assert _program_or_error(lambda: build_corrupted_program(inst, zero)) == clean


def test_balanced_uniform_constraint_rates():
    inst = fig1_top_left()
    for gamma in (0.1, 0.3, 0.5):
        prog = build_corrupted_program(inst, PerturbationSpec.uniform(gamma))
        row_pos = prog.rows[0]
        assert row_pos[0] == pytest.approx((1 - gamma) * inst.alpha1 + gamma * inst.beta1, abs=1e-12)
        assert -row_pos[1] == pytest.approx((1 - gamma) * inst.beta1 + gamma * inst.alpha1, abs=1e-12)


def test_counterexample_predictor():
    pred = derive_predictor(counterexample_instance(), counterexample_spec())
    assert 0.82 <= pred.p[0] <= 0.84
    assert pred.p[1] == 1.0
    assert pred.p[2] == 0.0 and pred.p[3] == 0.0
    inst = counterexample_instance()
    assert bias_derived(inst, pred, 1) == pytest.approx(0.06, abs=0.005)
    assert bias_given(inst, 1) == pytest.approx(0.05, abs=1e-12)
    assert bias_derived(inst, pred, 1) > bias_given(inst, 1)


def test_restricted_closed_form_matches_general_path():
    rng = np.random.default_rng(6)
    for _ in range(200):
        inst = random_instance(rng)
        spec = random_restricted(rng)
        via_joint = build_corrupted_program(inst, spec)
        closed = restricted_corrupted_program(inst, spec)
        assert np.allclose(via_joint.objective, closed.objective, atol=1e-12)
        assert np.allclose(via_joint.rows, closed.rows, atol=1e-12)


def test_coefficients_continuous_in_flip_rates():
    rng = np.random.default_rng(8)
    step = 1e-6
    for _ in range(10):
        inst = random_instance(rng)
        gammas = rng.uniform(0.05, 0.9, size=4)
        base_prog = build_corrupted_program(inst, PerturbationSpec.restricted(*gammas))
        for k in range(4):
            bumped = gammas.copy()
            bumped[k] += step
            prog = build_corrupted_program(inst, PerturbationSpec.restricted(*bumped))
            diff = max(
                float(np.abs(np.subtract(prog.objective, base_prog.objective)).max()),
                float(np.abs(np.subtract(prog.rows, base_prog.rows)).max()),
            )
            assert diff <= 1e-3


def test_unbiased_informative_classifier_kept():
    inst = ProblemInstance(base=(0.3, 0.2, 0.3, 0.2), alpha1=0.9, beta1=0.9,
                           alpha2=0.4, beta2=0.4)
    pred = derive_predictor(inst)
    assert bias_derived(inst, pred, 1) == pytest.approx(bias_given(inst, 1), abs=1e-9)
    assert error_derived(inst, pred) == pytest.approx(error_given(inst), abs=1e-9)


def test_zero_spec_equivalent_to_no_spec():
    rng = np.random.default_rng(9)
    for _ in range(20):
        inst = random_instance(rng)
        zero = PerturbationSpec.uniform(0.0)
        # a zero spec's corrupted program is the clean program, bit for bit
        assert _program_or_error(lambda: build_corrupted_program(inst, zero)) == _program_or_error(
            lambda: build_clean_program(inst))
        none_pred = derive_predictor(inst, None)
        zero_pred = derive_predictor(inst, zero)
        assert none_pred.p == zero_pred.p
        for y in (1, -1):
            assert bias_derived(inst, none_pred, y) == pytest.approx(
                bias_derived(inst, zero_pred, y), abs=1e-12)
        assert error_derived(inst, none_pred) == pytest.approx(
            error_derived(inst, zero_pred), abs=1e-12)


def test_half_noise_returns_given_classifier_metrics():
    inst = fig1_top_left()
    pred = derive_predictor(inst, PerturbationSpec.uniform(0.5))
    assert bias_derived(inst, pred, 1) == pytest.approx(bias_given(inst, 1), abs=1e-9)
    assert bias_derived(inst, pred, -1) == pytest.approx(bias_given(inst, -1), abs=1e-9)
    assert error_derived(inst, pred) == pytest.approx(error_given(inst), abs=1e-9)


def test_program_from_table_matches_exact_joint():
    inst = fig1_top_left()
    spec = PerturbationSpec.restricted(0.2, 0.1, 0.3, 0.05)
    # counts-like scaling must not matter
    scaled = np.array(build_corrupted_joint(inst, spec)) * 12345.0
    prog = program_from_table(scaled)
    ref = build_corrupted_program(inst, spec)
    assert np.allclose(prog.objective, ref.objective, atol=1e-12)
    assert np.allclose(prog.rows, ref.rows, atol=1e-12)


def test_program_from_table_empty_cell():
    table = np.ones((2, 2, 2))
    table[0, 1] = 0.0
    with pytest.raises(EmptyCellError) as excinfo:
        program_from_table(table)
    assert str(excinfo.value) == "no mass at (Y=1, training attribute=1)"


def _one_huge_cell(tiny, huge):
    table = np.full((2, 2, 2), tiny)
    table[1, 0, 0] = huge
    return table


@pytest.mark.parametrize("table", [_one_huge_cell(1e-170, 1e170), _one_huge_cell(1e-300, 1e308)],
                         ids=["1e-170-by-1e170", "1e-300-by-1e308"])
def test_program_from_table_names_a_pair_whose_share_underflows(table):
    # every pair holds mass, but the first one's share of the total rounds to 0
    with pytest.raises(RangeError) as excinfo:
        program_from_table(table)
    assert excinfo.type is RangeError
    assert str(excinfo.value) == "share of (Y=1, training attribute=0) underflows to 0"


@pytest.mark.parametrize("table, cls, message", [
    (np.ones((2, 2)), RangeError, "table must be (2, 2, 2), got (2, 2)"),
    (np.zeros((2, 2, 2)), EmptyCellError, "table carries no mass"),
], ids=["shape", "no-mass"])
def test_program_from_table_error_messages(table, cls, message):
    with pytest.raises(cls) as excinfo:
        program_from_table(table)
    assert excinfo.type is cls and str(excinfo.value) == message


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_program_from_table_rejects_bad_cell(bad):
    table = np.ones((2, 2, 2))
    table[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on the cell
        with pytest.raises(RangeError, match="finite and nonnegative"):
            program_from_table(table)


@pytest.mark.parametrize("table, scaled", [
    (np.full((2, 2, 2), 1e308), np.ones((2, 2, 2))),
    (np.arange(1.0, 9.0).reshape(2, 2, 2) * 2.0**1020, np.arange(1.0, 9.0).reshape(2, 2, 2)),
], ids=["uniform", "graded"])
def test_program_from_table_whose_total_overflows(table, scaled):
    # finite cells whose sum is inf: the table is scaled by a power of two,
    # which is exact, so the program is that of the scaled-down table
    assert np.isfinite(table).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prog = program_from_table(table)
    ref = program_from_table(scaled)
    assert repr((prog.objective, prog.rates, prog.rows)) == repr((ref.objective, ref.rates, ref.rows))


def _grid_flips(rng, n=40):
    """Four flip-rate columns in CELLS order with 0, 1/2 and 1 mixed in, and
    an all-zero first row."""
    flips = np.where(rng.random((n, 4)) < 0.3, rng.choice([0.0, 0.5, 1.0], size=(n, 4)),
                     rng.uniform(0.0, 0.97, size=(n, 4)))
    flips[0] = 0.0
    return tuple(flips.T.copy())


def test_grid_programs_match_the_per_row_builders():
    rng = np.random.default_rng(71)
    for _ in range(30):
        inst = random_instance(rng)
        flips = _grid_flips(rng)
        want = []
        for row in np.stack(flips, axis=1).tolist():
            try:
                want.append(build_corrupted_program(inst, PerturbationSpec.restricted(*row)))
            except EmptyCellError as exc:  # the grid names the row by its first flip rate
                message = f"at gamma10 = {row[0]:.12g}, {exc}"
                with pytest.raises(EmptyCellError, match=f"^{re.escape(message)}$"):
                    next(programs.grid_programs(inst, flips))
                break
        else:
            assert list(programs.grid_programs(inst, flips)) == want


def test_grid_programs_name_the_first_empty_cell_and_zero_rows_are_checked():
    # the clean joint's cells round to 0 at this base, so a zero-flip row,
    # the clean program and the clean predictor all name the empty pair,
    # and nothing warns
    tiny = ProblemInstance(base=(5e-324, 5e-324, 0.5, 0.5),
                           alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)
    zero = np.zeros(2)
    message = "no mass at (Y=1, training attribute=0)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, prefix in ((lambda: next(programs.grid_programs(tiny, (zero,) * 4)),
                               "at gamma10 = 0, "),
                              (lambda: build_clean_program(tiny), ""),
                              (lambda: derive_predictor(tiny), "")):
            with pytest.raises(EmptyCellError, match=f"^{re.escape(prefix + message)}$"):
                build()
    # the third row is the first at fault
    flips = tuple(np.array(column) for column in
                  ([0.0, 0.2, 1.0, 0.0], [0.0, 0.2, 0.0, 1.0], [0.0] * 4, [0.0] * 4))
    with pytest.raises(EmptyCellError, match=f"^{re.escape('at gamma10 = 1, ' + message)}$"):
        next(programs.grid_programs(fig1_top_left(), flips))


def _swap_groups(inst, spec):
    """The instance and spec with attribute groups 0 and 1 swapped: base
    (b1, b0, b3, b2), alpha and beta traded per label, and the eight flip
    rates permuted by (y, 1 - a, yt)."""
    b0, b1, b2, b3 = inst.base
    swapped = ProblemInstance(base=(b1, b0, b3, b2), alpha1=inst.beta1, beta1=inst.alpha1,
                              alpha2=inst.beta2, beta2=inst.alpha2)
    return swapped, PerturbationSpec("general", tuple(spec.rates[GENERAL_INDEX[(y, 1 - a, yt)]]
                                                      for y, a, yt in GENERAL_KEYS))


def test_derived_metrics_are_unchanged_when_the_groups_swap():
    # 2,000 pairs drawn like perfbench's derive-single inputs: classifier
    # rates often 0, 1/2 or 1, a quarter uninformative, half the specs
    # general, every flip rate in [0, 0.5]; every eighth spec is zero, whose
    # program is the clean one.  Tied solves are among them.  No oracle.
    rng = np.random.default_rng(27027)
    n = 2000
    base = rng.uniform(0.01, 1.0, size=(n, 4))
    base /= base.sum(axis=1, keepdims=True)
    special = np.array([0.0, 0.5, 1.0])[rng.integers(0, 3, size=(n, 4))]
    rates = np.where(rng.random((n, 4)) < 0.5, special, rng.random((n, 4)))
    rates[: n // 4, 2:] = rates[: n // 4, :2]
    flips = rng.uniform(0.0, 0.5, size=(n, 8))
    flips[::8] = 0.0
    for i in range(n):
        inst = ProblemInstance(base=tuple(base[i].tolist()), alpha1=rates[i, 0], beta1=rates[i, 1],
                               alpha2=rates[i, 2], beta2=rates[i, 3])
        spec = (PerturbationSpec("general", flips[i].tolist()) if i % 2
                else PerturbationSpec.restricted(*flips[i, :4].tolist()))
        swapped, swapped_spec = _swap_groups(inst, spec)
        pred, swapped_pred = derive_predictor(inst, spec), derive_predictor(swapped, swapped_spec)
        for y in LABELS:
            assert abs(bias_derived(inst, pred, y) - bias_derived(swapped, swapped_pred, y)) <= 1e-12
        assert abs(error_derived(inst, pred) - error_derived(swapped, swapped_pred)) <= 1e-12
