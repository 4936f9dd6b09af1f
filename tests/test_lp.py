import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonoise import PerturbationSpec, ProblemInstance, RangeError, derive_predictor, solve
from eonoise.lp import RESIDUAL_TOL, EoProgram, _pick, solve_with_ties
from eonoise.programs import build_clean_program, build_corrupted_program
import lp_oracle
from exact_oracle import exact_minimum
from grid_oracle import grid_minimum
from support import (
    counterexample_instance,
    counterexample_spec,
    random_instance,
    random_program,
)


def _program(h):
    """Valid program with zero objective and rates h = ((h0,h1), (h0,h1))."""
    return EoProgram(objective=(0.0, 0.0, 0.0, 0.0), rates=h)


@pytest.mark.parametrize("objective, rates", [
    ((0.0,) * 4, ((1.2, 0.5), (0.5, 0.5))),
    ((0.0,) * 4, ((0.5, -1e-12), (0.5, 0.5))),
    ((0.0,) * 4, ((0.5, 0.5), (0.5, float("nan")))),
    ((0.0,) * 3, ((0.5, 0.5), (0.5, 0.5))),
    ((0.0,) * 4, ((0.5, 0.5),)),
    ((0.0,) * 4, ((0.5, 0.5), (0.5, 0.5, 0.5))),
    ((float("nan"), 0.0, 0.0, 0.0), ((0.5, 0.5), (0.5, 0.5))),
    ((0.0, float("inf"), 0.0, 0.0), ((0.5, 0.5), (0.5, 0.5))),
    ((0.0, 0.0, 0.0, float("-inf")), ((0.5, 0.5), (0.5, 0.5))),
])
def test_invalid_program_rejected(objective, rates):
    with pytest.raises(RangeError):
        EoProgram(objective=objective, rates=rates)


def test_zero_objective_returns_constant():
    prog = _program(((0.7, 0.3), (0.2, 0.6)))
    pred = solve(prog)
    assert pred.p == (1.0,) * 4  # zero objective ties everything; equal priors pick ones
    assert prog.value(pred.p) == 0.0


def test_constant_points_always_feasible():
    prog = _program(((0.9, 0.1), (0.3, 0.8)))
    assert prog.residual((1.0,) * 4) <= 1e-12
    assert prog.residual((0.0,) * 4) <= 1e-12


def test_counterexample_program_vertex():
    prog = build_corrupted_program(counterexample_instance(), counterexample_spec())
    pred = solve(prog)
    p10, p11, pm10, pm11 = pred.p
    assert 0.82 <= p10 <= 0.84
    assert p11 == 1.0 and pm10 == 0.0 and pm11 == 0.0


def test_feasibility_on_random_programs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        prog = random_program(rng)
        pred = solve(prog)
        assert prog.residual(pred.p) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in pred.p)


def test_objective_matches_grid_oracle_spot_check():
    rng = np.random.default_rng(23)
    for _ in range(25):
        prog = random_program(rng)
        assert prog.value(solve(prog).p) <= grid_minimum(prog) + 5e-3


_RATE = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
_PAIR = st.tuples(_RATE, _RATE)
# offsets that straddle RATE_TIE_TOL and span the band where the two rows are
# nearly parallel, up to pairs far enough apart to keep their raw rows
_DELTA = st.sampled_from((0.0, 1e-16, 1e-12, 1e-10, 5e-10, 1e-9, 1.5e-9, 2e-9, 1e-8,
                          1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2))
_SHIFT = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))
# the box edges, and rates one snap away from them
_FIRST_RATE = st.one_of(st.sampled_from((0.0, 1.0, 1e-12, 1.0 - 1e-12)), st.floats(0.01, 0.99))


@st.composite
def _near_equal_rates(draw):
    first = draw(st.tuples(_FIRST_RATE, _FIRST_RATE))
    delta = draw(_DELTA)
    second = tuple(min(max(h + delta * draw(_SHIFT), 0.0), 1.0) for h in first)
    return first, second


_OBJECTIVE = st.tuples(*[st.floats(-1.0, 1.0)] * 4)
_RATES = st.one_of(st.tuples(_PAIR, _PAIR), _near_equal_rates())

# (objective, rates) pairs that were each off by 1.3e-9 to 0.89 under an
# earlier solver or rule: rows 1e-8 to 1e-6 apart, pairs just under
# RATE_TIE_TOL, a corner 8e-13 short of feasible next to a raw row 1e-3 away,
# and a gap that is over 1e-9 exactly but not in floating point.
_HARD_PROGRAMS = [
    ((1.0, 0.0, -1.0, 0.0), ((0.0, 2**-20), (2**-20, 2**-20))),
    ((1.0, -0.8194853127860231, 0.6084624090470947, 0.5254216360336894),
     ((0.690308818936938, 9.71000949003825e-10), (0.690308818936938, 0.0))),
    ((-0.15096162171497207, 0.6537042493440761, -0.7523960777007088, -0.5535220707859709),
     ((0.03749565844198488, 0.4336456836623859), (0.03749564983909335, 0.4336456754766461))),
    ((-0.9360660847827578, -0.087919617711254, 0.997176886217612, -1.0),
     ((0.9999999999991739, 0.37259629156968554), (1.0, 0.37359629156968555))),
    ((-1.0, 1.0, -0.18704624362715894, 0.23233149785599494),
     ((0.9999999998786755, 1.0005176564465186e-09), (0.9999999999995298, 5.176564465185579e-13))),
]


def _with_examples(cases):
    """Attach each tuple of arguments as an explicit Hypothesis example."""
    def attach(test):
        for args in cases:
            test = example(*args)(test)
        return test
    return attach


@given(objective=_OBJECTIVE, rates=_RATES)
@_with_examples(_HARD_PROGRAMS)
@settings(max_examples=400, deadline=None)
def test_solve_matches_exact_oracle(objective, rates):
    # the exact rational optimum under the same near-equal rule: the optimal
    # values agree even where the optimum is not unique
    prog = EoProgram(objective=objective, rates=rates)
    pred = solve(prog)
    assert abs(prog.value(pred.p) - float(exact_minimum(prog))) <= 1e-9
    assert prog.residual(pred.p) <= RESIDUAL_TOL


# Each has its optimum at a vertex with a coordinate within BOUND_TOL of a
# bound.  Snapping that coordinate moves the vertex's residual by up to
# BOUND_TOL, and a residual bound of BOUND_TOL then dropped the vertex: the
# first program returned (0, 0, 0, 0), 0.26 above its optimum, and the
# derived predictor was 6.9e-7 above.
_ONE_SNAP_FROM_A_BOUND = EoProgram(
    objective=tuple(map(float.fromhex, ("-0x1.e7a7835f663bcp-2", "-0x1.ccb0176fe3534p-1",
                                        "0x1.83e9e11e81feep-1", "0x1.eb5c145a97b08p-1"))),
    rates=((float.fromhex("0x1.19799812dea11p-40"), 1.0),
           (float.fromhex("0x1.32bbb9aa0ea16p-29"), float.fromhex("0x1.ffffffaad45c3p-1"))))


def test_optimum_one_snap_from_a_bound_is_found():
    prog = _ONE_SNAP_FROM_A_BOUND
    pred = solve(prog)
    assert abs(prog.value(pred.p) - float(exact_minimum(prog))) <= 1e-9
    assert prog.residual(pred.p) <= RESIDUAL_TOL


_RATE_1E_12 = ProblemInstance(base=(0.41946458770583434, 0.09406550861903301,
                                    0.26313942077502733, 0.22333048290010524),
                              alpha1=1e-12, beta1=1.0,
                              alpha2=1.4155299899836112e-06, beta2=0.999994026130832)


def test_derived_predictor_at_a_rate_of_1e_12_is_optimal():
    inst = _RATE_1E_12
    prog = build_clean_program(inst)
    pred = derive_predictor(inst)
    assert abs(prog.value(pred.p) - float(exact_minimum(prog))) <= 1e-9
    assert prog.residual(pred.p) <= RESIDUAL_TOL


@st.composite
def _uninformative_program(draw):
    """A clean program whose classifier ignores the label (alpha1 == alpha2,
    beta1 == beta2): one row, and often tied optima."""
    base = draw(st.tuples(*[st.floats(0.01, 1.0)] * 4))
    alpha, beta = draw(_PAIR)
    return build_clean_program(ProblemInstance(base=tuple(b / sum(base) for b in base),
                                               alpha1=alpha, beta1=beta, alpha2=alpha, beta2=beta))


@given(prog=st.one_of(st.builds(EoProgram, objective=_OBJECTIVE, rates=_RATES),
                      st.builds(EoProgram, objective=_OBJECTIVE, rates=_PAIR.map(lambda h: (h, h))),
                      _uninformative_program()))
@_with_examples([(EoProgram(objective, rates),) for objective, rates in _HARD_PROGRAMS]
                + [(_ONE_SNAP_FROM_A_BOUND,), (build_clean_program(_RATE_1E_12),)])
@settings(max_examples=400, deadline=None)
def test_solver_matches_reference_bit_for_bit(prog):
    # the unrolled loop against the itertools enumerator it replaced
    pred, ties = solve_with_ties(prog)
    ref, ref_ties = lp_oracle.solve_with_ties(prog)
    assert pred.p == ref.p
    assert ties == ref_ties


def test_degenerate_identical_rows_still_solved():
    # alpha1 == alpha2 and beta1 == beta2 make both constraint rows identical,
    # so every 2x2 subsystem is singular; the solver must still find the
    # polytope's true minimum, which the oracle verifies.
    inst = random_instance(np.random.default_rng(3))
    inst = type(inst)(base=inst.base, alpha1=0.3, beta1=0.7, alpha2=0.3, beta2=0.7)
    prog = build_clean_program(inst)
    pred = solve(prog)
    assert prog.residual(pred.p) <= 1e-9
    assert prog.value(pred.p) <= grid_minimum(prog) + 5e-3


def test_translation_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        prog = build_clean_program(inst)
        pred = solve(prog)
        csum = sum(prog.objective)
        room = min(1.0 - max(pred.p), min(pred.p))
        shift = 0.5 * room
        translated = tuple(v + shift for v in pred.p)
        # rows annihilate the all-ones direction, so translates stay feasible
        assert abs(prog.residual(translated) - prog.residual(pred.p)) <= 1e-9
        assert prog.value(translated) - prog.value(pred.p) == pytest.approx(csum * shift, abs=1e-12)

    balanced = type(inst)(base=(0.25,) * 4, alpha1=0.9, beta1=0.55, alpha2=0.35, beta2=0.2)
    prog = build_corrupted_program(balanced, PerturbationSpec.uniform(0.2))
    pred = solve(prog)
    translated = tuple(v + 0.5 * (1.0 - max(pred.p)) for v in pred.p)
    assert prog.value(translated) == pytest.approx(prog.value(pred.p), abs=1e-12)


def test_bitwise_determinism():
    rng = np.random.default_rng(17)
    for _ in range(20):
        prog = random_program(rng)
        first = solve(prog)
        second = solve(prog)
        assert first.p == second.p
        assert prog.value(first.p) == prog.value(second.p)


ONES, ZEROS = (1.0,) * 4, (0.0,) * 4


def test_constant_tie_break_prefers_ones():
    interior = (0.5, 0.25, 0.0, 0.0)
    assert _pick([interior, ONES], ones_first=True) == ONES


def test_constant_tie_break_single_zero_candidate():
    assert _pick([ZEROS], True) == ZEROS


def test_constant_tie_break_keeps_unique_optimum():
    interior = (0.3, 0.6, 0.1, 0.2)
    assert _pick([interior], True) == interior


def test_constant_tie_break_both_constants_uses_priors():
    assert _pick([ONES, ZEROS], True) == ONES
    assert _pick([ONES, ZEROS], False) == ZEROS


@pytest.mark.parametrize("ties", [
    list(subset) for n in range(1, 4)
    for subset in itertools.permutations([ONES, ZEROS, (0.3, 0.6, 0.1, 0.2)], n)])
@pytest.mark.parametrize("prior_pos, prior_neg", [(0.7, 0.3), (0.3, 0.7), (0.5, 0.5)])
def test_constant_tie_break_matches_the_two_prior_rule(ties, prior_pos, prior_neg):
    # one ordered scan against the four-branch rule it replaced, on every
    # ordering of every nonempty subset; zeros first with only ONES tied included
    assert _pick(ties, prior_pos >= prior_neg) == lp_oracle._pick(ties, prior_pos, prior_neg)


def test_constant_tie_break_when_the_objective_sum_cannot_move_one():
    # 1 - 1e-17 and 1 + 1e-17 both round to 1, so ones go first, as under
    # the oracle's two priors; 1 - 6e-17 rounds below 1 and zeros go first
    rates = ((0.5, 0.5), (0.2, 0.7))
    pred, ties = solve_with_ties(EoProgram((1e-17, 0.0, 0.0, 0.0), rates))
    assert (pred.p, ties) == (ONES, 4)
    pred, ties = solve_with_ties(EoProgram((6e-17, 0.0, 0.0, 0.0), rates))
    assert (pred.p, ties) == (ZEROS, 4)


def test_tie_count_reported():
    # zero objective: both constants and the two other vertices tie
    prog = _program(((0.7, 0.3), (0.2, 0.6)))
    _, ties = solve_with_ties(prog)
    assert ties == lp_oracle.solve_with_ties(prog)[1] == 4
