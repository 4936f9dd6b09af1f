import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonoise import PerturbationSpec, RangeError, solve
from eonoise.lp import RESIDUAL_TOL, EoProgram, _pick, solve_with_ties
from eonoise.programs import build_clean_program, build_corrupted_program
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
    sol = solve(_program(((0.7, 0.3), (0.2, 0.6))))
    assert sol.p_star == (1.0,) * 4  # zero objective ties everything; equal priors pick ones
    assert sol.objective_value == 0.0


def test_constant_points_always_feasible():
    prog = _program(((0.9, 0.1), (0.3, 0.8)))
    assert prog.residual((1.0,) * 4) <= 1e-12
    assert prog.residual((0.0,) * 4) <= 1e-12


def test_counterexample_program_vertex():
    prog = build_corrupted_program(counterexample_instance(), counterexample_spec())
    sol = solve(prog)
    p10, p11, pm10, pm11 = sol.p_star
    assert 0.82 <= p10 <= 0.84
    assert p11 == 1.0 and pm10 == 0.0 and pm11 == 0.0


def test_feasibility_on_random_programs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        prog = random_program(rng)
        sol = solve(prog)
        assert prog.residual(sol.p_star) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in sol.p_star)


def test_objective_matches_grid_oracle_spot_check():
    rng = np.random.default_rng(23)
    for _ in range(25):
        prog = random_program(rng)
        assert solve(prog).objective_value <= grid_minimum(prog) + 5e-3


_RATE = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
_PAIR = st.tuples(_RATE, _RATE)
# offsets that straddle RATE_TIE_TOL and span the band where the two rows are
# nearly parallel, up to pairs far enough apart to keep their raw rows
_DELTA = st.sampled_from((0.0, 1e-16, 1e-12, 1e-10, 5e-10, 1e-9, 1.5e-9, 2e-9, 1e-8,
                          1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2))
_SHIFT = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))


@st.composite
def _near_equal_rates(draw):
    first = draw(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)))
    delta = draw(_DELTA)
    second = tuple(h + delta * draw(_SHIFT) for h in first)
    return first, second


# The examples were each off by 1.3e-9 to 0.89 under an earlier solver or
# rule: rows 1e-8 to 1e-6 apart, pairs just under RATE_TIE_TOL, a corner
# 8e-13 short of feasible next to a raw row 1e-3 away, and a gap that is
# over 1e-9 exactly but not in floating point.
@given(objective=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       rates=st.one_of(st.tuples(_PAIR, _PAIR), _near_equal_rates()))
@example(objective=(1.0, 0.0, -1.0, 0.0), rates=((0.0, 2**-20), (2**-20, 2**-20)))
@example(objective=(1.0, -0.8194853127860231, 0.6084624090470947, 0.5254216360336894),
         rates=((0.690308818936938, 9.71000949003825e-10), (0.690308818936938, 0.0)))
@example(objective=(-0.15096162171497207, 0.6537042493440761, -0.7523960777007088,
                    -0.5535220707859709),
         rates=((0.03749565844198488, 0.4336456836623859),
                (0.03749564983909335, 0.4336456754766461)))
@example(objective=(-0.9360660847827578, -0.087919617711254, 0.997176886217612, -1.0),
         rates=((0.9999999999991739, 0.37259629156968554), (1.0, 0.37359629156968555)))
@example(objective=(-1.0, 1.0, -0.18704624362715894, 0.23233149785599494),
         rates=((0.9999999998786755, 1.0005176564465186e-09),
                (0.9999999999995298, 5.176564465185579e-13)))
@settings(max_examples=400, deadline=None)
def test_solve_matches_exact_oracle(objective, rates):
    # the exact rational optimum under the same near-equal rule: the optimal
    # values agree even where the optimum is not unique
    prog = EoProgram(objective=objective, rates=rates)
    sol = solve(prog)
    assert abs(sol.objective_value - float(exact_minimum(prog))) <= 1e-9
    assert prog.residual(sol.p_star) <= RESIDUAL_TOL


def test_degenerate_identical_rows_still_solved():
    # alpha1 == alpha2 and beta1 == beta2 make both constraint rows identical,
    # so every 2x2 subsystem is singular; the solver must still find the
    # polytope's true minimum, which the oracle verifies.
    inst = random_instance(np.random.default_rng(3))
    inst = type(inst)(base=inst.base, alpha1=0.3, beta1=0.7, alpha2=0.3, beta2=0.7)
    prog = build_clean_program(inst)
    sol = solve(prog)
    assert prog.residual(sol.p_star) <= 1e-9
    assert sol.objective_value <= grid_minimum(prog) + 5e-3


def test_translation_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        prog = build_clean_program(inst)
        sol = solve(prog)
        csum = sum(prog.objective)
        room = min(1.0 - max(sol.p_star), min(sol.p_star))
        shift = 0.5 * room
        translated = tuple(v + shift for v in sol.p_star)
        # rows annihilate the all-ones direction, so translates stay feasible
        assert abs(prog.residual(translated) - prog.residual(sol.p_star)) <= 1e-9
        assert prog.value(translated) - sol.objective_value == pytest.approx(csum * shift, abs=1e-12)

    balanced = type(inst)(base=(0.25,) * 4, alpha1=0.9, beta1=0.55, alpha2=0.35, beta2=0.2)
    prog = build_corrupted_program(balanced, PerturbationSpec.uniform(0.2))
    sol = solve(prog)
    translated = tuple(v + 0.5 * (1.0 - max(sol.p_star)) for v in sol.p_star)
    assert prog.value(translated) == pytest.approx(sol.objective_value, abs=1e-12)


def test_bitwise_determinism():
    rng = np.random.default_rng(17)
    for _ in range(20):
        prog = random_program(rng)
        first = solve(prog)
        second = solve(prog)
        assert first.p_star == second.p_star
        assert first.objective_value == second.objective_value


ONES, ZEROS = (1.0,) * 4, (0.0,) * 4


def test_constant_tie_break_prefers_ones():
    interior = (0.5, 0.25, 0.0, 0.0)
    assert _pick([interior, ONES], prior_pos=0.5, prior_neg=0.5) == ONES


def test_constant_tie_break_single_zero_candidate():
    assert _pick([ZEROS], 0.5, 0.5) == ZEROS


def test_constant_tie_break_keeps_unique_optimum():
    interior = (0.3, 0.6, 0.1, 0.2)
    assert _pick([interior], 0.5, 0.5) == interior


def test_constant_tie_break_both_constants_uses_priors():
    assert _pick([ONES, ZEROS], 0.7, 0.3) == ONES
    assert _pick([ONES, ZEROS], 0.3, 0.7) == ZEROS


def test_tie_count_reported():
    _, ties = solve_with_ties(_program(((0.7, 0.3), (0.2, 0.6))))
    assert ties > 1
