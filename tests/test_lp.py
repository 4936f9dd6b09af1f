import dataclasses
import itertools
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonoise import PerturbationSpec, ProblemInstance, RangeError, derive_predictor, solve
from eonoise import lp
from eonoise.lp import RESIDUAL_TOL, TIE_TOL, EoProgram, _pick, solve_with_ties
from eonoise.model import BOUND_TOL, DerivedPredictor, snap_probabilities
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


_NOT_TWO_PAIRS = "rates must be two (h0, h1) pairs"


_INVALID_PROGRAMS = [
    ((0.0,) * 4, ((1.2, 0.5), (0.5, 0.5)), "rate pair (1.2, 0.5) outside [0, 1]"),
    ((0.0,) * 4, ((0.5, -1e-12), (0.5, 0.5)), "rate pair (0.5, -1e-12) outside [0, 1]"),
    ((0.0,) * 4, ((0.5, 0.5), (0.5, float("nan"))), "rate pair (0.5, nan) outside [0, 1]"),
    ((0.0,) * 3, ((0.5, 0.5), (0.5, 0.5)),
     "objective (0.0, 0.0, 0.0) must be four finite coefficients"),
    ((0.0,) * 4, ((0.5, 0.5),), _NOT_TWO_PAIRS),
    ((0.0,) * 4, ((0.5, 0.5), (0.5, 0.5, 0.5)), _NOT_TWO_PAIRS),
    ((float("nan"), 0.0, 0.0, 0.0), ((0.5, 0.5), (0.5, 0.5)),
     "objective (nan, 0.0, 0.0, 0.0) must be four finite coefficients"),
    ((0.0, float("inf"), 0.0, 0.0), ((0.5, 0.5), (0.5, 0.5)),
     "objective (0.0, inf, 0.0, 0.0) must be four finite coefficients"),
    ((0.0, 0.0, 0.0, float("-inf")), ((0.5, 0.5), (0.5, 0.5)),
     "objective (0.0, 0.0, 0.0, -inf) must be four finite coefficients"),
    ((0.0,) * 4, ((0.5,), (0.5, 0.5)), _NOT_TWO_PAIRS),
]


# ids by index alone, as a message would make an unwieldy id
@pytest.mark.parametrize("objective, rates, message", _INVALID_PROGRAMS,
                         ids=[f"objective{i}-rates{i}" for i in range(len(_INVALID_PROGRAMS))])
def test_invalid_program_rejected(objective, rates, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        EoProgram(objective=objective, rates=rates)


def test_program_stores_python_floats():
    prog = EoProgram(objective=np.zeros(4), rates=np.full((2, 2), 0.5))
    stored = [*prog.objective, *itertools.chain(*prog.rates), *itertools.chain(*prog.rows)]
    assert len(stored) == 12
    assert all(type(v) is float for v in stored)


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


# (objective, rates) pairs at each edge of the solver's inline snap and key,
# all with two rows.  Cramer's rule gives a solved coordinate of -0.0 (a sweep
# grid program).  A second solved coordinate of 1.0000000000000002 snaps to
# 1.0, and one of 1.0000000000019849 drops its point.  Two distinct solved
# points, (0, 0, 1.6188802855277436e-12, 1) and (0, 0, 1.618880285524506e-12,
# 1), share a 12-digit key, and the first found is kept and returned.  Last,
# two zero objectives, under which every feasible point ties, each with a
# solved coordinate that snaps to 1.0 next to one inside (0, 1), so the point
# is no corner and is counted among the ties: the second solved coordinate of
# (0, 0.5000000000005, 1, 1.0000000000005), then the first of
# (1.000000000000523, 0, 0.9999999999989999, 1).
_SNAP_AND_KEY_EDGES = [
    ((-0.15000000000000002, -0.15000000000000002, 0.15000000000000002, 0.15000000000000002),
     ((0.8500000000000001, 0.8500000000000001), (0.25, 0.25))),
    ((-0.002330561154192021, -0.0005132715227394886, 0.004294834959857552, -0.13905729007475862),
     ((0.021814982235338846, 0.0020860978133487875), (0.011467210748773018, 0.0009856116592879686))),
    ((-0.3345473695195812, 0.08006270015537933, -0.02070108485174786, 0.028060709145752802),
     ((0.9419524971838148, 0.7760479246241054), (0.9429643488988901, 0.7631225324031727))),
    ((0.29575806189423637, 0.7614560943496136, -0.9168422772451641, -0.13512106422475512),
     ((0.3823027636925417, 0.999999999999), (0.999999999998, 1.0))),
    ((0.0, 0.0, 0.0, 0.0), ((0.0, 1e-12), (7.5e-10, 1.501e-09))),
    ((0.0, 0.0, 0.0, 0.0), ((0.0, 1e-12), (0.6566694724396865, 0.0))),
]


# (objective, rates) pairs whose one box corner has a residual a fraction of
# an ulp of 1.0 from RESIDUAL_TOL, with the objective least at that corner.
# Summed left to right, as the dot product does, the residual is 2.3e-17 over
# (corner dropped) or 8.8e-17 under (corner kept); summed right to left it
# falls on the other side.  One row, then two rows, where the second row's
# residual at the corner is 0.0.  Last, a row entry of -0.0, whose corner
# (0, 1, 0, 0) is the optimum.
_CORNER_EDGES = [
    ((1.0, -1.0, -1.0, -1.0),
     ((4.000000000000017e-12, 0.19424126816981144), (4.000000000000017e-12, 0.19424126816981144))),
    ((-1.0, -1.0, 1.0, -1.0), ((0.999999999996, 0.3741646454292939), (0.999999999996, 0.3741646454292939))),
    ((-1.0, 1.0, -1.0, -1.0), ((0.16034451551279577, 4.0000000000000225e-12), (0.012436318829314397, 0.0))),
    ((-1.0, -1.0, 1.0, -1.0), ((0.999999999996, 0.3861672738532413), (1.0, 0.7746377146913107))),
    ((1.0, -1.0, 1.0, 1.0), ((0.3, 0.0), (0.3, 0.0))),
]

# (objective, rates) pairs whose optimum is a box corner that a solved
# candidate snaps onto, so the loop skips that candidate and the corner table
# alone finds the optimum.  One row, where the solved point (1, 1, -0.0, 0) is
# the corner (1, 1, 0, 0); then two rows (a seed-0 derive-single program), where
# (1, 1, 1.0000000000000002, 1.0000000000000002) is the ones corner.
_SNAPS_ONTO_A_CORNER = [
    ((-1.0, -1.0, 1.0, 1.0), ((0.3, 0.3), (0.3, 0.3))),
    ((-0.0650277371180652, -0.06700163165548834, -0.0125368122074285, -0.006074765693668431),
     ((0.8887022429727226, 0.8512260604824452), (0.9077120697351018, 0.8293524000916458))),
]

# A seed-1 derive-single program with two tied optima: the ones corner and
# (1, 1, 1, 0.9999999999956712), which only the bounds (1, 1) on the first two
# coordinates reach, so its tie count checks the right-hand side -(r0 + r1).
_TIED_AT_BOTH_BOUNDS_ONE = [
    ((-0.13258012981975598, -0.1116738830449997, -0.056459573785200154, -0.05523552071477966),
     ((0.6482177530006114, 0.68405456081798), (0.6010934767919718, 0.7070133400475941))),
]

# (objective, rates, start) triples, each a start whose vertex the warm start
# must not accept, and which the rule without one of its conditions accepts,
# returning that vertex alone where the enumerator returns another answer:
# - the solved pair within eta of a bound: it is (5e-13, 5e-14), which the
#   enumerator snaps onto the corner (0, 1, 0, 0);
# - the margin above TIE_TOL: the vertex lies 1.0000056e-12 below the ones
#   corner, over TIE_TOL, but the values as added tie, so the enumerator
#   counts two optima and picks the ones corner;
# - the gap to the zero corner: it lies 0.044 below the vertex;
# - the gap to the ones corner: the vertex lies 5.6e-17 below it, a tie.
_CERTIFICATE_EDGES = [
    ((0.3, -1e-07, -0.6, 1.0), ((0.9, 0.0), (0.3, 3e-13)), (0.0, 1.0, 0.5, 0.5)),
    ((-0.2896569965076684, 0.2158882970818252, -0.08523535840348379, -0.01),
     ((0.67446875, 0.5758674300449337), (0.3819448, 0.5758674291336985)), (0.5, 0.0, 0.5, 1.0)),
    ((0.6, 0.7, 0.2, -0.7), ((0.2, 0.1), (0.4, 1.0)), (0.0, 0.5, 1.0, 0.5)),
    ((-0.7, 0.3, -0.3, 0.2), ((0.4, 0.6), (0.4, 0.5)), (1.0, 0.5, 0.0, 0.5)),
]

_SOLVER_INPUTS = st.one_of(st.builds(EoProgram, objective=_OBJECTIVE, rates=_RATES),
                           st.builds(EoProgram, objective=_OBJECTIVE, rates=_PAIR.map(lambda h: (h, h))),
                           _uninformative_program())
_PINNED_PROGRAMS = ([EoProgram(objective, rates)
                     for objective, rates in (_HARD_PROGRAMS + _SNAP_AND_KEY_EDGES + _CORNER_EDGES
                                              + _SNAPS_ONTO_A_CORNER + _TIED_AT_BOTH_BOUNDS_ONE)]
                    + [EoProgram(objective, rates) for objective, rates, _ in _CERTIFICATE_EDGES]
                    + [_ONE_SNAP_FROM_A_BOUND, build_clean_program(_RATE_1E_12)])


@given(prog=_SOLVER_INPUTS)
@_with_examples([(prog,) for prog in _PINNED_PROGRAMS])
@settings(max_examples=400, deadline=None)
def test_solver_matches_reference_bit_for_bit(prog):
    # the inlined loop against the itertools enumerator it replaced; repr
    # tells a zero's sign
    picked = []

    def pick(ties, ones_first):
        picked.append(_pick(ties, ones_first))
        return picked[-1]

    with mock.patch.object(lp, "_pick", pick):
        pred, ties = solve_with_ties(prog)
    ref, ref_ties = lp_oracle.solve_with_ties(prog)
    assert repr(pred.p) == repr(ref.p)
    assert ties == ref_ties

    # the point the loop picks is already snapped, so DerivedPredictor's own
    # snap would leave it as it is, bit for bit, and the solver skips it
    assert repr(snap_probabilities(picked[0])) == repr(picked[0]) == repr(pred.p)
    assert repr(snap_probabilities(pred.p)) == repr(pred.p)
    # built without the snap, it is still an ordinary frozen DerivedPredictor
    rebuilt = DerivedPredictor(pred.p)
    assert type(pred) is DerivedPredictor
    assert pred == rebuilt and hash(pred) == hash(rebuilt) and repr(pred) == repr(rebuilt)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pred.p = rebuilt.p
    assert pickle.loads(pickle.dumps(pred)) == pred

    # the loop skips a solved point that snaps onto a box corner, which is
    # exact only if the corner's full residual passes RESIDUAL_TOL just when
    # every row's subset sum for that corner does: the two are equal but for
    # the sign of a zero
    sums = [lp._corner_sums(row) for row in prog.rows]
    for p in map(snap_probabilities, lp_oracle._candidates(prog)):
        if p is None or not all(v in (0.0, 1.0) for v in p):
            continue
        index = sum(1 << k for k in range(4) if p[k] == 1.0)  # bit k is coordinate k
        entries = [t[index] for t in sums]
        assert prog.residual(p) == max(abs(e) for e in entries)
        assert (prog.residual(p) <= RESIDUAL_TOL) == all(-RESIDUAL_TOL <= e <= RESIDUAL_TOL
                                                         for e in entries)

    # each solved candidate fixes its coordinates at a box corner's, and the
    # loop reads its right-hand sides off that corner's entries in the rows'
    # corner tables: exact only if they equal the oracle's products with 0.0
    # and 1.0 negated, but for the sign of a zero, which == does not tell
    for fixed in itertools.combinations(range(4), 4 - len(prog.rows)):
        for bounds in itertools.product((0.0, 1.0), repeat=len(fixed)):
            index = sum(1 << k for k, b in zip(fixed, bounds) if b == 1.0)  # bit k is coordinate k
            assert lp_oracle._right_hand_sides(prog.rows, fixed, bounds) == [-t[index] for t in sums]


@given(prog=_SOLVER_INPUTS.filter(lambda prog: len(prog.rows) == 1))
@_with_examples([(prog,) for prog in _PINNED_PROGRAMS if len(prog.rows) == 1])
@settings(max_examples=400, deadline=None)
def test_a_one_row_solved_point_needs_no_residual_test_or_key(prog):
    # the loop keeps a one-row solved point whose solved coordinate the snap
    # leaves strictly inside (0, 1) with no residual test and no dedupe key:
    # its residual is rounding alone, and its rounded key has that one
    # coordinate inside (0, 1), so it differs from every corner's, and from
    # another such point's in which coordinate that is or at a fixed one.
    # One that snaps onto a corner is feasible too, so the corner table has
    # kept that corner already
    keys = []
    for p in map(snap_probabilities, lp_oracle._candidates(prog)[len(lp._CORNERS):]):
        if p is None:
            continue
        assert prog.residual(p) <= RESIDUAL_TOL
        if any(0.0 < v < 1.0 for v in p):
            keys.append(tuple(round(v, 12) for v in p))
    assert all(sum(0.0 < v < 1.0 for v in key) == 1 for key in keys)
    assert len(set(keys)) == len(keys)


# The 24 vertex types of a two-row program: two coordinates inside (0, 1), at
# 0.5, and the other two at each of their four corners
_VERTEX_TYPES = [tuple(0.5 if k in free else float(bits >> k & 1) for k in range(4))
                 for free in itertools.combinations(range(4), 2) for bits in range(16)
                 if not bits & (1 << free[0] | 1 << free[1])]
_NUDGE = st.tuples(st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3, 0.1)), st.tuples(*[_SHIFT] * 8))


def _certified_spy():
    """A stand-in for ``lp._certified`` that records what each call returns."""
    certified, returned = lp._certified, []

    def spy(program, start):
        returned.append(certified(program, start))
        return returned[-1]
    return spy, returned


@given(prog=_SOLVER_INPUTS, nudge=_NUDGE)
@_with_examples([(prog, (1e-6, (0.5,) * 8)) for prog in _PINNED_PROGRAMS])
@settings(max_examples=400, deadline=None)
def test_a_start_leaves_the_solve_bit_for_bit(prog, nudge):
    # a start from any vertex type, the program's own optimum or a nearby
    # program's optimum gives the cold solve's p and tie count
    step, shifts = nudge
    objective = tuple(c + step * d for c, d in zip(prog.objective, shifts))
    rates = tuple(tuple(min(max(h + step * d, 0.0), 1.0) for h, d in zip(pair, ds))
                  for pair, ds in zip(prog.rates, (shifts[4:6], shifts[6:])))
    pred, ties = solve_with_ties(prog)
    for start in _VERTEX_TYPES + [pred.p, solve(EoProgram(objective, rates)).p]:
        warm, warm_ties = solve_with_ties(prog, start)
        assert (repr(warm.p), warm_ties) == (repr(pred.p), ties)


@pytest.mark.parametrize("objective, rates, start", _CERTIFICATE_EDGES,
                         ids=["interior", "above-tie-tol", "gap-to-zero", "gap-to-ones"])
def test_a_start_the_certificate_cannot_accept_falls_back(objective, rates, start):
    prog = EoProgram(objective, rates)
    fixed = tuple(k for k in range(4) if not 0.0 < start[k] < 1.0)
    vertex = lp_oracle.solved_point(prog.rows, fixed, tuple(start[k] for k in fixed))
    assert all(0.0 < vertex[k] < 1.0 for k in range(4) if k not in fixed)
    spy, returned = _certified_spy()
    with mock.patch.object(lp, "_certified", spy):
        pred, ties = solve_with_ties(prog, start)
    assert returned == [None]
    cold, cold_ties = solve_with_ties(prog)
    assert (repr(pred.p), ties) == (repr(cold.p), cold_ties)
    # accepting the start's vertex would return it alone, and that is wrong
    assert (pred.p, ties) != (vertex, 1)


@pytest.mark.parametrize("objective, rates", _SNAPS_ONTO_A_CORNER, ids=["one-row", "two-rows"])
def test_an_optimum_on_a_corner_that_a_solved_point_snaps_onto(objective, rates):
    prog = EoProgram(objective, rates)
    corner = {1: (1.0, 1.0, 0.0, 0.0), 2: (1.0, 1.0, 1.0, 1.0)}[len(prog.rows)]
    solved = lp_oracle._candidates(prog)[len(lp._CORNERS):]
    assert any(snap_probabilities(p) == corner and repr(p) != repr(corner) for p in solved)
    assert solve_with_ties(prog) == lp_oracle.solve_with_ties(prog) == (DerivedPredictor(corner), 1)
    assert abs(prog.value(corner) - float(exact_minimum(prog))) <= 1e-9


def test_snap_and_key_edges_are_reached():
    # each pinned program still reaches its edge, read off the oracle's raw
    # candidate points, and the shared key keeps the first point found
    programs = [EoProgram(*args) for args in _SNAP_AND_KEY_EDGES]
    coords = [[v for p in lp_oracle._candidates(prog) for v in p] for prog in programs[:3]]
    assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in coords[0])
    assert any(1.0 < v <= 1.0 + BOUND_TOL for v in coords[1])
    assert any(1.0 + BOUND_TOL < v <= 1.0 + 1e-11 for v in coords[2])
    prog = programs[3]
    by_key = {}
    for p in map(snap_probabilities, lp_oracle._candidates(prog)):
        if p is not None and prog.residual(p) <= RESIDUAL_TOL:
            by_key.setdefault(tuple(round(v, 12) for v in p), []).append(p)
    shared = [points for points in by_key.values() if len(set(points)) > 1]
    assert len(shared) == 1
    assert solve(prog).p == shared[0][0] == (0.0, 0.0, 1.6188802855277436e-12, 1.0)
    for prog, point, ties in zip(programs[4:], [(0.0, 0.5000000000005, 1.0, 1.0000000000005),
                                                (1.000000000000523, 0.0, 0.9999999999989999, 1.0)],
                                 [5, 8]):
        assert point in lp_oracle._candidates(prog)
        assert solve_with_ties(prog)[1] == ties


@given(rates=st.one_of(_RATES, _PAIR.map(lambda h: (h, h))))
@_with_examples([(rates,) for _, rates in _HARD_PROGRAMS + _SNAP_AND_KEY_EDGES])
@settings(max_examples=400, deadline=None)
def test_constant_classifiers_are_always_candidates(rates):
    # each row's entries sum to zero: the zero corner's residual is exactly
    # 0.0, so the solver's feasible set is never empty, and the ones corner
    # is within RESIDUAL_TOL
    prog = EoProgram(objective=(0.0,) * 4, rates=rates)
    assert prog.residual((0.0,) * 4) == 0.0
    assert prog.residual((1.0,) * 4) <= RESIDUAL_TOL


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


def _group_swap(prog):
    """The program with the attribute groups swapped: objective (c1, c0, c3, c2)
    and each rate pair (h1, h0)."""
    c0, c1, c2, c3 = prog.objective
    return EoProgram((c1, c0, c3, c2), tuple((h1, h0) for h0, h1 in prog.rates))


def _prediction_swap(prog):
    """The program with the given prediction negated: objective (c2, c3, c0, c1)
    and each rate h replaced by 1 - h."""
    c0, c1, c2, c3 = prog.objective
    return EoProgram((c2, c3, c0, c1), tuple((1.0 - h0, 1.0 - h1) for h0, h1 in prog.rates))


def _value_gap_tol(ties, swapped_ties):
    """Largest gap between the values of two symmetric programs' solutions:
    1e-12 for unique optima, and TIE_TOL more where either side tied, as a
    tied pick may lie up to TIE_TOL above its side's optimum."""
    return 1e-12 if ties == swapped_ties == 1 else 1e-12 + TIE_TOL


@given(objective=_OBJECTIVE, rates=_RATES)
@_with_examples(_HARD_PROGRAMS)
# the two sides solve the same vertex's 2x2 system with its columns in
# opposite order, and snap a different solved coordinate to 1.0: the
# permuted p differ by 5e-13
@example(objective=(0.0, 0.0, 1.0, -1.0), rates=((1.0, 0.999999999999), (0.999999998, 0.999999998999)))
# one optimum on one side and two tied on the other (see
# test_tie_tol_is_not_invariant_under_the_group_swap)
@example(objective=(1e-12, -0.25, 1e-12, -0.25), rates=((0.0, 0.0), (0.0, 0.0)))
@settings(max_examples=400, deadline=None)
def test_optimum_is_exact_and_unchanged_when_the_groups_swap(objective, rates):
    # the exact rational optimum under the same near-equal rule: the optimal
    # values agree even where the optimum is not unique
    prog = EoProgram(objective, rates)
    pred, ties = solve_with_ties(prog)
    assert abs(prog.value(pred.p) - float(exact_minimum(prog))) <= 1e-9
    assert prog.residual(pred.p) <= RESIDUAL_TOL
    # swapping the groups negates each row and permutes its entries, so the
    # feasible set is the permuted one and the optimal value cannot move
    swapped = _group_swap(prog)
    swapped_pred, swapped_ties = solve_with_ties(swapped)
    gap = abs(prog.value(pred.p) - swapped.value(swapped_pred.p))
    assert gap <= _value_gap_tol(ties, swapped_ties)
    if ties == swapped_ties == 1:
        p0, p1, p2, p3 = pred.p
        assert max(abs(u - v) for u, v in zip(swapped_pred.p, (p1, p0, p3, p2))) <= 1e-9


# multiples of 2**-20, so 1 - h is exact; pairs 0 to 3 steps (up to 2.9e-6)
# apart give the near-parallel difference row, far ones the two raw rows
_DYADIC = st.integers(0, 2**20).map(lambda k: k * 2.0**-20)
_DYADIC_STEP = st.integers(-3, 3).map(lambda k: k * 2.0**-20)


@st.composite
def _dyadic_rates(draw):
    first = draw(st.tuples(_DYADIC, _DYADIC))
    if draw(st.booleans()):
        return first, draw(st.tuples(_DYADIC, _DYADIC))
    return first, tuple(min(max(h + draw(_DYADIC_STEP), 0.0), 1.0) for h in first)


@given(objective=_OBJECTIVE, rates=_dyadic_rates())
# two optima 1e-12 apart tie; the sides pick different ones, 9.9998e-13 apart in value
@example(objective=(0.4137192335808184, 1e-12, -0.5541525044233419, 0.0),
         rates=((0.03857135772705078,) * 2,) * 2)
@settings(max_examples=400, deadline=None)
def test_optimum_is_unchanged_when_the_prediction_swaps(objective, rates):
    # each row of the swapped program applied to (p2, p3, p0, p1) is the
    # original row applied to p; dyadic rates keep the rate gaps exact, so the
    # near-equal rule gives the same row count on both sides
    prog = EoProgram(objective, rates)
    swapped = _prediction_swap(prog)
    assert len(swapped.rows) == len(prog.rows)
    pred, ties = solve_with_ties(prog)
    swapped_pred, swapped_ties = solve_with_ties(swapped)
    gap = abs(prog.value(pred.p) - swapped.value(swapped_pred.p))
    assert gap <= _value_gap_tol(ties, swapped_ties)


def test_rate_tie_rule_is_not_invariant_under_the_prediction_swap():
    # the first coordinates are 9.999999995e-10 apart in float, inside
    # RATE_TIE_TOL; 1 - h rounds them 1.00000008e-9 apart, outside it.  One
    # row becomes two, and the optimum, as the rule defines it, jumps by 1.45
    prog = EoProgram((0.9248887626999003, -0.7286447871405848,
                      -0.7692449746119772, 0.7880437132144282),
                     ((0.08622236979759672, 0.8591104863520465),
                      (0.08622237079759672, 0.8591104873520464)))
    swapped = _prediction_swap(prog)
    assert (len(prog.rows), len(swapped.rows)) == (1, 2)
    for program, optimum in ((prog, -1.4518693468361206), (swapped, 0.0)):
        value = program.value(solve(program).p)
        assert abs(value - optimum) <= 1e-9
        assert abs(value - float(exact_minimum(program))) <= 1e-9


def test_tie_tol_is_not_invariant_under_the_group_swap():
    # the ones corner lies 1e-12 above the optimum on both sides, but its value
    # adds the objective in another order: -0.499999999998 here and
    # -0.49999999999800004 swapped, so only the swapped side ties it, within
    # TIE_TOL of its optimum, and picks it
    prog = EoProgram((1e-12, -0.25, 1e-12, -0.25), ((0.0, 0.0), (0.0, 0.0)))
    swapped = _group_swap(prog)
    pred, ties = solve_with_ties(prog)
    swapped_pred, swapped_ties = solve_with_ties(swapped)
    assert (pred.p, ties) == ((0.0, 1.0, 1.0, 1.0), 1)
    assert (swapped_pred.p, swapped_ties) == (ONES, 2)
    assert abs(prog.value(pred.p) - swapped.value(swapped_pred.p)) <= 1e-12 + TIE_TOL


def test_solver_matches_reference_on_every_preset_grid():
    # the sweep's own programs: all 24 presets on the grid 0:0.5:0.01, solved
    # cold and, as run_sweep solves them, each row from the previous row's p.
    # The start certifies every row but each preset's first and the 20 where
    # the optimal vertex changes type
    programs = lp_oracle.sweep_programs(0.01)
    assert len(programs) == 1224
    mismatches = []
    spy, returned = _certified_spy()
    previous = None
    with mock.patch.object(lp, "_certified", spy):
        for i, prog in enumerate(programs):
            ref, ref_ties = lp_oracle.solve_with_ties(prog)
            for start in (None, None if i % 51 == 0 else previous):
                pred, ties = solve_with_ties(prog, start)
                if (repr(pred.p), ties) != (repr(ref.p), ref_ties):
                    mismatches.append((prog, start))
            previous = pred.p
    assert mismatches == []
    assert (len(returned), sum(point is not None for point in returned)) == (1200, 1180)
