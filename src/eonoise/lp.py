"""Exact solver for the 4-variable postprocessing LP.

The program minimizes a linear objective over the box [0, 1]^4 subject to
homogeneous equality constraints, one per label class, each expressing that the
two attribute groups receive the same probability of a positive output.

Near-equal rates follow one rule: two label classes whose rate pairs lie within
``RATE_TIE_TOL`` of each other in both coordinates give one constraint, and
otherwise they give two (see ``EoProgram``).  The problem is fixed-size, so the
solver enumerates every candidate vertex exactly, reading every right-hand side
off one table per row of the row's sums over the 16 box corners (see
``solve_with_ties``).  ``tests/lp_oracle.py``, the loop's bit-for-bit reference,
forms them as products instead and takes none of the loop's shortcuts.

A solve may start from a previous optimum, as each row of a sweep does from
the row before.  One lookup reads that optimum's vertex type, whose vertex,
solved alone from the rows' own entries, is returned when its basis's reduced
costs prove it the one optimum within ``TIE_TOL`` (see ``_certified``).  ``p``
and the tie count are the enumeration's bit for bit either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

from .errors import RangeError
from .model import BOUND_TOL, DerivedPredictor, _snapped_predictor

RATE_TIE_TOL = 1e-9
#: Snapping four coordinates by at most BOUND_TOL each moves a row whose
#: entries are at most 1 by at most this much.
RESIDUAL_TOL = 4 * BOUND_TOL
SINGULAR_TOL = 1e-12
TIE_TOL = 1e-12

_ONES = (1.0, 1.0, 1.0, 1.0)
_ZEROS = (0.0, 0.0, 0.0, 0.0)
#: The 16 corners of the box [0, 1]^4, bit k of the index giving coordinate k.
_CORNERS = tuple(tuple(float((bits >> k) & 1) for k in range(4)) for bits in range(16))
#: Per row count n, the solved candidates of ``solve_with_ties``: the n free coordinates,
#: then the corners over the fixed ones (``combinations`` order, then ``product``, bar 0).
_SOLVED = {n: tuple((tuple(k for k in range(4) if k not in fixed),
                     tuple(sum(b << k for b, k in zip(bits, fixed))
                           for bits in product((0, 1), repeat=4 - n))[1:])
                    for fixed in combinations(range(4), 4 - n)) for n in (1, 2)}


@dataclass(frozen=True)
class EoProgram:
    """Objective vector and group rates of the postprocessing LP.

    ``objective`` is indexed over (prediction, attribute) cells in the
    package-wide order (see ``model.CELLS``).  ``rates[0]`` is the pair
    (h0, h1) of the two groups' positive-prediction rates for label +1,
    ``rates[1]`` the pair for label -1.  A pair gives the constraint row
    ``(h0, -h1, 1-h0, -(1-h1))``, which reads "group-0 positive rate equals
    group-1 positive rate".

    ``rows`` holds the label +1 row alone when the pairs are within
    ``RATE_TIE_TOL`` in both coordinates.  Otherwise it holds that row and a
    second one: the label -1 row when the pairs are at least 5e-3 apart, and
    for closer pairs the difference row ``(d0, -d1, -d0, d1)``, with
    ``d = rates[1] - rates[0]`` scaled to a largest entry of 1, which spans
    the same constraints without cancellation between two nearly parallel rows.
    """

    objective: tuple[float, float, float, float]
    rates: tuple[tuple[float, float], tuple[float, float]]
    rows: tuple[tuple[float, float, float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        objective = tuple(map(float, self.objective))
        if len(objective) != 4 or not all(map(math.isfinite, objective)):
            raise RangeError(f"objective {objective} must be four finite coefficients")
        rates = tuple([tuple(map(float, pair)) for pair in self.rates])
        if len(rates) != 2 or len(rates[0]) != 2 or len(rates[1]) != 2:
            raise RangeError("rates must be two (h0, h1) pairs")
        for h0, h1 in rates:
            if not (0.0 <= h0 <= 1.0 and 0.0 <= h1 <= 1.0):
                raise RangeError(f"rate pair {(h0, h1)} outside [0, 1]")
        (a0, a1), (b0, b1) = rates
        d0, d1 = b0 - a0, b1 - a1
        gap = max(abs(d0), abs(d1))
        rows = [(a0, -a1, 1.0 - a0, -(1.0 - a1))]
        if gap >= 5e-3:  # accurate at this gap, and keeps the pinned output digests
            rows.append((b0, -b1, 1.0 - b0, -(1.0 - b1)))
        elif gap > RATE_TIE_TOL:
            d0, d1 = d0 / gap, d1 / gap
            rows.append((d0, -d1, -d0, d1))
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "rows", tuple(rows))

    def value(self, p: Sequence[float]) -> float:
        c = self.objective
        return c[0] * p[0] + c[1] * p[1] + c[2] * p[2] + c[3] * p[3]

    def residual(self, p: Sequence[float]) -> float:
        """Largest absolute violation of the equality constraints in ``rows``."""
        worst = 0.0
        for r in self.rows:
            v = abs(r[0] * p[0] + r[1] * p[1] + r[2] * p[2] + r[3] * p[3])
            worst = v if v > worst else worst
        return worst


def _corner_sums(row: Sequence[float]) -> tuple[float, ...]:
    """``row``'s sum over each of ``_CORNERS``, entry i being entry (i without its top
    bit) plus that bit's entry: left to right, as ``r0*c0 + ... + r3*c3`` adds."""
    a, b, c, d = row
    ab, ac, bc, abc = a + b, a + c, b + c, a + b + c
    return (0.0, a, b, ab, c, ac, bc, abc, d, a + d, b + d, ab + d, c + d, ac + d, bc + d, abc + d)


def _pick(ties: Sequence[tuple[float, ...]], ones_first: bool) -> tuple[float, ...]:
    """Select among tied optima: the first constant classifier tied, trying
    ones then zeros if ``ones_first`` and zeros then ones otherwise, else the
    lexicographically smallest vertex."""
    for constant in (_ONES, _ZEROS) if ones_first else (_ZEROS, _ONES):
        if constant in ties:
            return constant
    return min(ties)


#: The free pair and the fixed coordinate at 1 of the 12 vertex types with one fixed at each bound,
#: keyed by where each coordinate lies: 0 at or below 0, 1 strictly inside (0, 1), 2 at or above 1.
_TYPES = {tuple(1 if k in free else 2 if k == hi else 0 for k in range(4)): (*free, hi)
          for free in combinations(range(4), 2) for hi in range(4) if hi not in free}
#: The unit roundoff of a float.
_U = 2.0 ** -53


def _certified(program: EoProgram, start: Sequence[float]) -> tuple[float, ...] | None:
    """The two-row enumerator's optimum when it is the vertex of ``start``'s
    type and provably alone within ``TIE_TOL``, else None.

    One lookup of ``start``'s type in ``_TYPES`` gives the free pair and the
    fixed coordinate ``hi`` at 1; a start of any other type gives None.  The
    corner is ``1 << hi``, whose sums are the rows' own entries ``r[hi]`` and
    ``s[hi]``, so p, solved with the enumerator's ``det`` and Cramer's rule
    and passing its residual test, is the enumerator's point bit for bit.
    It is accepted only if

        gap * (mu - eta) > mu * (TIE_TOL + eta * (|c_f0| + |c_f1|) + 18 * u * |c|_1),

    where gap = min(0 - c.p, c.1 - c.p), with the values added as the
    enumerator adds them, mu is the least distance of the solved pair to a
    bound, eta = 4 * RESIDUAL_TOL * kappa, kappa the infinity norm of the
    inverse of the 2x2 basis, and u the unit roundoff.

    Why that is exact.  Every row vanishes at 0 and at 1.  With one fixed
    coordinate at 0 and one at 1, the exact vertex p* of the basis therefore
    has the edges -p* and 1 - p*, and the polygon is the parallelogram 0, p*,
    1, 1 - p*: each ratio-test step is 1, and the two reduced costs are the
    value gaps from p* to 0 and to 1.  For any q, c.q - c.p* = g_0 t_0 +
    g_1 t_1 + y.Rq, with g_k those gaps, t_k = |q_k - p*_k| over the fixed
    coordinates and duals y, |y|_1 <= kappa * (|c_f0| + |c_f1|).  Every
    candidate the enumerator keeps has rows within RESIDUAL_TOL of 0, and
    any other than p either moves a fixed coordinate to its other bound, so
    t_0 + t_1 >= 1, or holds a solved one at a bound, and so lies within
    kappa * RESIDUAL_TOL of a point of the polygon where t_0 + t_1 >= 1 -
    eta / mu.  p lies within kappa * RESIDUAL_TOL of p*.  eta's factor 4
    covers these three terms and the rounding of the residuals, 18 * u *
    |c|_1 that of the values.  So every other candidate's value exceeds p's
    by more than TIE_TOL: the tie count is 1, and ``_pick`` returns p.  As
    mu > eta > BOUND_TOL, no snap moves the pair, and no other candidate's
    key, whose fixed coordinates are 0.0 or 1.0, rounds to p's."""
    t0, t1, t2, t3 = start
    vertex = _TYPES.get(((t0 > 0.0) + (t0 >= 1.0), (t1 > 0.0) + (t1 >= 1.0),
                         (t2 > 0.0) + (t2 >= 1.0), (t3 > 0.0) + (t3 >= 1.0)))
    if vertex is None:
        return None
    f0, f1, hi = vertex
    (r0, r1, r2, r3), (s0, s1, s2, s3) = r, s = program.rows
    a00, a01, a10, a11, e0, e1 = r[f0], r[f1], s[f0], s[f1], -r[hi], -s[hi]
    det = a00 * a11 - a01 * a10
    if -SINGULAR_TOL < det < SINGULAR_TOL:
        return None
    v = (e0 * a11 - a01 * e1) / det
    w = (a00 * e1 - e0 * a10) / det
    mu = min(v, 1.0 - v, w, 1.0 - w)
    eta = 4.0 * RESIDUAL_TOL * max(abs(a11) + abs(a01), abs(a10) + abs(a00)) / abs(det)
    if not mu > eta:
        return None
    p = list(_CORNERS[1 << hi])
    p[f0], p[f1] = v, w
    p0, p1, p2, p3 = p
    if not (-RESIDUAL_TOL <= r0 * p0 + r1 * p1 + r2 * p2 + r3 * p3 <= RESIDUAL_TOL
            and -RESIDUAL_TOL <= s0 * p0 + s1 * p1 + s2 * p2 + s3 * p3 <= RESIDUAL_TOL):
        return None
    c0, c1, c2, c3 = c = program.objective
    value = c0 * p0 + c1 * p1 + c2 * p2 + c3 * p3
    gap = min(0.0 - value, c0 + c1 + c2 + c3 - value)
    scale = eta * (abs(c[f0]) + abs(c[f1])) + 18.0 * _U * (abs(c0) + abs(c1) + abs(c2) + abs(c3))
    return tuple(p) if gap * (mu - eta) > mu * (TIE_TOL + scale) else None


def solve_with_ties(program: EoProgram,
                    start: Sequence[float] | None = None) -> tuple[DerivedPredictor, int]:
    """Solve the program; also report how many distinct optima tied.

    One ``_corner_sums`` table per row drives every candidate.  A box corner
    is decided once, by its entries: its dot-product residual up to the sign
    of a zero.  The zero corner's are 0.0, so the feasible set is never empty.
    Each solved point is a corner ``m`` over its fixed coordinates, with
    right-hand sides ``-sums[m]`` and ``-tums[m]``: the products with 0.0 and
    1.0 add the same values left to right, so may differ only in a zero's
    sign, which the snap makes +0.0.  Solved coordinates are snapped inline;
    a point is dropped at the first outside [0, 1], and skipped when all snap
    onto a corner, already decided.  A one-row point left is kept as is: its
    solved coordinate is unsnapped, so its residual is rounding alone, and is
    its only one inside (0, 1), so two points differ there or at a fixed one
    and need no key.  A two-row point must pass its residual, and its key rounds
    only solved coordinates strictly inside (0, 1).  Every point is its own
    snap, so the picked one becomes the predictor without a second snap.

    ``start``, a previous optimum's ``p``, only saves time: a two-row program
    first looks up ``start``'s vertex type and solves that one vertex, returned
    with a tie count of 1 when ``_certified`` proves that the enumeration would.
    Every other call, and every start the proof does not accept, enumerates."""
    c0, c1, c2, c3 = program.objective
    rows = program.rows
    if start is not None and len(rows) == 2:
        point = _certified(program, start)
        if point is not None:
            return _snapped_predictor(point), 1
    feasible = {}
    if len(rows) == 1:
        r = rows[0]
        sums = _corner_sums(r)
        for c, v in zip(_CORNERS, sums):
            if -RESIDUAL_TOL <= v <= RESIDUAL_TOL:
                feasible[c] = c
        for (f,), corners in _SOLVED[1]:
            det = r[f]
            if -SINGULAR_TOL < det < SINGULAR_TOL:
                continue
            for m in corners:
                v = -sums[m] / det
                v = 0.0 if -BOUND_TOL <= v <= BOUND_TOL else 1.0 if -BOUND_TOL <= v - 1.0 <= BOUND_TOL else v
                if not 0.0 < v < 1.0:
                    continue
                p = list(_CORNERS[m])
                p[f] = v
                point = tuple(p)
                feasible[point] = point
    else:
        (r0, r1, r2, r3), (s0, s1, s2, s3) = r, s = rows
        sums, tums = _corner_sums(r), _corner_sums(s)
        for c, v, u in zip(_CORNERS, sums, tums):
            if -RESIDUAL_TOL <= v <= RESIDUAL_TOL and -RESIDUAL_TOL <= u <= RESIDUAL_TOL:
                feasible[c] = c
        for (f0, f1), corners in _SOLVED[2]:
            a00, a01, a10, a11 = r[f0], r[f1], s[f0], s[f1]
            det = a00 * a11 - a01 * a10
            if -SINGULAR_TOL < det < SINGULAR_TOL:
                continue
            for m in corners:
                e0, e1 = -sums[m], -tums[m]
                v = (e0 * a11 - a01 * e1) / det
                v = 0.0 if -BOUND_TOL <= v <= BOUND_TOL else 1.0 if -BOUND_TOL <= v - 1.0 <= BOUND_TOL else v
                if not 0.0 <= v <= 1.0:
                    continue
                w = (a00 * e1 - e0 * a10) / det
                w = 0.0 if -BOUND_TOL <= w <= BOUND_TOL else 1.0 if -BOUND_TOL <= w - 1.0 <= BOUND_TOL else w
                if not 0.0 <= w <= 1.0 or not (0.0 < v < 1.0 or 0.0 < w < 1.0):
                    continue
                p = list(_CORNERS[m])
                p[f0], p[f1] = v, w
                if (-RESIDUAL_TOL <= r0 * p[0] + r1 * p[1] + r2 * p[2] + r3 * p[3] <= RESIDUAL_TOL
                        and -RESIDUAL_TOL <= s0 * p[0] + s1 * p[1] + s2 * p[2] + s3 * p[3] <= RESIDUAL_TOL):
                    point = tuple(p)
                    p[f0] = round(v, 12) if 0.0 < v < 1.0 else v
                    p[f1] = round(w, 12) if 0.0 < w < 1.0 else w
                    feasible.setdefault(tuple(p), point)

    values = [c0 * p[0] + c1 * p[1] + c2 * p[2] + c3 * p[3] for p in feasible.values()]
    best = min(values)
    ties = [p for p, v in zip(feasible.values(), values) if v <= best + TIE_TOL]

    # For programs built from a distribution the objective sums to
    # P[Y=-1] - P[Y=+1].  The test rounds 1 - csum and 1 + csum, so a csum
    # too small to move 1 (1e-17) puts ones first, where csum <= 0 would not.
    csum = sum(program.objective)
    return _snapped_predictor(_pick(ties, 1.0 - csum >= 1.0 + csum)), len(ties)


def solve(program: EoProgram, start: Sequence[float] | None = None) -> DerivedPredictor:
    """Predictor whose ``p`` is a global minimizer at a vertex of the
    feasible polytope; its optimal value is ``program.value(pred.p)``.
    Objective ties within ``TIE_TOL`` go to a tied constant classifier, ones
    first unless ``1 + sum(objective) > 1 - sum(objective)`` (for a program
    from a distribution, unless P[Y=-1] > P[Y=+1]), else to the
    lexicographically smallest tied vertex (see ``_pick``).  A ``start``, a
    previous optimum's ``p``, may make the solve faster but never changes its
    answer (see ``solve_with_ties``)."""
    predictor, _ = solve_with_ties(program, start)
    return predictor

