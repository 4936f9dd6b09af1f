"""Exact solver for the 4-variable postprocessing LP.

The program minimizes a linear objective over the box [0, 1]^4 subject to
homogeneous equality constraints, one per label class, each expressing that the
two attribute groups receive the same probability of a positive output.

Near-equal rates follow one rule: two label classes whose rate pairs lie within
``RATE_TIE_TOL`` of each other in both coordinates give one constraint, and
otherwise they give two (see ``EoProgram``).  The problem is fixed-size, so the
solver enumerates every candidate vertex exactly: the box corners, checked by
their residual alone, read off a table of each row's subset sums, and every
point with ``4 - len(rows)`` coordinates fixed at a bound, not all at 0.0 (that
gives the zero corner), and the rest solved from the rows.  The snap to a bound
touches only the solved coordinates, and the 12-digit dedupe key rounds only
those strictly inside (0, 1): 0.0 and 1.0 are their own snap and key, so the
result is exactly that of snapping and rounding all four coordinates.
``tests/lp_oracle.py``, the loop's bit-for-bit reference, takes none of these
shortcuts.
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
#: Index tables of ``solve_with_ties``: fixed coordinates in ``combinations`` order,
#: then the free ones; the bounds they take in ``product`` order, bar all-zero.
_FIX_ONE_ROW, _FIX_TWO_ROWS = (tuple(f + tuple(k for k in range(4) if k not in f)
                                     for f in combinations(range(4), n)) for n in (3, 2))
_BOUNDS_THREE, _BOUNDS_TWO = (tuple(product((0.0, 1.0), repeat=n))[1:] for n in (3, 2))


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


def solve_with_ties(program: EoProgram) -> tuple[DerivedPredictor, int]:
    """Solve the program; also report how many distinct optima tied.

    A box corner's residual is its ``_corner_sums`` entry (up to the sign of a
    zero, which ``abs`` drops), and each feasible corner is its own key.  The
    zero corner's is exactly 0.0, so the feasible set is never empty; the ones
    corner's is within ``RESIDUAL_TOL``, as each row's entries sum to zero.  The
    solved points follow in index-table order, right-hand sides summed left to
    right, snapped inline and dropped at the first solved coordinate outside
    [0, 1]; the key rounds only solved coordinates the snap left off 0.0 and 1.0.
    Every point is thus its own snap, so the picked one becomes the predictor
    without ``DerivedPredictor``'s second snap."""
    c0, c1, c2, c3 = program.objective
    rows = program.rows
    feasible = {}
    if len(rows) == 1:
        r0, r1, r2, r3 = r = rows[0]
        for c, v in zip(_CORNERS, _corner_sums(r)):
            if abs(v) <= RESIDUAL_TOL:
                feasible[c] = c
        for i0, i1, i2, f in _FIX_ONE_ROW:
            det = r[f]
            if abs(det) < SINGULAR_TOL:
                continue
            for b0, b1, b2 in _BOUNDS_THREE:
                v = -(r[i0] * b0 + r[i1] * b1 + r[i2] * b2) / det
                v = 0.0 if abs(v) <= BOUND_TOL else 1.0 if abs(v - 1.0) <= BOUND_TOL else v
                if not 0.0 <= v <= 1.0:
                    continue
                p = [0.0, 0.0, 0.0, 0.0]
                p[i0], p[i1], p[i2], p[f] = b0, b1, b2, v
                if abs(r0 * p[0] + r1 * p[1] + r2 * p[2] + r3 * p[3]) <= RESIDUAL_TOL:
                    point = tuple(p)
                    p[f] = round(v, 12) if 0.0 < v < 1.0 else v
                    feasible.setdefault(tuple(p), point)
    else:
        (r0, r1, r2, r3), (s0, s1, s2, s3) = r, s = rows
        for c, v, u in zip(_CORNERS, _corner_sums(r), _corner_sums(s)):
            if abs(v) <= RESIDUAL_TOL and abs(u) <= RESIDUAL_TOL:
                feasible[c] = c
        for i0, i1, f0, f1 in _FIX_TWO_ROWS:
            a00, a01, a10, a11 = r[f0], r[f1], s[f0], s[f1]
            det = a00 * a11 - a01 * a10
            if abs(det) < SINGULAR_TOL:
                continue
            for b0, b1 in _BOUNDS_TWO:
                e0, e1 = -(r[i0] * b0 + r[i1] * b1), -(s[i0] * b0 + s[i1] * b1)
                v = (e0 * a11 - a01 * e1) / det
                v = 0.0 if abs(v) <= BOUND_TOL else 1.0 if abs(v - 1.0) <= BOUND_TOL else v
                if not 0.0 <= v <= 1.0:
                    continue
                w = (a00 * e1 - e0 * a10) / det
                w = 0.0 if abs(w) <= BOUND_TOL else 1.0 if abs(w - 1.0) <= BOUND_TOL else w
                if not 0.0 <= w <= 1.0:
                    continue
                p = [0.0, 0.0, 0.0, 0.0]
                p[i0], p[i1], p[f0], p[f1] = b0, b1, v, w
                if (abs(r0 * p[0] + r1 * p[1] + r2 * p[2] + r3 * p[3]) <= RESIDUAL_TOL
                        and abs(s0 * p[0] + s1 * p[1] + s2 * p[2] + s3 * p[3]) <= RESIDUAL_TOL):
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


def solve(program: EoProgram) -> DerivedPredictor:
    """Predictor whose ``p`` is a global minimizer at a vertex of the
    feasible polytope; its optimal value is ``program.value(pred.p)``.
    Objective ties within ``TIE_TOL`` go to a tied constant classifier, ones
    first unless ``1 + sum(objective) > 1 - sum(objective)`` (for a program
    from a distribution, unless P[Y=-1] > P[Y=+1]), else to the
    lexicographically smallest tied vertex (see ``_pick``)."""
    predictor, _ = solve_with_ties(program)
    return predictor

