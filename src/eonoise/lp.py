"""Exact solver for the 4-variable postprocessing LP.

The program minimizes a linear objective over the box [0, 1]^4 subject to
homogeneous equality constraints, one per label class, each expressing that the
two attribute groups receive the same probability of a positive output.

Near-equal rates follow one rule: two label classes whose rate pairs lie within
``RATE_TIE_TOL`` of each other in both coordinates give one constraint, and
otherwise they give two (see ``EoProgram``).  The problem is fixed-size, so the
solver enumerates every candidate vertex exactly: the box corners, checked by
their residual alone, and every point with ``4 - len(rows)`` coordinates fixed
at a bound, not all at 0.0 (that gives the zero corner), and the rest solved
from the rows.  ``tests/lp_oracle.py`` snaps every corner and builds the
all-zero points too; it is the loop's bit-for-bit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

from .errors import DegenerateProgramError, RangeError
from .model import BOUND_TOL, DerivedPredictor, snap_probabilities

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
#: Index tables of ``_candidates``: fixed coordinates in ``combinations`` order,
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
        objective = tuple(float(v) for v in self.objective)
        if len(objective) != 4 or not all(math.isfinite(v) for v in objective):
            raise RangeError(f"objective {objective} must be four finite coefficients")
        rates = tuple(tuple(float(v) for v in pair) for pair in self.rates)
        if len(rates) != 2 or any(len(pair) != 2 for pair in rates):
            raise RangeError("rates must be two (h0, h1) pairs")
        for pair in rates:
            if not all(0.0 <= h <= 1.0 for h in pair):
                raise RangeError(f"rate pair {pair} outside [0, 1]")
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


def _candidates(rows):
    """Deterministically ordered candidate points covering every vertex that
    is not a box corner: every point with ``4 - len(rows)`` coordinates at a
    bound, not all at 0.0, and the rest solved from the rows by a 1x1 division
    or by Cramer's rule, in the order of the index tables.  With every fixed
    coordinate at 0.0 each right-hand side is +-0.0, so the solved point would
    snap to the zero corner.  The right-hand sides are summed left to right;
    snapping clears a zero's sign."""
    cands = []
    if len(rows) == 1:
        (r,) = rows
        for i0, i1, i2, f in _FIX_ONE_ROW:
            det = r[f]
            if abs(det) < SINGULAR_TOL:
                continue
            for b0, b1, b2 in _BOUNDS_THREE:
                p = [0.0, 0.0, 0.0, 0.0]
                p[i0], p[i1], p[i2], p[f] = b0, b1, b2, -(r[i0] * b0 + r[i1] * b1 + r[i2] * b2) / det
                cands.append(p)
        return cands
    r, s = rows
    for i0, i1, f0, f1 in _FIX_TWO_ROWS:
        a00, a01, a10, a11 = r[f0], r[f1], s[f0], s[f1]
        det = a00 * a11 - a01 * a10
        if abs(det) < SINGULAR_TOL:
            continue
        for b0, b1 in _BOUNDS_TWO:
            c0, c1 = -(r[i0] * b0 + r[i1] * b1), -(s[i0] * b0 + s[i1] * b1)
            p = [0.0, 0.0, 0.0, 0.0]
            p[i0], p[i1] = b0, b1
            p[f0], p[f1] = (c0 * a11 - a01 * c1) / det, (a00 * c1 - c0 * a10) / det
            cands.append(p)
    return cands


def _pick(ties: Sequence[tuple[float, ...]], ones_first: bool) -> tuple[float, ...]:
    """Select among tied optima: the first constant classifier tied, trying
    ones then zeros if ``ones_first`` and zeros then ones otherwise, else the
    lexicographically smallest vertex."""
    for constant in (_ONES, _ZEROS) if ones_first else (_ZEROS, _ONES):
        if constant in ties:
            return constant
    return min(ties)


def solve_with_ties(program: EoProgram) -> tuple[DerivedPredictor, int]:
    """Solve the program; also report how many distinct optima tied.  Each
    feasible box corner, both constant classifiers among them (each row's
    entries sum to zero), is its own key: snapping and rounding to 12 digits
    leave 0.0 and 1.0 as they are.  The solved points of ``_candidates`` follow."""
    feasible = {c: c for c in _CORNERS if program.residual(c) <= RESIDUAL_TOL}
    for raw in _candidates(program.rows):
        p = snap_probabilities(raw)
        if p is not None and program.residual(p) <= RESIDUAL_TOL:
            key = (round(p[0], 12), round(p[1], 12), round(p[2], 12), round(p[3], 12))
            feasible.setdefault(key, p)
    if not feasible:
        raise DegenerateProgramError("no feasible candidate point; invalid program")

    values = [program.value(p) for p in feasible.values()]
    best = min(values)
    ties = [p for p, v in zip(feasible.values(), values) if v <= best + TIE_TOL]

    # For programs built from a distribution the objective sums to
    # P[Y=-1] - P[Y=+1].  The test rounds 1 - csum and 1 + csum, so a csum
    # too small to move 1 (1e-17) puts ones first, where csum <= 0 would not.
    csum = sum(program.objective)
    return DerivedPredictor(_pick(ties, 1.0 - csum >= 1.0 + csum)), len(ties)


def solve(program: EoProgram) -> DerivedPredictor:
    """Predictor whose ``p`` is a global minimizer at a vertex of the
    feasible polytope; its optimal value is ``program.value(pred.p)``.
    Objective ties within ``TIE_TOL`` go to a tied constant classifier, ones
    first unless ``1 + sum(objective) > 1 - sum(objective)`` (for a program
    from a distribution, unless P[Y=-1] > P[Y=+1]), else to the
    lexicographically smallest tied vertex (see ``_pick``)."""
    predictor, _ = solve_with_ties(program)
    return predictor

