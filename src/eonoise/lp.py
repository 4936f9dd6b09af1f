"""Exact solver for the 4-variable postprocessing LP.

The program minimizes a linear objective over the box [0, 1]^4 subject to
homogeneous equality constraints, one per label class, each expressing that the
two attribute groups receive the same probability of a positive output.

Near-equal rates follow one rule: two label classes whose rate pairs lie within
``RATE_TIE_TOL`` of each other in both coordinates give one constraint, and
otherwise they give two (see ``EoProgram``).  The problem is fixed-size, so the
solver enumerates every candidate vertex exactly instead of delegating to a
general-purpose LP library: the box corners, and every point with
``4 - len(rows)`` coordinates fixed at a bound and the rest solved from the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

from .errors import DegenerateProgramError, RangeError
from .model import DerivedPredictor, snap_probabilities

RATE_TIE_TOL = 1e-9
RESIDUAL_TOL = 1e-12
SINGULAR_TOL = 1e-12
TIE_TOL = 1e-12

_ONES = (1.0, 1.0, 1.0, 1.0)
_ZEROS = (0.0, 0.0, 0.0, 0.0)
#: The 16 corners of the box [0, 1]^4, bit k of the index giving coordinate k.
_CORNERS = tuple(tuple(float((bits >> k) & 1) for k in range(4)) for bits in range(16))


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
        return max(abs(r[0] * p[0] + r[1] * p[1] + r[2] * p[2] + r[3] * p[3]) for r in self.rows)


def _candidates(program: EoProgram):
    """Deterministically ordered candidate points covering every vertex: the
    box corners, which include the two constant classifiers (feasible for every
    program, as each row's entries sum to zero), then every point with
    ``4 - len(rows)`` coordinates at a bound and the rest solved from the rows
    by a 1x1 division or by Cramer's rule."""
    rows = program.rows
    cands = list(_CORNERS)
    for fixed in combinations(range(4), 4 - len(rows)):
        free = tuple(k for k in range(4) if k not in fixed)
        a = [[row[k] for k in free] for row in rows]
        det = a[0][0] if len(rows) == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if abs(det) < SINGULAR_TOL:
            continue
        for bounds in product((0.0, 1.0), repeat=len(fixed)):
            r = [-sum(row[i] * b for i, b in zip(fixed, bounds)) for row in rows]
            if len(rows) == 1:
                solved = (r[0] / det,)
            else:
                solved = ((r[0] * a[1][1] - a[0][1] * r[1]) / det,
                          (a[0][0] * r[1] - r[0] * a[1][0]) / det)
            p = [0.0, 0.0, 0.0, 0.0]
            for k, v in zip(fixed + free, bounds + solved):
                p[k] = v
            cands.append(tuple(p))
    return cands


def _pick(ties: Sequence[tuple[float, ...]], prior_pos: float, prior_neg: float) -> tuple[float, ...]:
    """Select among tied optima: constant ones, then constant zeros, then the
    lexicographically smallest vertex.

    If both constants are tied, the constant matching the larger label prior
    wins (ones when P[Y=+1] >= P[Y=-1]).
    """
    has_ones = _ONES in ties
    has_zeros = _ZEROS in ties
    if has_ones and has_zeros:
        return _ONES if prior_pos >= prior_neg else _ZEROS
    if has_ones:
        return _ONES
    if has_zeros:
        return _ZEROS
    return min(ties)


def solve_with_ties(program: EoProgram) -> tuple[DerivedPredictor, int]:
    """Solve the program; also report how many distinct optima tied."""
    feasible = []
    seen = set()
    for raw in _candidates(program):
        p = snap_probabilities(raw)
        if p is None or program.residual(p) > RESIDUAL_TOL:
            continue
        key = tuple(round(v, 12) for v in p)
        if key in seen:
            continue
        seen.add(key)
        feasible.append(p)
    if not feasible:
        raise DegenerateProgramError("no feasible candidate point; invalid program")

    values = [program.value(p) for p in feasible]
    best = min(values)
    ties = [p for p, v in zip(feasible, values) if v <= best + TIE_TOL]

    # For programs built from a distribution the objective coefficients sum
    # to P[Y=-1] - P[Y=+1], which is exactly the prior gap the constant
    # tie-break needs.
    csum = sum(program.objective)
    prior_pos = (1.0 - csum) / 2.0
    prior_neg = (1.0 + csum) / 2.0
    return DerivedPredictor(_pick(ties, prior_pos, prior_neg)), len(ties)


def solve(program: EoProgram) -> DerivedPredictor:
    """Predictor whose ``p`` is a global minimizer at a vertex of the
    feasible polytope; its optimal value is ``program.value(pred.p)``.

    Objective ties within ``TIE_TOL`` are resolved by preferring the
    constant-ones classifier, then constant-zeros, then the lexicographically
    smallest vertex.
    """
    predictor, _ = solve_with_ties(program)
    return predictor

