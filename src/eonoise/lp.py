"""Exact solver for the 4-variable postprocessing LP.

The program minimizes a linear objective over the box [0, 1]^4 subject to two
homogeneous equality constraints, one per label class, each expressing that the
two attribute groups receive the same probability of a positive output.  The
problem is fixed-size, so the solver enumerates every candidate vertex of the
feasible polytope exactly instead of delegating to a general-purpose LP
library: box corners, all systems with two coordinates fixed at a bound, and
all systems with three coordinates fixed at a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .errors import DegenerateProgramError, RangeError

BOUND_TOL = 1e-12
RESIDUAL_TOL = 1e-9
SINGULAR_TOL = 1e-12
TIE_TOL = 1e-12

_ONES = (1.0, 1.0, 1.0, 1.0)
_ZEROS = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EoProgram:
    """Objective vector and group rates of the postprocessing LP.

    ``objective`` is indexed over (prediction, attribute) cells in the
    package-wide order (see ``model.CELLS``).  ``rates[0]`` is the pair
    (h0, h1) of the two groups' positive-prediction rates for label +1,
    ``rates[1]`` the pair for label -1.  Each pair gives the constraint row
    ``(h0, -h1, 1-h0, -(1-h1))`` in ``rows``, which reads "group-0 positive
    rate equals group-1 positive rate".
    """

    objective: tuple[float, float, float, float]
    rates: tuple[tuple[float, float], tuple[float, float]]
    rows: tuple[tuple[float, float, float, float], tuple[float, float, float, float]] = field(init=False)

    def __post_init__(self) -> None:
        objective = tuple(float(v) for v in self.objective)
        if len(objective) != 4:
            raise RangeError("objective must have four coefficients")
        rates = tuple(tuple(float(v) for v in pair) for pair in self.rates)
        if len(rates) != 2 or any(len(pair) != 2 for pair in rates):
            raise RangeError("rates must be two (h0, h1) pairs")
        for pair in rates:
            if not all(0.0 <= h <= 1.0 for h in pair):
                raise RangeError(f"rate pair {pair} outside [0, 1]")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "rows", tuple((h0, -h1, 1.0 - h0, -(1.0 - h1)) for h0, h1 in rates))

    def value(self, p: Sequence[float]) -> float:
        c = self.objective
        return c[0] * p[0] + c[1] * p[1] + c[2] * p[2] + c[3] * p[3]

    def residual(self, p: Sequence[float]) -> float:
        """Largest absolute violation of the two equality constraints."""
        worst = 0.0
        for row in self.rows:
            r = row[0] * p[0] + row[1] * p[1] + row[2] * p[2] + row[3] * p[3]
            worst = max(worst, abs(r))
        return worst


@dataclass(frozen=True)
class LpSolution:
    p_star: tuple[float, float, float, float]
    objective_value: float


def _snap(p: Sequence[float]) -> tuple[float, ...] | None:
    """Clamp values within BOUND_TOL of a bound onto it; None if out of box."""
    out = []
    for v in p:
        if abs(v) <= BOUND_TOL:
            v = 0.0
        elif abs(v - 1.0) <= BOUND_TOL:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            return None
        out.append(float(v))
    return tuple(out)


def _candidates(program: EoProgram):
    """Deterministically ordered candidate points covering every vertex."""
    m0, m1 = program.rows
    cands = []

    # All box corners; includes the two constant classifiers, which are
    # feasible for every program (each row's entries sum to zero).
    for bits in range(16):
        cands.append(tuple(float((bits >> k) & 1) for k in range(4)))

    # Two coordinates fixed at a bound, the other two solved from the rows.
    for fixed in combinations(range(4), 2):
        free = tuple(k for k in range(4) if k not in fixed)
        k, l = free
        det = m0[k] * m1[l] - m0[l] * m1[k]
        if abs(det) < SINGULAR_TOL:
            continue
        i, j = fixed
        for bi in (0.0, 1.0):
            for bj in (0.0, 1.0):
                r0 = -(m0[i] * bi + m0[j] * bj)
                r1 = -(m1[i] * bi + m1[j] * bj)
                pk = (r0 * m1[l] - m0[l] * r1) / det
                pl = (m0[k] * r1 - r0 * m1[k]) / det
                p = [0.0, 0.0, 0.0, 0.0]
                p[i], p[j], p[k], p[l] = bi, bj, pk, pl
                cands.append(tuple(p))

    # Three coordinates fixed, one solved from the better-conditioned row.
    # Covers degenerate programs where every 2x2 subsystem is singular.
    for free_idx in range(4):
        fixed = tuple(k for k in range(4) if k != free_idx)
        a0, a1 = m0[free_idx], m1[free_idx]
        if max(abs(a0), abs(a1)) < SINGULAR_TOL:
            continue
        for bits in range(8):
            b = tuple(float((bits >> i) & 1) for i in range(3))
            r0 = -(m0[fixed[0]] * b[0] + m0[fixed[1]] * b[1] + m0[fixed[2]] * b[2])
            r1 = -(m1[fixed[0]] * b[0] + m1[fixed[1]] * b[1] + m1[fixed[2]] * b[2])
            val = r0 / a0 if abs(a0) >= abs(a1) else r1 / a1
            p = [0.0, 0.0, 0.0, 0.0]
            for i in range(3):
                p[fixed[i]] = b[i]
            p[free_idx] = val
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


def solve_with_ties(program: EoProgram) -> tuple[LpSolution, int]:
    """Solve the program; also report how many distinct optima tied."""
    feasible = []
    seen = set()
    for raw in _candidates(program):
        p = _snap(raw)
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
    chosen = _pick(ties, prior_pos, prior_neg)
    return LpSolution(chosen, program.value(chosen)), len(ties)


def solve(program: EoProgram) -> LpSolution:
    """Global minimizer at a vertex of the feasible polytope.

    Objective ties within ``TIE_TOL`` are resolved by preferring the
    constant-ones classifier, then constant-zeros, then the lexicographically
    smallest vertex.
    """
    solution, _ = solve_with_ties(program)
    return solution

