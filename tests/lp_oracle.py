"""Bit-for-bit reference for ``lp.solve_with_ties``: the vertex enumerator
written with ``combinations``/``product`` over the fixed coordinates.

It enumerates the candidates in the order, and with the arithmetic, of the
package's inlined loop over its index tables, but without its shortcuts: it
sends every box corner through the package's snap rule
(``model.snap_probabilities``) and its full dot-product residual
(``EoProgram.residual``), where the package checks a corner's residual alone
and reads it off a table of each row's subset sums; it builds the points whose
fixed coordinates are all 0.0, which the package skips as the zero corner; and
it snaps and rounds all four coordinates of every solved point, where the
package snaps only the solved ones and rounds only those the snap left
strictly inside (0, 1), as 0.0 and 1.0 are their own snap and key.  With the
same dedupe, every program must give the same ``p`` and tie count from both,
so the oracle checks the shortcuts rather than repeating them.
It keeps its own tie-break (``_pick``): the four-branch rule on the two label
priors that ``lp._pick``'s one ordered scan replaced.
"""

from itertools import combinations, product

from eonoise.errors import DegenerateProgramError
from eonoise.lp import _CORNERS, RESIDUAL_TOL, SINGULAR_TOL, TIE_TOL, EoProgram
from eonoise.model import DerivedPredictor, snap_probabilities


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


_ONES = (1.0, 1.0, 1.0, 1.0)
_ZEROS = (0.0, 0.0, 0.0, 0.0)


def _pick(ties, prior_pos: float, prior_neg: float):
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
