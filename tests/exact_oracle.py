"""Exact rational oracle for the 4-variable postprocessing LP.

Reads the program's rates and objective as the rationals they are, applies
the package's near-equal rule (rate pairs within ``RATE_TIE_TOL`` in both
coordinates are one constraint), and enumerates the vertices of
{p in [0, 1]^4 : rows . p = 0} in exact arithmetic: every assignment of each
coordinate to 0, 1 or free whose free coordinates the rows determine
uniquely.  The rows are built here from ``program.rates``, not taken from
the program's float ``rows``, so the only tolerance is the rule's own and
the result says what the program's optimum is, not what a floating-point
solver finds.
"""

from fractions import Fraction
from itertools import product

from eonoise.lp import RATE_TIE_TOL


def _rows(program) -> list[list[Fraction]]:
    """The constraint rows under the near-equal rule, in exact arithmetic.

    The rule compares the rate differences as the package computes them, in
    floating point: an exact comparison can put a pair 5e-27 over the
    threshold, and so give two rows where ``EoProgram`` keeps one.
    """
    (a0, a1), (b0, b1) = program.rates
    tied = abs(b0 - a0) <= RATE_TIE_TOL and abs(b1 - a1) <= RATE_TIE_TOL
    pairs = program.rates[:1] if tied else program.rates
    return [[h0, -h1, 1 - h0, -(1 - h1)] for h0, h1 in
            ([Fraction(h) for h in pair] for pair in pairs)]


def _unique_solution(a, b):
    """x with a x = b, or None unless the system has exactly one solution."""
    n = len(a[0])
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        pivot = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    if any(row[n] != 0 for row in m[n:]):
        return None
    return [m[i][n] for i in range(n)]


def exact_minimum(program) -> Fraction:
    rows = _rows(program)
    c = [Fraction(v) for v in program.objective]
    best = None
    for assign in product((0, 1, None), repeat=4):
        free = [k for k in range(4) if assign[k] is None]
        p = [None if v is None else Fraction(v) for v in assign]
        fixed = [-sum(row[k] * p[k] for k in range(4) if p[k] is not None) for row in rows]
        if free:
            x = _unique_solution([[row[k] for k in free] for row in rows], fixed)
            if x is None:
                continue
            for k, v in zip(free, x):
                p[k] = v
        elif any(fixed):
            continue
        if all(0 <= v <= 1 for v in p):
            value = sum(ci * pi for ci, pi in zip(c, p))
            best = value if best is None else min(best, value)
    return best
