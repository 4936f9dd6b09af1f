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

Run as a script (``PYTHONPATH=src python tests/lp_oracle.py``), it makes the
same comparison at full scale, on every program of a ``sweep-presets`` pass and
of ``derive-single`` seeds 0 and 1, and times the solver on them.
"""

import sys
from itertools import combinations, product
from pathlib import Path

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


def sweep_programs(step: float):
    """The grid programs of ``eonoise sweep`` over every preset on the grid
    0:0.5:``step``, built as ``cli.run_sweep`` builds them; a ``sweep-presets``
    pass solves the 12,024 of step 0.001."""
    import numpy as np

    from eonoise import ProblemInstance, cli
    from eonoise.perturb import GammaSchedule
    from eonoise.programs import grid_programs

    gamma10 = np.array(cli.grid_points(0.0, 0.5, step))
    programs = []
    for preset in cli.PRESETS.values():
        inst = ProblemInstance(base=cli.BALANCED_BASE, alpha1=preset["alpha1"],
                               beta1=preset["beta1"], alpha2=preset["alpha2"],
                               beta2=preset["beta2"])
        programs += grid_programs(inst, GammaSchedule(preset["schedule"]).grid_rates(gamma10))
    return programs


def _derive_programs(seed):
    """The 10,000 programs one ``derive-single`` pass solves, built as
    ``derive_predictor`` builds them from the benchmark's seeded inputs."""
    import eonoise
    from eonoise.programs import build_clean_program, build_corrupted_program
    from worker import draw_derive_inputs

    return [build_clean_program(inst) if spec.is_zero else build_corrupted_program(inst, spec)
            for inst, spec in draw_derive_inputs(eonoise, seed)]


def _main() -> int:
    """Compare ``lp.solve_with_ties`` with this oracle, bit for bit (``repr`` of
    ``p`` and the tie count), on the benchmark's programs, and time the solver.

        PYTHONPATH=src python tests/lp_oracle.py

    Prints one line per program set and exits 1 on any mismatch."""
    import time

    from eonoise import lp

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    sets = {"sweep-presets": sweep_programs(0.001),
            "derive-single seed 0": _derive_programs(0),
            "derive-single seed 1": _derive_programs(1)}
    failed = False
    for name, programs in sets.items():
        mismatches = tied = 0
        for prog in programs:
            pred, ties = lp.solve_with_ties(prog)
            ref, ref_ties = solve_with_ties(prog)
            mismatches += (repr(pred.p), ties) != (repr(ref.p), ref_ties)
            tied += ties > 1
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for prog in programs:
                lp.solve_with_ties(prog)
            best = min(best, time.perf_counter() - start)
        print(f"{name}: {len(programs)} programs, {tied} tied, {mismatches} mismatches, "
              f"{best / len(programs) * 1e6:.1f} us per solve (best of 5)")
        failed |= mismatches > 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(_main())
