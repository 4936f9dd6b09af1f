"""Bit-for-bit reference for ``lp.solve_with_ties``: the vertex enumerator
written with ``combinations``/``product`` over the fixed coordinates.

It enumerates the candidates in the order of the package's loop over its index
table, but forms each right-hand side itself, as minus the products of the row
entries with the bounds 0.0 and 1.0 summed left to right, where the package
reads it off its table of each row's sums over the 16 box corners.  It takes
none of the package's shortcuts: it sends every box corner through the
package's snap rule (``model.snap_probabilities``) and its full dot-product
residual (``EoProgram.residual``), where the package checks a corner's table
entries alone; it builds the points whose fixed coordinates are all 0.0, which
the package skips as the zero corner; and it snaps, checks and rounds all four
coordinates of every solved point, where the package snaps only the solved
ones, keeps a one-row point with no residual test or key, and rounds a
two-row point's solved coordinates only where the snap left them strictly
inside (0, 1), as 0.0 and 1.0 are their own snap and key.  With the same
dedupe, every program must give the same ``p`` and tie count from both, so the
oracle checks the shortcuts rather than repeating them.
It keeps its own tie-break (``_pick``): the four-branch rule on the two label
priors that ``lp._pick``'s one ordered scan replaced.

Run as a script (``PYTHONPATH=src python tests/lp_oracle.py``), it makes the
same comparison at full scale, on every program of a ``sweep-presets`` pass, of
``derive-single`` seeds 0 and 1 and of a seeded set of one-row programs; then
once more on the sweep with each row started from the previous row's optimum,
as ``eonoise sweep`` solves it.  It times the solver on every set, the warm
sweep's rounds interleaved with the cold ones.  A warm row's vertex type is
read off its start in one lookup, and the certified corner's right-hand sides
are the rows' own entries at its one fixed coordinate at 1; one run on a
2-vCPU host timed 3.4 us per warm solve of the sweep against 15.4 us per cold
one.
"""

import sys
from itertools import combinations, product
from pathlib import Path

from eonoise.errors import DegenerateProgramError
from eonoise.lp import _CORNERS, RESIDUAL_TOL, SINGULAR_TOL, TIE_TOL, EoProgram
from eonoise.model import DerivedPredictor, snap_probabilities


def _right_hand_sides(rows, fixed, bounds):
    """Each row's right-hand side with coordinates ``fixed`` at ``bounds``:
    minus the sum of the products of its entries with the bounds, added left to
    right."""
    return [-sum(row[i] * b for i, b in zip(fixed, bounds)) for row in rows]


def solved_point(rows, fixed, bounds):
    """The point with coordinates ``fixed`` at ``bounds`` and the rest solved
    from the rows, by a 1x1 division or by Cramer's rule; None where the
    solved coordinates' matrix is singular."""
    free = tuple(k for k in range(4) if k not in fixed)
    a = [[row[k] for k in free] for row in rows]
    det = a[0][0] if len(rows) == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if abs(det) < SINGULAR_TOL:
        return None
    r = _right_hand_sides(rows, fixed, bounds)
    if len(rows) == 1:
        solved = (r[0] / det,)
    else:
        solved = ((r[0] * a[1][1] - a[0][1] * r[1]) / det,
                  (a[0][0] * r[1] - r[0] * a[1][0]) / det)
    p = [0.0, 0.0, 0.0, 0.0]
    for k, v in zip(fixed + free, bounds + solved):
        p[k] = v
    return tuple(p)


def _candidates(program: EoProgram):
    """Deterministically ordered candidate points covering every vertex: the
    box corners, which include the two constant classifiers (feasible for every
    program, as each row's entries sum to zero), then every ``solved_point``
    with ``4 - len(rows)`` coordinates at a bound."""
    rows = program.rows
    cands = list(_CORNERS)
    for fixed in combinations(range(4), 4 - len(rows)):
        for bounds in product((0.0, 1.0), repeat=len(fixed)):
            p = solved_point(rows, fixed, bounds)
            if p is None:
                break
            cands.append(p)
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
    ``derive_predictor`` builds them from the benchmark's seeded inputs,
    every one of which has a spec."""
    import eonoise
    from eonoise.programs import build_corrupted_program
    from worker import draw_derive_inputs

    return [build_corrupted_program(inst, spec) for inst, spec in draw_derive_inputs(eonoise, seed)]


def one_row_programs(count: int, seed: int = 0):
    """``count`` seeded programs with one row, which the benchmark's sets hold
    few of: each rate is 0, 1, 1e-12 or 1 - 1e-12 three times in ten and
    uniform otherwise, the second pair lies within 0 to 5e-10 of the first
    (under ``RATE_TIE_TOL``), and three objectives in ten are quarters, so
    optima tie."""
    import numpy as np

    rng = np.random.default_rng(seed)
    edges = (0.0, 1.0, 1e-12, 1.0 - 1e-12)
    programs = []
    for _ in range(count):
        first = [float(rng.choice(edges)) if rng.random() < 0.3 else rng.random() for _ in range(2)]
        shift = float(rng.choice((0.0, 1e-16, 1e-12, 1e-10, 5e-10)))
        second = [min(max(h + shift * rng.uniform(-1.0, 1.0), 0.0), 1.0) for h in first]
        objective = rng.uniform(-1.0, 1.0, 4)
        if rng.random() < 0.3:
            objective = np.round(objective * 4.0) / 4.0
        programs.append(EoProgram(tuple(objective), (tuple(first), tuple(second))))
        assert len(programs[-1].rows) == 1
    return programs


def _main() -> int:
    """Compare ``lp.solve_with_ties`` with this oracle, bit for bit (``repr`` of
    ``p`` and the tie count), on the benchmark's programs and on 30,000 one-row
    programs.  Then solve the sweep's programs again with each preset's rows in
    grid order, every row but the first from the previous row's ``p`` as
    ``cli.run_sweep`` does, compare those too, and count how many rows the
    start certified and how many fell back to the enumeration.  Last, time the
    solver on every set in five rounds, each round solving every set once in
    turn, so that the warm sweep and the cold one are timed side by side.

        PYTHONPATH=src python tests/lp_oracle.py

    Prints one line per program set and exits 1 on any mismatch."""
    import time

    from eonoise import cli, lp

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    sets = {"sweep-presets": sweep_programs(0.001),
            "derive-single seed 0": _derive_programs(0),
            "derive-single seed 1": _derive_programs(1),
            "one-row seed 0": one_row_programs(30000)}
    failed = False
    refs, lines = {}, {}
    for name, programs in sets.items():
        mismatches = tied = 0
        refs[name] = [solve_with_ties(prog) for prog in programs]
        for prog, (ref, ref_ties) in zip(programs, refs[name]):
            pred, ties = lp.solve_with_ties(prog)
            mismatches += (repr(pred.p), ties) != (repr(ref.p), ref_ties)
            tied += ties > 1
        lines[name] = f"{name}: {len(programs)} programs, {tied} tied, {mismatches} mismatches"
        failed |= mismatches > 0

    programs = sets["sweep-presets"]
    rows = len(programs) // len(cli.PRESETS)
    starts, mismatches, certified = [], 0, lp._certified
    counts = {True: 0, False: 0}

    def counting(program, start):
        point = certified(program, start)
        counts[point is not None] += 1
        return point

    lp._certified = counting
    try:
        for i, (prog, (ref, ref_ties)) in enumerate(zip(programs, refs["sweep-presets"])):
            starts.append(None if i % rows == 0 else start)
            pred, ties = lp.solve_with_ties(prog, starts[-1])
            mismatches += (repr(pred.p), ties) != (repr(ref.p), ref_ties)
            start = pred.p
    finally:
        lp._certified = certified
    warm = "sweep-presets from the previous row"
    lines[warm] = (f"{warm}: {len(programs)} programs, {counts[True]} certified, "
                   f"{counts[False]} fell back, {len(programs) - sum(counts.values())} first rows, "
                   f"{mismatches} mismatches")
    failed |= mismatches > 0

    runs = {name: (lambda programs=programs: [lp.solve_with_ties(prog) for prog in programs])
            for name, programs in sets.items()}
    runs[warm] = lambda: [lp.solve_with_ties(prog, start) for prog, start in zip(programs, starts)]
    sets[warm] = programs
    times = _interleaved_rounds(time, runs)
    for name, spent in times.items():
        print(f"{lines[name]}, {min(spent) / len(sets[name]) * 1e6:.1f} us per solve (best of 5)")
    ratios = sorted(w / c for w, c in zip(times[warm], times["sweep-presets"]))
    print(f"warm sweep over cold sweep: {ratios[2]:.2f} of the time (median of 5 rounds)")
    return 1 if failed else 0


def _interleaved_rounds(time, runs) -> dict[str, list[float]]:
    """Five wall times of each of the named ``runs``, in seconds.  Each of five
    rounds times every run once in turn, so a change of the host's speed phase
    between rounds moves every run's time alike, and ratios within one round
    hold."""
    times = {name: [] for name in runs}
    for _ in range(5):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    raise SystemExit(_main())
