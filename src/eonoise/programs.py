"""Build the postprocessing LP, clean or under attribute corruption, and
derive predictors from it.

Every program is one formula applied to a joint over (label, training
attribute, prediction): the objective coefficient of p[(yt, a)] is
P[Y=-1, a, yt] - P[Y=+1, a, yt], and the constraint row for label y equates
the two groups' positive-prediction rates P[prediction=+1 | Y=y, a].  The
clean program takes the true attribute, the corrupted program the exact
joint with the corrupted attribute, and the record program a table of
counts.

Joints are (2, 2, 2) over (label, attribute, prediction), with index 0
standing for the value +1 on the label and prediction axes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import EmptyCellError, RangeError
from .lp import EoProgram, solve
from .model import (
    A_VALUES,
    CELLS,
    DerivedPredictor,
    PerturbationSpec,
    ProblemInstance,
    Y_VALUES,
)


def _objective(joint) -> tuple:
    """Objective coefficients of a nested joint of floats or arrays, indexed
    (label, attribute, prediction)."""
    return tuple(joint[1][a][yti] - joint[0][a][yti] for yti in (0, 1) for a in A_VALUES)


def _masses(joint) -> list:
    """P[Y=y, attribute=a] of a nested joint of floats or arrays."""
    return [[pos + neg for pos, neg in by_attr] for by_attr in joint]


def _positive_rates(joint, masses) -> list:
    """P[prediction=+1 | Y=y, attribute=a] of a nested joint of floats or
    arrays, given its ``_masses``."""
    return [[pos / mass for (pos, _), mass in zip(by_attr, by_mass)]
            for by_attr, by_mass in zip(joint, masses)]


def _rates(joint) -> list[list[float]]:
    """P[prediction=+1 | Y=y, attribute=a] of a nested-list joint."""
    masses = _masses(joint)
    for (y, a), mass in zip(CELLS, masses[0] + masses[1]):
        if mass <= 0.0:
            raise EmptyCellError(f"no mass at (Y={y}, training attribute={a})")
    return _positive_rates(joint, masses)


def _clean_joint(inst: ProblemInstance) -> list[list[list[float]]]:
    return [[[inst.joint(y, a, yt) for yt in Y_VALUES] for a in A_VALUES] for y in Y_VALUES]


def _corrupt(clean, flips) -> list:
    """``build_corrupted_joint``'s sum from a nested clean joint and nested
    flip rates of floats or arrays, both indexed (label, attribute,
    prediction)."""
    return [[[(1.0 - f[0][t]) * c[0][t] + f[1][t] * c[1][t] for t in (0, 1)],
             [f[0][t] * c[0][t] + (1.0 - f[1][t]) * c[1][t] for t in (0, 1)]]
            for c, f in zip(clean, flips)]


def build_clean_program(inst: ProblemInstance) -> EoProgram:
    """LP that the postprocessing method solves with the true attribute."""
    rates = [[inst.rate(y, a) for a in A_VALUES] for y in Y_VALUES]
    return EoProgram(objective=_objective(_clean_joint(inst)), rates=rates)


def build_corrupted_joint(inst: ProblemInstance, spec: PerturbationSpec) -> np.ndarray:
    """Exact (2, 2, 2) distribution of (label, corrupted attribute, prediction):
    P[Y=y, corrupted=a', prediction=yt] = sum over a of
    P[corrupted=a' | y, a, yt] * P[Y=y, A=a, prediction=yt].
    """
    r = spec.rates  # in GENERAL_KEYS order, so it nests as (label, attribute, prediction)
    return np.array(_corrupt(_clean_joint(inst), [[r[0:2], r[2:4]], [r[4:6], r[6:8]]]))


def build_corrupted_program(inst: ProblemInstance, spec: PerturbationSpec) -> EoProgram:
    """LP with the attribute replaced by its corrupted version everywhere."""
    joint = build_corrupted_joint(inst, spec).tolist()
    return EoProgram(objective=_objective(joint), rates=_rates(joint))


def grid_programs(inst: ProblemInstance, flips) -> Iterator[EoProgram]:
    """One program per grid row, in order, from four float64 arrays of
    prediction-independent flip rates in ``CELLS`` order: the clean program
    where all four rates are 0, as ``derive_predictor`` builds it, and the
    corrupted program elsewhere.  Every row's cells are checked when the
    first program is asked for; the programs are then built one at a time,
    so a caller that solves each in turn holds one at once."""
    g10, g11, gm10, gm11 = flips
    zero = (g10 == 0.0) & (g11 == 0.0) & (gm10 == 0.0) & (gm11 == 0.0)
    joint = _corrupt(_clean_joint(inst), [[[g10, g10], [g11, g11]], [[gm10, gm10], [gm11, gm11]]])
    masses = _masses(joint)
    empty = (np.stack([*masses[0], *masses[1]], axis=1) <= 0.0) & ~zero[:, None]
    if empty.any():
        row = int(np.argmax(empty.any(axis=1)))
        y, a = CELLS[int(np.argmax(empty[row]))]
        raise EmptyCellError(f"no mass at (Y={y}, training attribute={a})")
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-flip rows may have empty cells
        (h0, h1), (k0, k1) = _positive_rates(joint, masses)
    table = np.stack([*_objective(joint), h0, h1, k0, k1], axis=1).tolist()
    clean = build_clean_program(inst)
    for z, c in zip(zero.tolist(), table):
        yield clean if z else EoProgram(objective=c[:4], rates=(c[4:6], c[6:]))


def program_from_table(table) -> EoProgram:
    """LP built from an empirical (label, corrupted attribute, prediction)
    table of counts or probabilities, laid out like a joint.  An empty (label,
    attribute) pair is an EmptyCellError, one whose share underflows a RangeError."""
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2, 2):
        raise RangeError(f"table must be (2, 2, 2), got {t.shape}")
    if not (np.isfinite(t) & (t >= 0)).all():
        raise RangeError("table cells must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = t.sum()
        pairs = t.sum(axis=2).ravel().tolist()
    if total <= 0:
        raise EmptyCellError("table carries no mass")
    if total == np.inf:  # finite cells whose sum overflows; a power of two scales exactly
        t = t * 2.0**-4
        total = t.sum()
    joint = (t / total).tolist()
    masses = _masses(joint)
    for (y, a), raw, share in zip(CELLS, pairs, masses[0] + masses[1]):
        if raw <= 0.0:
            raise EmptyCellError(f"no mass at (Y={y}, training attribute={a})")
        if share <= 0.0:
            raise RangeError(f"share of (Y={y}, training attribute={a}) underflows to 0")
    return EoProgram(objective=_objective(joint), rates=_positive_rates(joint, masses))


def derive_predictor(inst: ProblemInstance,
                     spec: PerturbationSpec | None = None) -> DerivedPredictor:
    """Derived fair predictor; trained on the corrupted attribute when a
    nonzero spec is given, on the true attribute otherwise."""
    clean = spec is None or spec.is_zero
    return solve(build_clean_program(inst) if clean else build_corrupted_program(inst, spec))
