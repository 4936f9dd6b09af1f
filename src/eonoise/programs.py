"""Build the postprocessing LP and derive predictors from it.

Every program is read off a joint over (label, training attribute,
prediction) by ``_joint_program``: the objective coefficient of p[(yt, a)]
is P[Y=-1, a, yt] - P[Y=+1, a, yt], and the constraint row for label y
equates the two groups' positive-prediction rates P[prediction=+1 | Y=y, a],
the joint's conditionals.  The clean program reads the joint with the true
attribute, the corrupted program the exact joint with the corrupted
attribute (at zero flip rates the clean joint, bit for bit), and the record
program a table of counts.  So a (label, attribute) pair with no mass is an
EmptyCellError on every path.

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


def _clean_joint(inst: ProblemInstance) -> list[list[list[float]]]:
    """Nested joint of (label, attribute, prediction): P[Y=y, A=a] times the
    rate of prediction +1, or one minus it for -1."""
    rates = (inst.alpha1, inst.beta1, inst.alpha2, inst.beta2)
    cells = [[b * r, b * (1.0 - r)] for b, r in zip(inst.base, rates)]
    return [cells[0:2], cells[2:4]]


def _corrupt(clean, flips) -> list:
    """Nested corrupted joint from a nested clean joint and nested flip rates
    of floats or arrays, both indexed (label, attribute, prediction): the
    mass kept in each attribute plus the mass flipped into it."""
    return [[[(1.0 - f[0][t]) * c[0][t] + f[1][t] * c[1][t] for t in (0, 1)],
             [f[0][t] * c[0][t] + (1.0 - f[1][t]) * c[1][t] for t in (0, 1)]]
            for c, f in zip(clean, flips)]


def _joint_program(joint, raw=None, where="") -> EoProgram:
    """LP read off a nested joint of floats.  The first (label, attribute)
    pair in ``CELLS`` order whose mass in ``raw`` (the joint's own pair
    masses by default) is not positive is an EmptyCellError, its message
    led by ``where``; one whose share of the joint underflows to 0 is a
    RangeError."""
    masses = _masses(joint)
    shares = masses[0] + masses[1]
    for (y, a), mass, share in zip(CELLS, shares if raw is None else raw, shares):
        if mass <= 0.0:
            raise EmptyCellError(f"{where}no mass at (Y={y}, training attribute={a})")
        if share <= 0.0:
            raise RangeError(f"share of (Y={y}, training attribute={a}) underflows to 0")
    return EoProgram(objective=_objective(joint), rates=_positive_rates(joint, masses))


def build_clean_program(inst: ProblemInstance) -> EoProgram:
    """LP that the postprocessing method solves with the true attribute."""
    return _joint_program(_clean_joint(inst))


def build_corrupted_joint(inst: ProblemInstance, spec: PerturbationSpec) -> list:
    """Exact distribution of (label, corrupted attribute, prediction) as
    nested floats, ``np.array`` of which is the (2, 2, 2) array:
    P[Y=y, corrupted=a', prediction=yt] = sum over a of
    P[corrupted=a' | y, a, yt] * P[Y=y, A=a, prediction=yt]."""
    r = spec.rates  # in GENERAL_KEYS order, so it nests as (label, attribute, prediction)
    return _corrupt(_clean_joint(inst), [[r[0:2], r[2:4]], [r[4:6], r[6:8]]])


def build_corrupted_program(inst: ProblemInstance, spec: PerturbationSpec) -> EoProgram:
    """LP with the attribute replaced by its corrupted version everywhere."""
    return _joint_program(build_corrupted_joint(inst, spec))


def grid_programs(inst: ProblemInstance, flips) -> Iterator[EoProgram]:
    """One corrupted program per grid row, in order, from four float64
    arrays of prediction-independent flip rates in ``CELLS`` order, equal
    bit for bit to ``build_corrupted_program`` on that row.  Every row's
    pairs are checked when the first program is asked for; the programs are
    then built one at a time, so a caller that solves each in turn holds one
    at once."""
    g10, g11, gm10, gm11 = flips
    joint = _corrupt(_clean_joint(inst), [[[g10, g10], [g11, g11]], [[gm10, gm10], [gm11, gm11]]])
    masses = _masses(joint)
    empty = (np.stack([*masses[0], *masses[1]], axis=1) <= 0.0).any(axis=1)
    if empty.any():  # the first row at fault, named by its gamma10, names its first empty pair
        row = int(np.argmax(empty))
        where = f"at gamma10 = {float(g10[row]):.12g}, "
        _joint_program(np.array(joint)[..., row].tolist(), where=where)
    (h0, h1), (k0, k1) = _positive_rates(joint, masses)
    table = np.stack([*_objective(joint), h0, h1, k0, k1], axis=1).tolist()
    for c in table:
        yield EoProgram(objective=c[:4], rates=(c[4:6], c[6:]))


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
    return _joint_program((t / total).tolist(), pairs)


def derive_predictor(inst: ProblemInstance,
                     spec: PerturbationSpec | None = None) -> DerivedPredictor:
    """Derived fair predictor; trained on the corrupted attribute when a
    spec is given, on the true attribute otherwise."""
    return solve(build_clean_program(inst) if spec is None else build_corrupted_program(inst, spec))
