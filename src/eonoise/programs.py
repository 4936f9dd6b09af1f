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

import numpy as np

from .errors import EmptyCellError, RangeError
from .lp import EoProgram, solve_with_ties
from .model import (
    A_VALUES,
    DerivedPredictor,
    PerturbationSpec,
    ProblemInstance,
    Y_VALUES,
)


def _program(joint, rates) -> EoProgram:
    """LP from a joint and positive rates, both nested lists of floats
    indexed like the (2, 2, 2) joint and its first two axes."""
    objective = tuple(joint[1][a][yti] - joint[0][a][yti] for yti in (0, 1) for a in A_VALUES)
    return EoProgram(objective=objective, rates=rates)


def _rates(joint) -> list[list[float]]:
    """P[prediction=+1 | Y=y, attribute=a] of a nested-list joint."""
    rates = []
    for y, by_attr in zip(Y_VALUES, joint):
        row = []
        for a, (pos, neg) in zip(A_VALUES, by_attr):
            mass = pos + neg
            if mass <= 0.0:
                raise EmptyCellError(f"no mass at (Y={y}, training attribute={a})")
            row.append(pos / mass)
        rates.append(row)
    return rates


def _clean_joint(inst: ProblemInstance) -> list[list[list[float]]]:
    return [[[inst.joint(y, a, yt) for yt in Y_VALUES] for a in A_VALUES] for y in Y_VALUES]


def build_clean_program(inst: ProblemInstance) -> EoProgram:
    """LP that the postprocessing method solves with the true attribute."""
    rates = [[inst.rate(y, a) for a in A_VALUES] for y in Y_VALUES]
    return _program(_clean_joint(inst), rates)


def build_corrupted_joint(inst: ProblemInstance, spec: PerturbationSpec) -> np.ndarray:
    """Exact (2, 2, 2) distribution of (label, corrupted attribute, prediction).

    Works for general (prediction-dependent) flip specifications:
    P[Y=y, corrupted=a', prediction=yt] = sum over a of
    P[corrupted=a' | y, a, yt] * P[Y=y, A=a, prediction=yt].
    """
    clean = _clean_joint(inst)
    joint = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for yi, y in enumerate(Y_VALUES):
        for a in A_VALUES:
            for yti, yt in enumerate(Y_VALUES):
                flip = spec.gamma_given_pred(y, a, yt)
                mass = clean[yi][a][yti]
                joint[yi][a][yti] += (1.0 - flip) * mass
                joint[yi][1 - a][yti] += flip * mass
    return np.array(joint)


def build_corrupted_program(inst: ProblemInstance, spec: PerturbationSpec) -> EoProgram:
    """LP with the attribute replaced by its corrupted version everywhere."""
    joint = build_corrupted_joint(inst, spec).tolist()
    return _program(joint, _rates(joint))


def program_from_table(table) -> EoProgram:
    """LP built from an empirical (label, corrupted attribute, prediction)
    table of counts or probabilities, laid out like a joint."""
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2, 2):
        raise RangeError(f"table must be (2, 2, 2), got {t.shape}")
    if not (np.isfinite(t) & (t >= 0)).all():
        raise RangeError("table cells must be finite and nonnegative")
    total = t.sum()
    if total <= 0:
        raise EmptyCellError("table carries no mass")
    joint = (t / total).tolist()
    return _program(joint, _rates(joint))


def derive_predictor(inst: ProblemInstance,
                     spec: PerturbationSpec | None = None) -> DerivedPredictor:
    """Derived fair predictor; trained on the corrupted attribute when a
    nonzero spec is given, on the true attribute otherwise."""
    if spec is None or spec.is_zero:
        program = build_clean_program(inst)
    else:
        program = build_corrupted_program(inst, spec)
    predictor, _ = solve_with_ties(program)
    return predictor
