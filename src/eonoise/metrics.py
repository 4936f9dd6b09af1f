"""Closed-form bias and error of given and derived predictors, the bias
bound under attribute corruption, assumption checkers, and the conditional
independence measure.

Bias for a label class is the absolute gap between the two groups' positive
rates conditioned on that class; error is the probability of disagreeing with
the label.  Both always refer to the test phase, where predictions consult
the *true* attribute regardless of what the training phase saw.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCellError, RangeError
from .model import (CELL_INDEX, CELLS, GIVEN_PREDICTOR_P, DerivedPredictor, PerturbationSpec,
                    ProblemInstance)

INDEPENDENCE_TOL = 1e-12


def bias_given(inst: ProblemInstance, y: int) -> float:
    """Group gap of the given classifier: |alpha1 - beta1| for label +1,
    |alpha2 - beta2| for label -1."""
    return bias_at(inst, y, *GIVEN_PREDICTOR_P)


def bias_derived(inst: ProblemInstance, predictor: DerivedPredictor, y: int) -> float:
    """Group gap of the derived predictor evaluated with the true attribute."""
    return bias_at(inst, y, *predictor.p)


def bias_at(inst: ProblemInstance, y: int, p10, p11, pm10, pm11):
    """Group gap for label ``y`` of the predictor with probabilities ``p``,
    given as floats or as float64 arrays of one value per row.

    P[output=+1 | Y=y, A=a] mixes the randomization probabilities with the
    given classifier's rate for that cell, which yields
    |h0*(p[+1,0]-p[-1,0]) - h1*(p[+1,1]-p[-1,1]) + p[-1,0] - p[-1,1]|.
    """
    h0, h1 = inst.rate(y, 0), inst.rate(y, 1)
    return abs(h0 * (p10 - pm10) - h1 * (p11 - pm11) + pm10 - pm11)


def error_given(inst: ProblemInstance) -> float:
    """P[given prediction != Y], by its own sum: ``error_at`` at
    GIVEN_PREDICTOR_P rounds differently, 0.19999999999999998 for 0.2."""
    return (
        inst.label_prob(1)
        + inst.alpha2 * inst.cell(-1, 0)
        - inst.alpha1 * inst.cell(1, 0)
        + inst.beta2 * inst.cell(-1, 1)
        - inst.beta1 * inst.cell(1, 1)
    )


def error_derived(inst: ProblemInstance, predictor: DerivedPredictor) -> float:
    """P[derived output != Y]."""
    return error_at(inst, *predictor.p)


def error_at(inst: ProblemInstance, p10, p11, pm10, pm11):
    """P[output != Y] of the predictor with probabilities ``p``, linear in
    them, given as floats or as float64 arrays of one value per row."""
    c10 = inst.alpha2 * inst.cell(-1, 0) - inst.alpha1 * inst.cell(1, 0)
    c11 = inst.beta2 * inst.cell(-1, 1) - inst.beta1 * inst.cell(1, 1)
    cm10 = inst.cell(-1, 0) - inst.cell(1, 0) - c10
    cm11 = inst.cell(-1, 1) - inst.cell(1, 1) - c11
    return inst.label_prob(1) + c10 * p10 + c11 * p11 + cm10 * pm10 + cm11 * pm11


def bias_shrink_factor(gamma1: float, gamma2: float, p: float) -> float:
    """Multiplier bounding how much of the given classifier's bias survives
    attribute corruption.

    ``gamma1`` is the flip rate of the group whose conditional share is
    ``p``; ``gamma2`` is the other group's flip rate.  Defined on
    [0, 1) x [0, 1) x (0, 1); zero at zero noise, exactly one whenever the
    two flip rates sum to one, strictly increasing in each flip rate, and
    symmetric under relabeling the groups: F(g1, g2, p) = F(g2, g1, 1-p).
    """
    if not (0.0 <= gamma1 < 1.0 and 0.0 <= gamma2 < 1.0 and 0.0 < p < 1.0):
        raise RangeError(
            f"({gamma1}, {gamma2}, {p}) outside [0,1) x [0,1) x (0,1)"
        )
    return _shrink(gamma1, gamma2, p)


_SCALE = 2.0 ** 600  # lifts each in-domain product, at least 2**-1127, to a normal float


def _shrink(gamma1, gamma2, p):
    """``bias_shrink_factor`` without its domain check, on floats or arrays.
    The second ratio's addends are scaled by the power of two _SCALE, so none
    is subnormal and the denominator is never 0; where none was, no bit moves."""
    first = gamma1 * p / (gamma1 * p + (1.0 - gamma2) * (1.0 - p))
    kept = (1.0 - gamma1) * _SCALE * p
    return first - kept / (kept + gamma2 * _SCALE * (1.0 - p)) + 1.0


def corrupted_bias_bound(inst: ProblemInstance, spec: PerturbationSpec, y: int) -> float:
    """Upper bound on the derived predictor's bias for label ``y`` when the
    training attribute was corrupted with prediction-independent flips.

    The bound is the given bias times the shrink factor, whose value equals
    the posterior sum P[A=1 | Y=y, corrupted=0] + P[A=0 | Y=y, corrupted=1];
    with p = P[A=1 | Y=y] that is ``bias_shrink_factor(gamma_{y,1},
    gamma_{y,0}, p)``, group 1's flip rate paired with group 1's share.
    """
    if spec.kind != "restricted":
        raise RangeError("bias bound is defined for prediction-independent flips only")
    g0, g1 = spec.gamma(y, 0), spec.gamma(y, 1)
    return bias_given(inst, y) * bias_shrink_factor(g1, g0, inst.attr_given_label(y))


def corrupted_bias_bound_grid(inst: ProblemInstance, flips, y: int) -> np.ndarray:
    """``corrupted_bias_bound`` at every row of four float64 arrays of
    prediction-independent flip rates in ``CELLS`` order; NaN in a row where
    a flip rate of label ``y`` is 1, outside the bound's domain."""
    g0, g1 = flips[CELL_INDEX[(y, 0)]], flips[CELL_INDEX[(y, 1)]]
    p = inst.attr_given_label(y)
    defined = (g0 < 1.0) & (g1 < 1.0)
    if defined.any() and not 0.0 < p < 1.0:
        row = int(np.argmax(defined))
        raise RangeError(
            f"({float(g1[row])}, {float(g0[row])}, {p}) outside [0,1) x [0,1) x (0,1)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):  # rows outside the domain
        bound = bias_given(inst, y) * _shrink(g1, g0, p)
    return np.where(defined, bound, np.nan)


def check_flip_independence(spec: PerturbationSpec) -> tuple[bool, float]:
    """Whether flip rates ignore the prediction, with the largest gap found.

    True (gap 0 up to 1e-12) exactly when, for every (label, attribute)
    cell, the flip probability is the same for both prediction values.
    """
    gap = max(abs(g - h) for g, h in zip(spec.rates[::2], spec.rates[1::2]))
    return gap <= INDEPENDENCE_TOL, gap


def check_flip_budget(spec: PerturbationSpec, y: int) -> bool:
    """Whether the flip rates for label ``y`` sum to at most one, with each
    rate strictly below one."""
    if spec.kind != "restricted":
        raise RangeError("flip budget is defined for prediction-independent flips only")
    return check_flip_budget_grid(spec.rates[::2], y)


def check_flip_budget_grid(flips, y: int) -> np.ndarray:
    """``check_flip_budget`` at every row of four float64 arrays of flip
    rates in ``CELLS`` order."""
    g0, g1 = flips[CELL_INDEX[(y, 0)]], flips[CELL_INDEX[(y, 1)]]
    return (g0 + g1 <= 1.0) & (g0 < 1.0) & (g1 < 1.0)


def check_classifier_informative(inst: ProblemInstance) -> bool:
    """Whether the given classifier is positively associated with the label
    inside each group: alpha1 > alpha2 and beta1 > beta2 (strict)."""
    return inst.alpha1 > inst.alpha2 and inst.beta1 > inst.beta2


def independence_measure(table) -> float:
    """Largest gap between the conditional joint of (prediction, corrupted
    attribute) given (label, attribute) and the product of its marginals.

    ``table`` is a (2, 2, 2, 2) array of counts or probabilities with axes
    (label, attribute, prediction, corrupted attribute); index 0 stands for
    the value +1 on the label and prediction axes.  Zero exactly when the
    prediction and the corrupted attribute are conditionally independent.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2, 2, 2):
        raise RangeError(f"table must be (2, 2, 2, 2), got {t.shape}")
    if not (np.isfinite(t) & (t >= 0)).all():
        raise RangeError("table cells must be finite and nonnegative")
    mass = t.sum(axis=(2, 3), keepdims=True)
    for (y, a), m in zip(CELLS, mass.ravel().tolist()):
        if m <= 0.0:
            raise EmptyCellError(f"no mass in conditioning cell (Y={y}, A={a})")
    cond = t / mass
    product = cond.sum(axis=3, keepdims=True) * cond.sum(axis=2, keepdims=True)
    return float(np.abs(cond - product).max())
