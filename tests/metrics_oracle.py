"""The paper's closed-form derived predictor for the balanced case with a
uniform flip rate, kept only so tests can check the LP path against it.

In that regime corruption provably cannot raise the error; the construction
solves the program by hand instead of enumerating its vertices, and checks
its answer against the program's constraints.
"""

from eonoise import (
    DegenerateProgramError,
    DerivedPredictor,
    EoNoiseError,
    PerturbationSpec,
    ProblemInstance,
)
from eonoise.lp import RESIDUAL_TOL
from eonoise.metrics import check_classifier_informative
from eonoise.programs import build_clean_program, build_corrupted_program


class PreconditionError(EoNoiseError, ValueError):
    """The closed form was called outside its preconditions."""


def balanced_uniform_predictor(inst: ProblemInstance, gamma: float) -> DerivedPredictor:
    """Closed-form derived predictor for the balanced case with a uniform
    flip rate, the regime where corruption provably cannot raise the error.

    Requires all four base cells equal to 1/4, an informative given
    classifier (alpha1 > alpha2 and beta1 > beta2), and a single flip
    probability gamma in [0, 1/2] shared by every cell.  The construction
    normalizes p[-1,0] to zero, pins p[+1,0] or p[+1,1] to one depending on
    the sign of ``beta2 - beta1 + alpha1 - alpha2 + alpha2*beta1 -
    alpha1*beta2``, and scales the rest by the most negative admissible
    objective value.  When ``alpha2*beta1 < alpha1*beta2`` the two groups are
    swapped internally and the result is swapped back.
    """
    for b in inst.base:
        if abs(b - 0.25) > 1e-12:
            raise PreconditionError("base cells must all equal 1/4")
    if not check_classifier_informative(inst):
        raise PreconditionError("given classifier must satisfy alpha1 > alpha2 and beta1 > beta2")
    if not 0.0 <= gamma <= 0.5:
        raise PreconditionError(f"uniform flip rate {gamma} outside [0, 1/2]")

    a1, b1, a2, b2 = inst.alpha1, inst.beta1, inst.alpha2, inst.beta2
    swapped = a2 * b1 < a1 * b2
    if swapped:
        a1, b1 = b1, a1
        a2, b2 = b2, a2

    u = 0.5 * ((1.0 - gamma) * (a2 - a1) + gamma * (b2 - b1))
    v = 0.5 * ((1.0 - gamma) * (b2 - b1) + gamma * (a2 - a1))
    cross = a1 * b2 - a2 * b1  # <= 0 after orientation
    split_sign = b2 - b1 + a1 - a2 - cross

    if split_sign < 0.0:
        delta = u  # p[+1,0] hits 1 first
    else:
        delta = 2.0 * u * v / (2.0 * u + (1.0 - 2.0 * gamma) * cross)

    p10 = delta / u
    pm11 = delta * (1.0 - 2.0 * gamma) * cross / (2.0 * u * v)
    p11 = delta / v + pm11
    pm10 = 0.0

    if swapped:
        p10, p11 = p11, p10
        pm10, pm11 = pm11, pm10

    probs = []
    for value in (p10, p11, pm10, pm11):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise PreconditionError(f"closed form produced probability {value}")
        probs.append(min(1.0, max(0.0, value)))

    source = "clean" if gamma == 0.0 else "corrupted"
    predictor = DerivedPredictor(p=tuple(probs), source=source)

    if gamma == 0.0:
        program = build_clean_program(inst)
    else:
        program = build_corrupted_program(inst, PerturbationSpec.uniform(gamma))
    if program.residual(predictor.p) > RESIDUAL_TOL:
        raise DegenerateProgramError("closed-form predictor violates the program's constraints")
    return predictor

