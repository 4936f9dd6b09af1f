"""Reference construction of the corrupted LP, kept only so tests can
compare the package against it.

The package builds every program from the 8-cell (label, corrupted
attribute, prediction) joint.  For prediction-independent flips this one
takes the constraint rates as group-mixture conditionals
``alpha + (beta - alpha) * P[A=1 | Y=y, corrupted=a]``, with the posterior
in closed form, and never forms the joint.
"""

from eonoise import EmptyCellError, PerturbationSpec, ProblemInstance, RangeError
from eonoise.lp import EoProgram
from eonoise.model import A_VALUES, Y_VALUES


def restricted_corrupted_program(inst: ProblemInstance, spec: PerturbationSpec) -> EoProgram:
    if spec.kind != "restricted":
        raise RangeError("closed-form construction requires a restricted spec")

    mass = {}
    post = {}
    for y in Y_VALUES:
        g0, g1 = spec.gamma(y, 0), spec.gamma(y, 1)
        p0, p1 = inst.cell(y, 0), inst.cell(y, 1)
        mass[(y, 0)] = (1.0 - g0) * p0 + g1 * p1
        mass[(y, 1)] = g0 * p0 + (1.0 - g1) * p1
        for ac in A_VALUES:
            if mass[(y, ac)] <= 0.0:
                raise EmptyCellError(f"P[Y={y}, corrupted attribute={ac}] is zero")
        post[(y, 0)] = g1 * p1 / mass[(y, 0)]
        post[(y, 1)] = (1.0 - g1) * p1 / mass[(y, 1)]

    e = inst.alpha1 + (inst.beta1 - inst.alpha1) * post[(1, 0)]
    f = inst.alpha1 + (inst.beta1 - inst.alpha1) * post[(1, 1)]
    g = inst.alpha2 + (inst.beta2 - inst.alpha2) * post[(-1, 0)]
    h = inst.alpha2 + (inst.beta2 - inst.alpha2) * post[(-1, 1)]

    objective = (
        mass[(-1, 0)] * g - mass[(1, 0)] * e,
        mass[(-1, 1)] * h - mass[(1, 1)] * f,
        mass[(-1, 0)] * (1.0 - g) - mass[(1, 0)] * (1.0 - e),
        mass[(-1, 1)] * (1.0 - h) - mass[(1, 1)] * (1.0 - f),
    )
    return EoProgram(objective=objective, rates=((e, f), (g, h)))
