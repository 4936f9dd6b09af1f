"""Shared case generators and reference instances for the test suite."""

import numpy as np

from eonoise import PerturbationSpec, ProblemInstance
from eonoise.programs import build_clean_program, build_corrupted_program

BALANCED = (0.25, 0.25, 0.25, 0.25)


def population_fourway(inst: ProblemInstance, spec: PerturbationSpec) -> np.ndarray:
    """Exact (label, attribute, prediction, corrupted attribute) table of the
    generative model, for feeding the independence measure."""
    table = np.zeros((2, 2, 2, 2))
    for yi, y in enumerate((1, -1)):
        for a in (0, 1):
            for yti, yt in enumerate((1, -1)):
                flip = spec.gamma_given_pred(y, a, yt)
                mass = inst.joint(y, a, yt)
                table[yi, a, yti, 1 - a] += flip * mass
                table[yi, a, yti, a] += (1.0 - flip) * mass
    return table


def counterexample_instance() -> ProblemInstance:
    """Balanced instance whose corrupted training provably raises the bias
    under prediction-dependent flips."""
    return ProblemInstance(base=BALANCED, alpha1=0.65, beta1=0.6, alpha2=0.0, beta2=0.0)


def counterexample_spec(flip: float = 0.15) -> PerturbationSpec:
    return PerturbationSpec.general({(1, 0, -1): flip})


def fig1_top_left() -> ProblemInstance:
    return ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)


def random_instance(rng: np.random.Generator, min_cell: float = 0.05) -> ProblemInstance:
    while True:
        w = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        if w.min() >= min_cell:
            break
    a1, b1, a2, b2 = rng.uniform(0.0, 1.0, size=4)
    return ProblemInstance(base=tuple(w), alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


def random_restricted(rng: np.random.Generator, high: float = 0.97) -> PerturbationSpec:
    return PerturbationSpec.restricted(*rng.uniform(0.0, high, size=4))


def random_budgeted(rng: np.random.Generator) -> PerturbationSpec:
    """Restricted spec with, per label class, rates summing to at most one
    and each strictly below one (uniform on the triangle via folding)."""
    rates = []
    for _ in range(2):
        g0, g1 = rng.uniform(0.0, 1.0, size=2)
        if g0 + g1 > 1.0:
            g0, g1 = 1.0 - g0, 1.0 - g1
        rates += [g0, g1]
    return PerturbationSpec.restricted(*rates)


def random_general(rng: np.random.Generator, high: float = 0.97) -> PerturbationSpec:
    return PerturbationSpec("general", tuple(rng.uniform(0.0, high, size=8)))


def random_balanced_informative(rng: np.random.Generator, unbiased: bool = False,
                                min_gap: float = 0.01, min_bias: float = 0.02) -> ProblemInstance:
    """Balanced instance with alpha1 > alpha2 and beta1 > beta2.

    ``unbiased`` forces alpha1 == beta1 and alpha2 == beta2 exactly; otherwise
    the instance is kept at least ``min_bias`` away from the unbiased set.
    """
    while True:
        a2 = rng.uniform(0.0, 0.9)
        a1 = rng.uniform(a2 + min_gap, 1.0)
        if unbiased:
            b1, b2 = a1, a2
        else:
            b2 = rng.uniform(0.0, 0.9)
            b1 = rng.uniform(b2 + min_gap, 1.0)
            if max(abs(a1 - b1), abs(a2 - b2)) < min_bias:
                continue
        return ProblemInstance(base=BALANCED, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


def random_program(rng: np.random.Generator):
    """Valid program drawn from the domain: clean or corrupted, restricted
    or prediction-dependent corruption."""
    inst = random_instance(rng)
    roll = rng.random()
    if roll < 0.25:
        return build_clean_program(inst)
    if roll < 0.75:
        return build_corrupted_program(inst, random_restricted(rng))
    return build_corrupted_program(inst, random_general(rng))
