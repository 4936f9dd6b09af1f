import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonoise import (
    DerivedPredictor,
    NormalizationError,
    PerturbationSpec,
    ProblemInstance,
    RangeError,
    ZeroCellError,
    bias_derived,
    bias_given,
    check_flip_budget,
    corrupted_bias_bound,
)
from eonoise.model import CELLS, lift_perturbation
from support import BALANCED, counterexample_spec


def test_accepts_reference_parameters():
    inst = ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)
    assert inst.base == BALANCED
    assert (inst.alpha1, inst.beta1, inst.alpha2, inst.beta2) == (0.9, 0.8, 0.4, 0.1)


def test_zero_cell_rejected():
    with pytest.raises(ZeroCellError):
        ProblemInstance(base=(0.5, 0.5, 0.0, 0.0), alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)


def test_unnormalized_base_rejected():
    with pytest.raises(NormalizationError):
        ProblemInstance(base=(0.3, 0.3, 0.3, 0.3), alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)


def test_conditional_out_of_range_rejected():
    with pytest.raises(RangeError):
        ProblemInstance(base=BALANCED, alpha1=1.2, beta1=0.5, alpha2=0.5, beta2=0.5)
    with pytest.raises(RangeError):
        ProblemInstance(base=BALANCED, alpha1=0.5, beta1=-0.1, alpha2=0.5, beta2=0.5)


def test_validation_idempotent():
    inst = ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)
    # replace() runs __post_init__ again on the already validated fields
    assert dataclasses.replace(dataclasses.replace(inst)) == inst


def test_instance_accessors():
    inst = ProblemInstance(base=(0.1, 0.2, 0.3, 0.4), alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)
    assert inst.cell(1, 1) == 0.2
    assert inst.rate(-1, 0) == 0.4
    assert inst.label_prob(1) == pytest.approx(0.3)
    assert inst.attr_given_label(-1) == pytest.approx(0.4 / 0.7)
    assert inst.joint(1, 0, 1) == pytest.approx(0.09)
    assert inst.joint(1, 0, -1) == pytest.approx(0.01)


def test_lift_constant_restricted():
    spec = PerturbationSpec.uniform(0.2)
    lifted = lift_perturbation(spec)
    assert lifted.kind == "general"
    assert lifted.rates == (0.2,) * 8


def test_lift_zero_is_identity():
    lifted = lift_perturbation(PerturbationSpec.uniform(0.0))
    assert lifted.rates == (0.0,) * 8
    assert lifted.is_zero


def test_lift_general_unchanged():
    spec = counterexample_spec()
    assert lift_perturbation(spec) is spec
    assert spec.gamma_given_pred(1, 0, -1) == 0.15
    assert spec.gamma_given_pred(1, 0, 1) == 0.0


@given(st.tuples(*[st.floats(0.0, 1.0) for _ in range(4)]))
@settings(max_examples=200, deadline=None)
def test_lift_round_trip(gammas):
    spec = PerturbationSpec.restricted(*gammas)
    lifted = lift_perturbation(spec)
    for (y, a), g in zip(CELLS, gammas):
        assert lifted.gamma_given_pred(y, a, 1) == g
        assert lifted.gamma_given_pred(y, a, -1) == g


def test_spec_validation():
    with pytest.raises(RangeError):
        PerturbationSpec.restricted(0.2, 0.2, 0.2, 1.3)
    with pytest.raises(RangeError):
        PerturbationSpec("restricted", (0.1, 0.2))
    with pytest.raises(RangeError):
        PerturbationSpec("weird", (0.1,) * 4)
    with pytest.raises(RangeError):
        PerturbationSpec.general({(2, 0, 1): 0.5})


_INST = ProblemInstance(base=BALANCED, alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)
_PRED = DerivedPredictor(p=(1.0, 0.5, 0.25, 0.0), source="clean")
_RESTRICTED = PerturbationSpec.restricted(0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("call", [
    lambda: _INST.rate(5, 0),
    lambda: _INST.rate(1, 2),
    lambda: _INST.cell(0, 0),
    lambda: _INST.label_prob(0),
    lambda: _INST.attr_given_label(0),
    lambda: _INST.joint(1, 0, 0),
    lambda: bias_given(_INST, 0),
    lambda: bias_derived(_INST, _PRED, 0),
    lambda: _RESTRICTED.gamma(0, 0),
    lambda: _RESTRICTED.gamma_given_pred(1, 0, 0),
    lambda: counterexample_spec().gamma_given_pred(1, 0, 0),
    lambda: corrupted_bias_bound(_INST, _RESTRICTED, 0),
    lambda: check_flip_budget(_RESTRICTED, 0),
    lambda: PerturbationSpec.general({(1, 0, 0): 0.5}),
], ids=["rate-label", "rate-attribute", "cell", "label_prob", "attr_given_label", "joint-prediction",
        "bias_given", "bias_derived", "gamma", "gamma_given_pred-restricted",
        "gamma_given_pred-general", "corrupted_bias_bound", "check_flip_budget", "general"])
def test_label_outside_plus_minus_one_is_a_range_error(call):
    with pytest.raises(RangeError, match=r"labels and predictions are \+1 or -1, attributes 0 or 1"):
        call()


def test_restricted_rate_lookup_requires_restricted():
    with pytest.raises(RangeError):
        counterexample_spec().gamma(1, 0)


def test_predictor_validation_and_snapping():
    with pytest.raises(RangeError):
        DerivedPredictor(p=(1.1, 0.0, 0.0, 0.0), source="clean")
    snapped = DerivedPredictor(p=(1.0 + 5e-13, -5e-13, 0.5, 0.5), source="corrupted")
    assert snapped.p == (1.0, 0.0, 0.5, 0.5)
    assert snapped.p[0] == 1.0
    assert snapped.p[3] == 0.5
    with pytest.raises(RangeError):
        DerivedPredictor(p=(0.5,) * 4, source="mystery")
