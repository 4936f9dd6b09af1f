import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonoise import (
    DerivedPredictor,
    EmptyCellError,
    PerturbationSpec,
    ProblemInstance,
    RangeError,
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
    with pytest.raises(EmptyCellError, match=re.escape("P[Y=-1, A=0] = 0.0 must be strictly")):
        ProblemInstance(base=(0.5, 0.5, 0.0, 0.0), alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)


@pytest.mark.parametrize("base", [(0.5, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25, 0.0)],
                         ids=["three-cells", "five-cells"])
def test_base_of_wrong_length_rejected(base):
    with pytest.raises(RangeError, match="base needs 4"):
        ProblemInstance(base=base, alpha1=0.5, beta1=0.5, alpha2=0.5, beta2=0.5)


def test_unnormalized_base_rejected():
    with pytest.raises(RangeError, match="base probabilities sum to 1.2, not 1"):
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


def test_lift_returns_the_spec_itself():
    for spec in (PerturbationSpec.uniform(0.2), counterexample_spec()):
        assert lift_perturbation(spec) is spec


@given(st.tuples(*[st.floats(0.0, 1.0) for _ in range(4)]))
@settings(max_examples=200, deadline=None)
def test_restricted_spec_stores_each_rate_once_per_prediction(gammas):
    spec = PerturbationSpec.restricted(*gammas)
    assert spec.kind == "restricted"
    assert spec.rates == tuple(g for g in gammas for _ in (1, -1))
    for (y, a), g in zip(CELLS, gammas):
        assert spec.gamma(y, a) == spec.gamma_given_pred(y, a, 1) == spec.gamma_given_pred(y, a, -1) == g


def test_kind_is_read_off_the_eight_rates():
    rates = (0.1, 0.2, 0.3, 0.4)
    spec = PerturbationSpec("general", tuple(g for g in rates for _ in (1, -1)))
    assert spec.kind == "restricted"
    assert spec == PerturbationSpec.restricted(*rates)
    assert PerturbationSpec.general().kind == "restricted"
    assert counterexample_spec().kind == "general"
    # equal means equal: a pair one ulp apart is prediction-dependent
    one_ulp = (0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, math.nextafter(0.4, 1))
    assert PerturbationSpec("general", one_ulp).kind == "general"
    with pytest.raises(RangeError, match="restricted spec's two rates differ in some cell"):
        PerturbationSpec("restricted", one_ulp)


def test_spec_round_trips_through_repr_and_replace():
    for spec in (PerturbationSpec.restricted(0.1, 0.2, 0.3, 0.4), counterexample_spec()):
        assert eval(repr(spec)) == spec
        assert dataclasses.replace(spec) == spec


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
_PRED = DerivedPredictor(p=(1.0, 0.5, 0.25, 0.0))
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
        DerivedPredictor(p=(1.1, 0.0, 0.0, 0.0))
    snapped = DerivedPredictor(p=(1.0 + 5e-13, -5e-13, 0.5, 0.5))
    assert snapped.p == (1.0, 0.0, 0.5, 0.5)
    assert snapped.p[0] == 1.0
    assert snapped.p[3] == 0.5
    for p in ((1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(RangeError):
            DerivedPredictor(p=p)
