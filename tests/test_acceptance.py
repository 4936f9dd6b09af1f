"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and checking its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import time

import numpy as np
import pytest

from eonoise import (
    PerturbationSpec,
    bias_derived,
    bias_given,
    bias_shrink_factor,
    corrupted_bias_bound,
    derive_predictor,
    error_derived,
    error_given,
    sample_records,
    solve,
)
from eonoise.cli import SWEEP_COLUMNS, SweepConfig, run_dataset, run_sweep
from eonoise.perturb import GammaSchedule, RecordScenario
from grid_oracle import grid_minimum
from metrics_oracle import balanced_uniform_predictor
from support import (
    fig1_top_left,
    counterexample_instance,
    counterexample_spec,
    random_balanced_informative,
    random_budgeted,
    random_instance,
    random_program,
    random_restricted,
)


class _Criterion:
    """Context manager printing one pass/fail line with the elapsed time."""

    def __init__(self, number, name, budget_s):
        self.number, self.name, self.budget_s = number, name, budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget_s}s")
        return False


def test_criterion_1_counterexample_quantitative():
    with _Criterion(1, "prediction-dependent flips raise the bias", 1.0):
        inst, spec = counterexample_instance(), counterexample_spec()
        pred = derive_predictor(inst, spec)
        p10, p11, pm10, pm11 = pred.p
        assert 0.82 <= p10 <= 0.84
        assert p11 == 1.0
        assert pm10 == 0.0 and pm11 == 0.0
        bias_corr = bias_derived(inst, pred, 1)
        given = bias_given(inst, 1)
        assert given == pytest.approx(0.05, abs=1e-12)
        assert 0.05 <= bias_corr <= 0.07
        assert bias_corr > given


def test_criterion_2_shrink_factor_properties():
    with _Criterion(2, "shrink factor properties", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g1, g2 = rng.uniform(0.0, 0.97, size=2)
            p = float(rng.uniform(0.01, 0.99))
            value = bias_shrink_factor(g1, g2, p)
            # bounded range
            assert 0.0 <= value <= 2.0
            # strictly below one inside the budget
            if g1 + g2 < 1.0:
                assert value < 1.0
            # exactly one on the budget boundary
            assert bias_shrink_factor(g1, 1.0 - g1, p) == pytest.approx(1.0, abs=1e-12)
            # group swap symmetry
            assert value == pytest.approx(bias_shrink_factor(g2, g1, 1.0 - p), abs=1e-12)
            # zero at zero noise
            assert bias_shrink_factor(0.0, 0.0, p) == 0.0
            # strictly increasing in each flip rate (central differences)
            g1c = min(max(g1, 1e-5), 0.97)
            g2c = min(max(g2, 1e-5), 0.97)
            step = 1e-6
            d1 = (bias_shrink_factor(g1c + step, g2c, p)
                  - bias_shrink_factor(g1c - step, g2c, p))
            d2 = (bias_shrink_factor(g1c, g2c + step, p)
                  - bias_shrink_factor(g1c, g2c - step, p))
            assert d1 > 0.0 and d2 > 0.0
        assert bias_shrink_factor(0.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert bias_shrink_factor(0.3, 0.7, 0.25) == pytest.approx(1.0, abs=1e-12)


def test_criterion_3_bias_bound_suite():
    with _Criterion(3, "corrupted bias bounded by shrunk given bias", 10.0):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            inst = random_instance(rng)
            spec = random_restricted(rng)
            pred = derive_predictor(inst, spec)
            for y in (1, -1):
                bound = corrupted_bias_bound(inst, spec, y)
                assert bias_derived(inst, pred, y) <= bound + 1e-9


def test_criterion_4_bias_reduction_suite():
    with _Criterion(4, "bias never grows under budgeted flips", 10.0):
        rng = np.random.default_rng(41414)
        strict_checked = 0
        for _ in range(1000):
            inst = random_instance(rng)
            spec = random_budgeted(rng)
            pred = derive_predictor(inst, spec)
            for y in (1, -1):
                given = bias_given(inst, y)
                corrupted = bias_derived(inst, pred, y)
                assert corrupted <= given + 1e-9
                g0, g1 = spec.gamma(y, 0), spec.gamma(y, 1)
                if given > 1e-6 and g0 + g1 < 1.0 - 1e-6:
                    assert corrupted < given
                    strict_checked += 1
        assert strict_checked > 500  # the strict branch is actually exercised


def test_criterion_5_balanced_error_suite():
    with _Criterion(5, "corruption cannot raise the error in the balanced case", 10.0):
        rng = np.random.default_rng(5150)
        for i in range(1000):
            unbiased = i % 5 == 0
            inst = random_balanced_informative(rng, unbiased=unbiased)
            gamma = float(rng.uniform(0.01, 0.5))
            err_true = error_derived(inst, derive_predictor(inst, None))
            err_corr = error_derived(
                inst, derive_predictor(inst, PerturbationSpec.uniform(gamma)))
            assert err_corr <= err_true + 1e-9
            if unbiased:
                assert abs(err_corr - err_true) <= 1e-9
            else:
                assert err_true - err_corr > 1e-9


def test_criterion_6_oracle_equivalence():
    with _Criterion(6, "closed form vs solver, solver vs grid oracle", 60.0):
        rng = np.random.default_rng(6006)
        for i in range(1000):
            inst = random_balanced_informative(rng, unbiased=i % 7 == 0)
            gamma = float(rng.uniform(0.0, 0.5))
            closed = balanced_uniform_predictor(inst, gamma)
            via_lp = derive_predictor(inst, PerturbationSpec.uniform(gamma))
            for y in (1, -1):
                assert bias_derived(inst, closed, y) == pytest.approx(
                    bias_derived(inst, via_lp, y), abs=1e-9)
            assert error_derived(inst, closed) == pytest.approx(
                error_derived(inst, via_lp), abs=1e-9)

        rng = np.random.default_rng(60606)
        for _ in range(500):
            program = random_program(rng)
            assert program.value(solve(program).p) <= grid_minimum(program) + 5e-3


def test_criterion_7_interpolation_shape():
    with _Criterion(7, "bias rises and error falls along the reference sweep", 5.0):
        config = SweepConfig(instance=fig1_top_left(),
                             schedule=GammaSchedule("equal"),
                             grid=(0.0, 0.5, 0.05))
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in run_sweep(config)]
        assert len(rows) == 11
        biases = [float(r["bias_pos_corr"]) for r in rows]
        errors = [float(r["error_corr"]) for r in rows]
        for left, right in zip(biases, biases[1:]):
            assert right >= left - 1e-9
        for left, right in zip(errors, errors[1:]):
            assert right <= left + 1e-9
        inst = fig1_top_left()
        assert biases[-1] == pytest.approx(bias_given(inst, 1), abs=1e-9)
        assert errors[-1] == pytest.approx(error_given(inst), abs=1e-9)


def test_criterion_8_empirical_pipeline_consistency():
    with _Criterion(8, "record pipeline agrees with the analytic pipeline", 60.0):
        inst = fig1_top_left()
        gamma = 0.25
        records = sample_records(inst, 100_000, seed=88)
        rows = run_dataset(records, [RecordScenario("independent-flip", gamma)], seed=88)
        row = dict(zip(
            ("level",
             "bias_pos_given", "bias_neg_given", "error_given",
             "bias_pos_corr", "bias_neg_corr", "error_corr",
             "bias_pos_true", "bias_neg_true", "error_true",
             "independence_measure"), rows[0]))

        spec = PerturbationSpec.uniform(gamma)
        corr = derive_predictor(inst, spec)
        true = derive_predictor(inst, None)
        assert float(row["bias_pos_corr"]) == pytest.approx(bias_derived(inst, corr, 1), abs=0.02)
        assert float(row["bias_neg_corr"]) == pytest.approx(bias_derived(inst, corr, -1), abs=0.02)
        assert float(row["error_corr"]) == pytest.approx(error_derived(inst, corr), abs=0.02)
        assert float(row["bias_pos_true"]) == pytest.approx(bias_derived(inst, true, 1), abs=0.02)
        assert float(row["bias_neg_true"]) == pytest.approx(bias_derived(inst, true, -1), abs=0.02)
        assert float(row["error_true"]) == pytest.approx(error_derived(inst, true), abs=0.02)
        assert float(row["independence_measure"]) <= 0.02
