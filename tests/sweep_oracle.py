"""The sweep computed one row at a time, kept only so tests can compare
``cli.run_sweep``, which runs every step but the LP over the whole grid at
once, against it.

Each row expands the schedule into a flip spec, derives the predictor
through ``derive_predictor`` and applies the scalar metric, bound and
assumption functions.  The result is the same (N, 16) float64 table, NaN
where a bound is undefined and 0.0/1.0 for a flag.
"""

import math

import numpy as np

from eonoise import DegenerateProgramError
from eonoise.cli import SweepConfig, grid_points
from eonoise.metrics import (
    bias_derived,
    bias_given,
    check_classifier_informative,
    check_flip_budget,
    corrupted_bias_bound,
    error_derived,
    error_given,
)
from eonoise.model import CELL_INDEX
from eonoise.perturb import schedule_eval
from eonoise.programs import derive_predictor


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def run_sweep(config: SweepConfig) -> np.ndarray:
    """One row of SWEEP_COLUMNS values per grid point, in grid order."""
    inst = config.instance
    given = (bias_given(inst, 1), bias_given(inst, -1), error_given(inst))
    error_true = error_derived(inst, derive_predictor(inst, None))
    a2 = check_classifier_informative(inst)

    rows = []
    for g10 in grid_points(*config.grid):
        spec = schedule_eval(config.schedule, g10)
        predictor = derive_predictor(inst, spec)
        flips = spec.rates[::2]  # one rate per cell, in CELLS order as the columns
        err_corr = error_derived(inst, predictor)
        biases = (bias_derived(inst, predictor, 1), bias_derived(inst, predictor, -1))
        # The bound is undefined when a flip rate of the label's class is 1,
        # outside bias_shrink_factor's domain [0, 1).
        bounds = []
        for y, bias in zip((1, -1), biases):
            if flips[CELL_INDEX[(y, 0)]] < 1.0 and flips[CELL_INDEX[(y, 1)]] < 1.0:
                bound = corrupted_bias_bound(inst, spec, y)
                if bias > bound + 1e-9:
                    raise DegenerateProgramError(
                        f"at gamma10 = {_fmt(g10)}, the label {y:+d} bias {_fmt(bias)} "
                        f"exceeds its bound {_fmt(bound)}")
                bounds.append(bound)
            else:
                bounds.append(math.nan)
        rows.append([
            g10, *flips[1:],
            *biases, err_corr, *given, *bounds,
            check_flip_budget(spec, 1), check_flip_budget(spec, -1), a2,
            err_corr <= error_true + 1e-12,
        ])
    return np.array(rows, dtype=np.float64)
