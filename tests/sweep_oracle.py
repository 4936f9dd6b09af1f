"""The sweep computed one row at a time, kept only so tests can compare
``cli.run_sweep``, which runs every step but the LP over the whole grid at
once, against it.

Each row expands the schedule into a flip spec, derives the predictor
through ``derive_predictor`` and applies the scalar metric, bound and
assumption functions, formatting each value with ``format(x, ".12g")``.
"""

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
from eonoise.perturb import schedule_eval
from eonoise.programs import derive_predictor


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def run_sweep(config: SweepConfig) -> list[list[str]]:
    """One formatted row per grid point, in grid order."""
    inst = config.instance
    given = (bias_given(inst, 1), bias_given(inst, -1), error_given(inst))
    error_true = error_derived(inst, derive_predictor(inst, None))
    a2 = check_classifier_informative(inst)

    rows = []
    for g10 in grid_points(*config.grid):
        spec = schedule_eval(config.schedule, g10)
        predictor = derive_predictor(inst, spec)
        err_corr = error_derived(inst, predictor)
        biases = (bias_derived(inst, predictor, 1), bias_derived(inst, predictor, -1))
        # The bound is undefined when a flip rate of the label's class is 1,
        # outside bias_shrink_factor's domain [0, 1); its field is left empty.
        bounds = []
        for y, bias in zip((1, -1), biases):
            if spec.gamma(y, 0) < 1.0 and spec.gamma(y, 1) < 1.0:
                bound = corrupted_bias_bound(inst, spec, y)
                if bias > bound + 1e-9:
                    raise DegenerateProgramError(
                        f"at gamma10 = {_fmt(g10)}, the label {y:+d} bias {_fmt(bias)} "
                        f"exceeds its bound {_fmt(bound)}")
                bounds.append(_fmt(bound))
            else:
                bounds.append("")
        rows.append([
            _fmt(g10), _fmt(spec.gamma(1, 1)), _fmt(spec.gamma(-1, 0)), _fmt(spec.gamma(-1, 1)),
            _fmt(biases[0]), _fmt(biases[1]), _fmt(err_corr),
            _fmt(given[0]), _fmt(given[1]), _fmt(given[2]),
            bounds[0], bounds[1],
            str(int(check_flip_budget(spec, 1))),
            str(int(check_flip_budget(spec, -1))),
            str(int(a2)),
            str(int(err_corr <= error_true + 1e-12)),
        ])
    return rows
