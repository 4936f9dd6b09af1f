"""Equalized-odds postprocessing for binary classifiers, with exact analysis
of what happens when the protected attribute used during training is
corrupted.

The package namespace carries the names the command line, the demos and the
README use; the rest lives in the submodules (``model``, ``lp``,
``programs``, ``metrics``, ``perturb``, ``records``, ``cli``)."""

from .errors import (
    ConfigError,
    DegenerateProgramError,
    DomainError,
    EmptyCellError,
    EoNoiseError,
    MissingColumnError,
    NormalizationError,
    RangeError,
    RecordsError,
    ZeroCellError,
)
from .model import GIVEN_PREDICTOR_P, DerivedPredictor, PerturbationSpec, ProblemInstance
from .lp import solve
from .programs import derive_predictor, program_from_table
from .metrics import (
    bias_derived,
    bias_given,
    bias_shrink_factor,
    check_flip_budget,
    check_flip_independence,
    corrupted_bias_bound,
    error_derived,
    error_given,
    independence_measure,
)
from .perturb import RecordScenario, apply_scenario
from .records import (
    estimate_corrupted_tables,
    estimate_instance,
    evaluate_predictor_on_records,
    sample_records,
    split,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateProgramError",
    "DomainError",
    "EmptyCellError",
    "EoNoiseError",
    "MissingColumnError",
    "NormalizationError",
    "RangeError",
    "RecordsError",
    "ZeroCellError",
    "DerivedPredictor",
    "GIVEN_PREDICTOR_P",
    "PerturbationSpec",
    "ProblemInstance",
    "RecordScenario",
    "apply_scenario",
    "bias_derived",
    "bias_given",
    "bias_shrink_factor",
    "check_flip_budget",
    "check_flip_independence",
    "corrupted_bias_bound",
    "derive_predictor",
    "error_derived",
    "error_given",
    "estimate_corrupted_tables",
    "estimate_instance",
    "evaluate_predictor_on_records",
    "independence_measure",
    "program_from_table",
    "sample_records",
    "solve",
    "split",
    "write_records_csv",
]
