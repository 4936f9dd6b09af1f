"""Attribute corruption generators.

Two levels: distribution-level schedules that expand a single driving flip
rate into all four per-cell rates (for analytic sweeps), and record-level
scenarios that fill the corrupted-attribute column of a finite sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import RangeError, RecordsError
from .model import PerturbationSpec
from .records import RNG_ALGORITHM, RecordSet, read_only

SCHEDULE_KINDS = ("equal", "halves", "power-halving", "capped")
SCENARIO_KINDS = (
    "independent-flip",
    "score-band",
    "independent-flip-on-errors",
    "score-band-on-errors",
)


@dataclass(frozen=True)
class GammaSchedule:
    """Rule mapping the driving rate gamma_{+1,0} to the other three rates.

    equal:         (g, g, g)
    halves:        (g, g/2, g/2)
    power-halving: (g/2, g/4, g/8)
    capped:        (g, r, r) with r = min(2g, 0.8)
    listing (gamma_{+1,1}, gamma_{-1,0}, gamma_{-1,1}).
    """

    kind: Literal["equal", "halves", "power-halving", "capped"]

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise RangeError(f"unknown schedule kind {self.kind!r}")

    def grid_rates(self, gamma10: np.ndarray | float) -> tuple[np.ndarray, ...]:
        """The four rates in ``CELLS`` order at each driving rate of
        ``gamma10``, a float64 grid or one rate, shaped like ``gamma10``."""
        g = np.asarray(gamma10, dtype=float)
        outside = ~((0.0 <= g) & (g <= 1.0))
        if outside.any():
            raise RangeError(f"driving flip rate {float(g[outside][0])} outside [0, 1]")
        if self.kind == "equal":
            return (g, g, g, g)
        if self.kind == "halves":
            return (g, g, g / 2.0, g / 2.0)
        if self.kind == "power-halving":
            return (g, g / 2.0, g / 4.0, g / 8.0)
        r = np.minimum(2.0 * g, 0.8)
        return (g, g, r, r)


def schedule_eval(schedule: GammaSchedule, gamma10: float) -> PerturbationSpec:
    """Expand the driving rate into a restricted four-cell spec."""
    return PerturbationSpec.restricted(*schedule.grid_rates(float(gamma10)))


@dataclass(frozen=True)
class RecordScenario:
    """Record-level corruption rule.

    independent kinds flip each record's attribute with probability
    ``level``; score-band kinds deterministically flip every record whose
    score lies in the closed interval [0.5 - level, 0.5 + level].  The
    on-errors variants touch only records the given classifier got wrong.
    """

    kind: Literal["independent-flip", "score-band",
                  "independent-flip-on-errors", "score-band-on-errors"]
    level: float

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise RangeError(f"unknown scenario kind {self.kind!r}")
        level = float(self.level)
        if self.uses_score:
            if not 0.0 <= level <= 0.5:
                raise RangeError(f"band half-width {level} outside [0, 0.5]")
        elif not 0.0 <= level <= 1.0:
            raise RangeError(f"flip probability {level} outside [0, 1]")
        object.__setattr__(self, "level", level)

    @property
    def uses_score(self) -> bool:
        return self.kind.startswith("score-band")

    @property
    def only_errors(self) -> bool:
        return self.kind.endswith("on-errors")


def apply_scenario(records: RecordSet, scenario: RecordScenario, seed: int) -> RecordSet:
    """Fill the corrupted-attribute column according to the scenario.

    Independent kinds draw from a seeded PCG64 generator; score-band kinds
    are deterministic.  Scenario, level, seed, and generator algorithm are
    recorded in the returned record set's metadata.
    """
    if scenario.uses_score:
        if records.score is None:
            raise RecordsError("scenario needs a score column")
        flips = np.abs(records.score - 0.5) <= scenario.level
    else:
        rng = np.random.default_rng(seed)
        flips = rng.random(records.n) < scenario.level
    if scenario.only_errors:
        if records.yhat is None:
            raise RecordsError("on-errors scenarios need a yhat column")
        flips = flips & (records.yhat != records.y)

    a_c = records.a ^ flips  # a fresh int8 column: a 0/1 value xor a flip
    meta = dict(records.meta)
    meta.update(scenario=scenario.kind, level=scenario.level,
                seed=int(seed), rng=RNG_ALGORITHM)
    return replace(records, a_c=read_only(a_c), meta=meta)
