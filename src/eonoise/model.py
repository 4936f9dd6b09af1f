"""Domain types: the joint (label, attribute) distribution, the given
classifier's conditional rates, attribute-flip specifications, and derived
randomized predictors.

Conventions used throughout the package:

* labels take values +1 / -1, attributes take values 0 / 1;
* every 4-tuple over (label, attribute) cells is ordered as ``CELLS``,
  i.e. ``((+1, 0), (+1, 1), (-1, 0), (-1, 1))``;
* predictor probability vectors use the same order with the *given
  prediction* in place of the label, so ``p = (p[+1,0], p[+1,1],
  p[-1,0], p[-1,1])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from .errors import EmptyCellError, RangeError

Y_VALUES = (1, -1)
A_VALUES = (0, 1)


class _CheckedIndex(dict):
    """Position of a (label, attribute) key in CELLS, or of a (label,
    attribute, prediction) key in GENERAL_KEYS; any other key is a
    RangeError.  A hit is a plain dict lookup."""

    def __missing__(self, key):
        raise RangeError(f"no cell {key!r}: labels and predictions are +1 or -1, "
                         "attributes 0 or 1")


#: Fixed (label, attribute) cell order for all 4-tuples in the package.
CELLS = ((1, 0), (1, 1), (-1, 0), (-1, 1))
CELL_INDEX = _CheckedIndex((cell, i) for i, cell in enumerate(CELLS))

#: Fixed (label, attribute, prediction) order for the eight flip rates of a spec.
GENERAL_KEYS = tuple((y, a, yt) for (y, a) in CELLS for yt in Y_VALUES)
GENERAL_INDEX = _CheckedIndex((key, i) for i, key in enumerate(GENERAL_KEYS))

NORMALIZATION_TOL = 1e-12
BOUND_TOL = 1e-12

#: Probability vector that reproduces the given classifier unchanged.
GIVEN_PREDICTOR_P = (1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """Joint distribution of (label, attribute) plus the given classifier.

    ``base[i]`` is P[Y=y, A=a] for the i-th cell of ``CELLS``.  ``alpha1``
    is P[prediction=+1 | Y=+1, A=0], ``beta1`` the same rate for A=1, and
    ``alpha2`` / ``beta2`` the corresponding rates for Y=-1.  All four base
    cells must be strictly positive and sum to one.
    """

    base: tuple[float, float, float, float]
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    # the four rates in CELLS order, built once for rate()
    _rates: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", tuple(float(b) for b in self.base))
        if len(self.base) != 4:
            raise RangeError(f"base needs 4 cell probabilities, got {len(self.base)}")
        for (y, a), b in zip(CELLS, self.base):
            if not b > 0.0:  # a zero cell is empty; NaN or a negative one is out of range
                raise (EmptyCellError if b == 0.0 else RangeError)(
                    f"P[Y={y}, A={a}] = {b} must be strictly positive")
        total = sum(self.base)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise RangeError(f"base probabilities sum to {total!r}, not 1")
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise RangeError(f"{name} = {v} outside [0, 1]")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_rates", (self.alpha1, self.beta1, self.alpha2, self.beta2))

    def cell(self, y: int, a: int) -> float:
        """P[Y=y, A=a]."""
        return self.base[CELL_INDEX[(y, a)]]

    def rate(self, y: int, a: int) -> float:
        """P[prediction=+1 | Y=y, A=a]."""
        return self._rates[CELL_INDEX[(y, a)]]

    def label_prob(self, y: int) -> float:
        """P[Y=y]."""
        return self.cell(y, 0) + self.cell(y, 1)

    def attr_given_label(self, y: int) -> float:
        """P[A=1 | Y=y]."""
        return self.cell(y, 1) / self.label_prob(y)


@dataclass(frozen=True, slots=True)
class PerturbationSpec:
    """Conditional flip probabilities of the attribute seen in training.

    A spec is read through its two fields.  ``rates`` holds P[corrupted != A |
    Y=y, A=a, prediction=yt] for the eight ``GENERAL_KEYS``; ``kind`` is read
    off them: "restricted" exactly when each cell's two rates are equal, the
    package's one rule for flips that ignore the prediction.  As input,
    "general" takes eight rates and "restricted" four per-cell rates in
    ``CELLS`` order, stored once per prediction, or eight with equal pairs.
    """

    kind: Literal["restricted", "general"]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("restricted", "general"):
            raise RangeError(f"unknown perturbation kind {self.kind!r}")
        expected = 4 if self.kind == "restricted" else 8
        rates = tuple(float(g) for g in self.rates)
        if len(rates) == expected == 4:
            rates = tuple(g for g in rates for _ in Y_VALUES)
        elif len(rates) != 8:
            raise RangeError(f"{self.kind} spec needs {expected} rates, got {len(rates)}")
        for g in rates:
            if not 0.0 <= g <= 1.0:
                raise RangeError(f"flip probability {g} outside [0, 1]")
        kind = "restricted" if rates[::2] == rates[1::2] else "general"
        if self.kind == "restricted" and kind == "general":
            raise RangeError("restricted spec's two rates differ in some cell")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "kind", kind)

    @classmethod
    def restricted(cls, g10: float, g11: float, gm10: float, gm11: float) -> "PerturbationSpec":
        """Prediction-independent rates in ``CELLS`` order."""
        return cls("restricted", (g10, g11, gm10, gm11))

    @classmethod
    def uniform(cls, gamma: float) -> "PerturbationSpec":
        """A single flip probability for every (label, attribute) cell."""
        return cls.restricted(gamma, gamma, gamma, gamma)

    @classmethod
    def general(cls, entries: Mapping[tuple[int, int, int], float] | None = None
                ) -> "PerturbationSpec":
        """Prediction-dependent rates; ``entries`` maps (y, a, yt) to a rate,
        and every key left out gets rate 0."""
        rates = [0.0] * len(GENERAL_KEYS)
        for key, value in (entries or {}).items():
            rates[GENERAL_INDEX[key]] = float(value)
        return cls("general", rates)


def lift_perturbation(spec: PerturbationSpec) -> PerturbationSpec:
    """``spec`` itself: every spec already stores its eight rates."""
    return spec


def snap_probabilities(p: Sequence[float]) -> tuple[float, float, float, float] | None:
    """``p`` as four floats, each within BOUND_TOL of 0 or 1 set to that
    bound; None unless ``p`` has four entries that then all lie in [0, 1]."""
    if len(p) != 4:
        return None
    out = []
    for v in p:
        v = float(v)
        if abs(v) <= BOUND_TOL:
            v = 0.0
        elif abs(v - 1.0) <= BOUND_TOL:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            return None
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class DerivedPredictor:
    """Randomized postprocessing rule: predict +1 with probability
    ``p[(prediction, attribute)]`` when the given classifier says
    ``prediction`` and the true attribute is ``attribute``.  The constructor
    snaps ``p`` by ``snap_probabilities``; the solver's point, already its
    own snap, skips that pass (``_snapped_predictor``).
    """

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        p = snap_probabilities(self.p)
        if p is None:
            raise RangeError(f"predictor probabilities {self.p!r} must be four values in [0, 1]")
        object.__setattr__(self, "p", p)


def _snapped_predictor(p: tuple[float, float, float, float]) -> DerivedPredictor:
    """``DerivedPredictor(p)`` for four floats that are their own snap, without the snap."""
    pred = object.__new__(DerivedPredictor)
    object.__setattr__(pred, "p", p)
    return pred
