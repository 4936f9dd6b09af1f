"""Exception types shared across the package."""


class EoNoiseError(Exception):
    """Base class for all errors raised by this package."""


class ZeroCellError(EoNoiseError, ValueError):
    """A (label, attribute) cell has zero probability or zero count."""


class NormalizationError(EoNoiseError, ValueError):
    """A probability table does not sum to one."""


class RangeError(EoNoiseError, ValueError):
    """A numeric value lies outside its admissible range."""


class DegenerateProgramError(EoNoiseError, RuntimeError):
    """An internal invariant failed: the LP enumeration produced no feasible
    candidate, a closed-form predictor violates its program, or a sweep row's
    bias exceeds the paper's bound."""


class EmptyCellError(EoNoiseError, ValueError):
    """A conditioning cell of the corrupted distribution carries no mass."""


class DomainError(EoNoiseError, ValueError):
    """Arguments are outside the domain on which a quantity is defined."""


class MissingColumnError(EoNoiseError, ValueError):
    """A record-level operation needs a column the record set does not carry."""


class RecordsError(EoNoiseError, ValueError):
    """A record set or record CSV file is malformed."""


class ConfigError(EoNoiseError, ValueError):
    """A CLI configuration file or argument is invalid."""
