"""Exception types shared across the package."""


class EoNoiseError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(EoNoiseError, ValueError):
    """A value lies outside what a function admits: a rate outside [0, 1], a
    base that does not sum to one, or arguments outside a quantity's domain."""


class DegenerateProgramError(EoNoiseError, RuntimeError):
    """An internal invariant failed: a solved predictor violates its
    program's constraints (checked on every sweep row and dataset fit), or a
    sweep row's bias exceeds the paper's bound."""


class EmptyCellError(EoNoiseError, ValueError):
    """A (label, attribute) cell has no probability or no records."""


class RecordsError(EoNoiseError, ValueError):
    """A record set or record CSV file is malformed or lacks a needed column."""


class ConfigError(EoNoiseError, ValueError):
    """A CLI configuration file or argument is invalid."""
