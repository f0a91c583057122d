"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems (config,
dimensions, data, usage) exit 2, numerical failures exit 3,
file-format and I/O problems exit 4.
"""


class EmgTcnError(Exception):
    """Base class for all package errors."""


class ConfigError(EmgTcnError):
    """Invalid configuration value or combination."""


class DimensionError(EmgTcnError):
    """Tensor/array shapes do not line up for an operation."""


class DataError(EmgTcnError):
    """Input data violates a documented invariant or leaves its domain."""


class UsageError(EmgTcnError):
    """An operation was called in a way, or at a time, its contract forbids."""


class FormatError(EmgTcnError):
    """A file does not conform to its declared binary/CSV format."""


class NumericalError(EmgTcnError):
    """A numerical failure (NaN/inf) was detected during computation."""
