"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: 2 for a
configuration problem, 3 for a data or checkpoint problem, 4 for a numerical
failure.  An `OSError` (a file that is missing, unreadable or unwritable)
exits 3, as a data problem; success exits 0.  `require_finite` is the one
check that an array holds no NaN or infinity; scalars use `math.isfinite`.
"""

import math


class ThriftyNetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ThriftyNetError):
    """Invalid shapes, hyperparameters, or incompatible settings."""
    exit_code = 2


class DegenerateBatchError(ConfigurationError):
    """Batch statistics requested over a single element."""


class DataError(ThriftyNetError):
    """Malformed dataset files or out-of-range labels."""
    exit_code = 3


class CheckpointError(ThriftyNetError):
    """Unreadable, truncated, or mismatched checkpoint files."""
    exit_code = 3


class NumericalError(ThriftyNetError):
    """Non-finite values or failed numerical verification."""
    exit_code = 4


def require_finite(array, error: type[ThriftyNetError], message: str) -> None:
    """Raise `error(message)` if `array` holds a NaN or an infinity: either
    makes its min or max non-finite, and they take no mask.  Empty passes."""
    if array.size and not (math.isfinite(array.min()) and math.isfinite(array.max())):
        raise error(message)
