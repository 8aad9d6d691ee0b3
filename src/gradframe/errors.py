"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.  Nothing raises a bare GradframeError.
"""


class GradframeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GradframeError):
    """Invalid configuration: bad hyperparameters, architectures, or config files."""


class DataError(GradframeError):
    """Invalid or inconsistent data: ingestion failures, bad labels, shape mismatches."""


class ShapeError(DataError):
    """Dimension mismatch between data and a model or between data structures."""


class NumericError(GradframeError):
    """Numeric failure: degenerate statistics or non-finite results."""
