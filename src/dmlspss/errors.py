"""Exception hierarchy shared across the package.

Three families matter to callers (and to the CLI exit-code mapping):
configuration problems, data problems, and numeric failures; a worker
process that dies is a fourth case.
"""


class DmlSpssError(Exception):
    """Base class for all library errors."""


# --- configuration -----------------------------------------------------

class ConfigError(DmlSpssError):
    """Invalid configuration value or combination."""


class InvalidConfig(ConfigError):
    pass


class InvalidSpec(ConfigError):
    """Learner specification with out-of-range hyperparameters."""


class InvalidFraction(ConfigError):
    pass


class InvalidAlpha(ConfigError):
    pass


class InvalidRho(ConfigError):
    pass


# --- data ---------------------------------------------------------------

class DataError(DmlSpssError):
    """Problems with input data (files, shapes, indices)."""


class NonFinite(DataError):
    """NaN or infinity where finite values are required."""


class SchemaError(DataError):
    """A named column is missing from the source header."""


class ParseError(DataError):
    """Malformed CSV cell or row."""


class IndexOutOfRange(DataError):
    pass


class DuplicateIndex(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class FoldTooSmall(DataError):
    """A cross-fitting fold's complement has too few rows to train on."""


class TooLargeForMemory(DataError):
    """The polish's distances or a kernel fit's Gram matrix exceed physical memory."""


# --- numerics -----------------------------------------------------------

class NumericError(DmlSpssError):
    """Numeric failure during estimation."""


class SingularSystem(NumericError):
    """Unregularized solve on a rank-deficient design."""


class NonConvergence(NumericError):
    """Iterative fit did not converge; carries the partial state."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateFold(NumericError):
    """A fold's mean score derivative is numerically zero."""


class DegenerateAggregate(NumericError):
    """The pooled mean score derivative is numerically zero."""


class DegenerateJacobian(NumericError):
    pass


# --- worker processes ---------------------------------------------------

class WorkerDied(DmlSpssError):
    """A worker process ended (killed, or ``os._exit``) without its result."""
