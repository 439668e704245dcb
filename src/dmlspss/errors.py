"""Exception hierarchy shared across the package.

One family per CLI exit code; callers catch the family, and a check is
told apart by its message:

- ``ConfigError`` (exit 2): an invalid setting or combination;
- ``DataError`` (exit 3): a bad file, cell, column, shape or index list,
  or a problem too large for memory;
- ``NumericError`` (exit 4): a failed solve or fit;
- ``WorkerDied`` (exit 5): a worker process ended without its result or
  could not be started.

Two refinements stay because package code inspects them: ``InvalidSpec``,
which ``cli.parse_config`` catches to prefix its INI section, and
``NonConvergence``, which carries the fit's partial state.
"""


class DmlSpssError(Exception):
    """Base class for all library errors."""


class ConfigError(DmlSpssError):
    """Invalid configuration value or combination."""


class InvalidSpec(ConfigError):
    """Learner specification with out-of-range hyperparameters."""


class DataError(DmlSpssError):
    """Problems with input data (files, shapes, indices)."""


class NumericError(DmlSpssError):
    """Numeric failure during estimation."""


class NonConvergence(NumericError):
    """Iterative fit did not converge; carries the partial state."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class WorkerDied(DmlSpssError):
    """A worker process ended (killed, or ``os._exit``) without its result
    or could not be started (``os.fork`` failed)."""
