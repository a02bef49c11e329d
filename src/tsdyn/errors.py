"""Exception types shared across the library.

Every library error derives from :class:`TsdynError`; the command line maps
each of them to exit code 2 with a JSON error record.
"""


class TsdynError(Exception):
    """Base class of every error raised by the library."""


class TimeScaleDomainError(TsdynError, ValueError):
    """A point lies outside the time scale, or outside the domain of psi."""


class AssumptionError(TsdynError, RuntimeError):
    """A spectral assumption required for the bounded solution fails."""


class HorizonError(TsdynError, RuntimeError):
    """The truncation horizon reaches past the first defined sequence term."""


class ConvergenceError(TsdynError, RuntimeError):
    """An iterative matrix routine failed to stabilize."""


class MissingSampleError(TsdynError, KeyError):
    """A solution object does not hold a sample at the requested abscissa."""


class ConfigError(TsdynError, ValueError):
    """A scenario configuration file failed validation."""

    def __init__(self, issues):
        if isinstance(issues, str):
            issues = [issues]
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))
