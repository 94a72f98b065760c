"""Exception types shared across the package."""


class RedSpectraError(Exception):
    """Base class for all package errors."""


class GridError(RedSpectraError):
    """A time or lag value does not lie on the sample lattice."""


class DomainError(RedSpectraError):
    """Operation applied to a signal on the wrong domain, or a transform
    evaluated at an excluded point (e.g. Re lambda = 0)."""


class GrowthError(RedSpectraError):
    """Declared polynomial growth exponent contradicted by the record."""


class HorizonError(RedSpectraError):
    """The record is too short for the requested analysis window."""


class TruncationError(RedSpectraError):
    """A quadrature window requires data outside the record and the
    resulting error bound exceeds the allowed budget."""


class TailError(RedSpectraError):
    """Transform truncation tail bound too large to be meaningful."""


class ConfigError(RedSpectraError):
    """Bad configuration value or unknown configuration key."""


class ParseError(RedSpectraError):
    """Malformed input file.  Carries a line number when available."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
