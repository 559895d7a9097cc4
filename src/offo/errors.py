"""Exception types shared across the package, and the integer check of a setting."""

import operator


class OffoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OffoError):
    """An input vector or matrix has the wrong shape for the problem."""


class NonFiniteValue(OffoError):
    """An oracle produced a non-finite value (overflow); the run has failed."""


class NonFiniteInput(OffoError):
    """A caller passed a NaN/inf where a finite value is required."""


class InvalidParameter(OffoError):
    """A configuration parameter lies outside its admissible range."""


class UnknownProblem(OffoError):
    """A requested problem name is not in the registry."""


class MissingReference(OffoError):
    """Success scoring needs a reference optimum the problem does not carry."""


class MissingConstants(OffoError):
    """A theory check needs problem constants that were not supplied."""


class EmptyResults(OffoError):
    """Aggregation was asked to summarise an empty result set."""


class ConfigMismatch(OffoError):
    """A run record does not match the configuration required by a check."""


class OutOfDomain(OffoError):
    """A query lies outside the domain where a function is defined."""


def integer(value, what: str) -> int:
    """``value`` as an int by ``operator.index``, so that a float such as 1.5
    or 1e4 is rejected, not truncated; else :class:`InvalidParameter`."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}") from None
