"""Exception taxonomy shared by all modules.

Every exception carries a short machine-readable ``code`` so the command line
front end can emit a single diagnostic line and exit nonzero without pattern
matching on messages.  The input rules every module shares live here too,
so "is this an integer >= k" and "is this a real number" each have one rule.
"""

import numbers


class SsmsError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidVertexError(SsmsError):
    code = "invalid-vertex"


class UnsupportedRealizationError(SsmsError):
    code = "unsupported-realization"


class ModelParameterError(SsmsError, ValueError):
    code = "invalid-parameter"


class MissingSpinError(SsmsError):
    code = "missing-spin"


class TooLargeError(SsmsError):
    code = "too-large"


class DegenerateSystemError(SsmsError):
    code = "degenerate-system"


class InfeasibleBoundaryError(SsmsError):
    code = "infeasible-boundary"


class NotSeparatingError(SsmsError):
    code = "not-separating"


class InfeasibleContextError(SsmsError):
    code = "infeasible-context"


class DimensionMismatchError(SsmsError):
    code = "dimension-mismatch"


class InvalidProbabilitiesError(SsmsError):
    code = "invalid-probabilities"


class BudgetExhaustedError(SsmsError):
    code = "budget-exhausted"


class InternalError(SsmsError):
    code = "internal-error"


class FiniteOnlyError(SsmsError):
    code = "finite-only"


class MissingRateError(SsmsError):
    code = "missing-rate"


class InsufficientSamplesError(SsmsError):
    code = "insufficient-samples"


class DegenerateSupportError(SsmsError):
    code = "degenerate-support"


class UnknownSuiteError(SsmsError):
    code = "unknown-suite"


class ConfigError(SsmsError):
    code = "config-error"


class RepeatedVertexError(SsmsError):
    code = "repeated-vertex"


def is_integer(x):
    """True for an ``int`` that is not a ``bool``: the package's one integer rule."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x):
    """True for a ``numbers.Real`` that is not a ``bool``: the package's one
    rule for a real-valued model parameter."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_count(value, least, name):
    """Return ``value`` once it is an integer >= ``least``; raise
    ``ModelParameterError`` naming ``name`` otherwise."""
    if not is_integer(value) or value < least:
        raise ModelParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return value
