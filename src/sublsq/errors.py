"""Exception hierarchy shared by all modules.

Two families: input validation problems (bad arguments, malformed files,
capacity limits) and numerical failures discovered during computation
(rank deficiency, degenerate distributions). The CLI maps them to exit
codes 1 and 2 respectively.
"""


class SubLsqError(Exception):
    """Base class for all package errors."""


class ValidationError(SubLsqError, ValueError):
    """Input rejected before any computation (non-finite values, bad shapes,
    out-of-range parameters, malformed CSV)."""


class CapacityError(ValidationError):
    """Request exceeds a documented desk-scale enumeration bound."""


class NumericalError(SubLsqError, RuntimeError):
    """Computation cannot proceed for numerical reasons."""


class RankError(NumericalError):
    """Design matrix lacks the column rank an operation requires."""


class SingularSubsetError(NumericalError):
    """Subset Gram matrix is singular, or over- or underflows, so the
    requested optimality criterion of its inverse is infinite or cannot be
    computed. Raised instead of returning an inf or NaN value."""


class DegenerateDistributionError(NumericalError):
    """A sampling distribution has no mass to place (all weights zero)."""


class SamplingError(NumericalError):
    """A stochastic sampling routine failed to produce a draw within its
    internal attempt budget."""
