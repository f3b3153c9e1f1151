"""Exception hierarchy.

Validation failures (malformed inputs, bad configuration) derive from
:class:`ValidationError`; solver-level failures (non-convergence, infeasible
programs, degenerate signals) derive from :class:`SolverError`;
:class:`IoError` reports a file that cannot be opened, read, written or
decoded as UTF-8, or a JSON artifact without the fields it needs.  The CLI maps ValidationError and IoError to exit code 2
and SolverError to exit code 3; any other exception is a bug and ends the
command with a traceback.
"""


class MaximinError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MaximinError):
    """Input or configuration violates a documented precondition."""


class IndexOutOfRange(ValidationError):
    pass


class EmptyGroup(ValidationError):
    pass


class NonFiniteData(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class DegenerateVariance(ValidationError):
    pass


class InvalidWeights(ValidationError):
    """Weights are not a probability vector of the right length."""


WeightsInvalid = InvalidWeights  # the same class under its older name


class InvalidSize(ValidationError):
    pass


class DegenerateBound(ValidationError):
    pass


class TooFewObservations(ValidationError):
    pass


class ParseError(ValidationError):
    def __init__(self, row: int, col: int, message: str = ""):
        self.row = row
        self.col = col
        super().__init__(f"row {row}, column {col}: {message}" if message
                         else f"row {row}, column {col}")


class RaggedRows(ValidationError):
    pass


class MissingColumn(ValidationError):
    pass


class IoError(MaximinError):
    """A file cannot be opened, read, written or decoded, or a JSON
    artifact lacks the fields it needs."""


class SolverError(MaximinError):
    """A solver failed to produce a usable result."""


class NonConverged(SolverError):
    def __init__(self, message: str = "", residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})" if message else \
                f"residual {residual:.3e}"
        super().__init__(message)


class Infeasible(SolverError):
    pass


class AllGroupsNonpositive(SolverError):
    pass
