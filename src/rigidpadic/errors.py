"""Error taxonomy shared by the whole library.

Every failure mode maps to one of the classes below so the CLI can
translate exceptions into stable exit codes.
"""


class RigidPadicError(Exception):
    """Base class for all library errors."""


class DomainError(RigidPadicError):
    """An argument lies outside the operation's domain of validity.

    Examples: translating a level-m series by y with val(y) < m,
    evaluating a series outside its ball, acting on the w0 cell with a
    matrix whose conjugate has a unit upper-right parameter.
    """


class DivisionError(RigidPadicError, ZeroDivisionError):
    """Division or inversion of a value that is zero at working precision."""


class ParameterError(RigidPadicError, ValueError):
    """Structurally invalid parameter: bad prime, weight < 2, level < 0, ..."""


class ParameterMismatch(RigidPadicError):
    """Objects built from incompatible parameter sets were combined."""


class PrecisionError(RigidPadicError):
    """The stored digits cannot support the requested computation."""


class InvariantViolation(RigidPadicError):
    """An internal consistency check failed.

    Raised when a property that should hold by construction is observed
    to fail; indicates a library bug, never a caller error.
    """


class BoundViolation(InvariantViolation):
    """A certified valuation inequality failed; carries the full report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
