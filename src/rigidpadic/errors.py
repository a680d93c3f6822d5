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
    """Structurally invalid parameter: bad prime, weight < 2, level < 0, a
    bool, float or string where an integer level, weight or count belongs,
    or in-memory values of two contexts combined (the one context rule,
    padic._same_context)."""


class ParameterMismatch(RigidPadicError):
    """An input file or class parameters that disagree: a file of another
    kind or context than requested, or cokernel classes (or a class and its
    components) whose parameters or levels differ."""


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


def _int_param(name: str, value, lo=None, hi=None) -> int:
    """The one rule for an integer parameter: value is returned when it is an
    int, not a bool, in [lo, hi] (None leaves that end open), and is otherwise
    refused as "{name} must be an integer[ >= lo | <= hi | in [lo, hi]], got
    {value!r}"."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and (lo is None or value >= lo) and (hi is None or value <= hi)):
        return value
    if lo is None:
        span = "" if hi is None else f" <= {hi}"
    else:
        span = f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ParameterError(f"{name} must be an integer{span}, got {value!r}")
