"""Shared exception types."""


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class UndecidedError(RuntimeError):
    """A budgeted search ran out of budget before proving an answer.

    Carries the bounds that were proven before the budget expired; either
    may be None when nothing was established on that side.
    """

    def __init__(self, message: str, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class StopEnumeration(Exception):
    """Raised by an enumeration visitor to end the walk early; the count
    returned is of the colorings visited, this one included."""


class InvariantViolation(AssertionError):
    """An internal structural guarantee failed to hold.

    Reserved for conditions the library promises are impossible on valid
    input; seeing one means a bug, not a usage error.
    """
