"""Exception types shared across the package, and time-budget deadlines."""

import math
import time


class SymcubeError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SymcubeError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(SymcubeError):
    """A combinatorial budget (size, node count, wall clock) was exceeded."""


class ConstructionBugError(SymcubeError):
    """An internal construction produced an object failing its own check.

    Raised by constructions that are proven correct; firing indicates a bug.
    """


class NotACubeError(SymcubeError):
    """A candidate structure violates one of the cube axioms."""

    def __init__(self, message: str, constraint: str | None = None):
        super().__init__(message)
        self.constraint = constraint


def deadline_of(time_budget: float | None) -> float | None:
    """The ``time.monotonic()`` reading at which ``time_budget`` seconds
    from now run out (a negative budget has run out already), or None for
    no budget; InvalidInputError for NaN, which would never run out."""
    if time_budget is None:
        return None
    if math.isnan(time_budget):
        raise InvalidInputError(f"time budget must be a number of seconds, got {time_budget}")
    return time.monotonic() + time_budget
