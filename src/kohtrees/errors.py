"""Exception types shared across the package.

Most of these subclass ValueError so that callers who do not care about
the distinction can catch one thing; the runtime failures (budgets,
cross-checks) subclass RuntimeError instead.
"""


class NonExactDivisionError(ArithmeticError):
    """Polynomial division hit a non-integer step or a nonzero remainder."""


class StructureViolationError(ValueError):
    """A tree or configuration breaks one of its defining constraints."""


class PreconditionViolationError(ValueError):
    """An argument lies outside the range where the computation is valid."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class CrossCheckFailedError(RuntimeError):
    """Two independent computation routes disagree."""
