"""Exception types and the default enumeration budget shared across the package."""

#: The default of every ``budget`` parameter and ``--budget`` option.
DEFAULT_BUDGET = 10**8


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedPrimeError(InvalidInputError):
    """Raised when a prime lacks the required congruence property."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured budget.

    Running out of memory is not one: the library lets ``MemoryError``
    through, and the CLI maps it to the same exit code.
    """

    def __init__(self, message: str, requested: int, budget: int):
        super().__init__(message)
        self.requested = requested
        self.budget = budget
