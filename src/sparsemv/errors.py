"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedPrimeError(InvalidInputError):
    """Raised when a prime lacks the required congruence property."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured budget.

    ``budget`` is None when the limit was the memory the machine could give.
    """

    def __init__(self, message: str, requested: int, budget: int | None = None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget
