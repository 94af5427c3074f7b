"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An operation received arguments outside its contract."""


class NumericalFailureError(RuntimeError):
    """A numerical routine failed: LAPACK did not converge, or a sum is not finite."""


class BudgetExceededError(RuntimeError):
    """A truncation target could not be met within the cutoff budget.

    The best sample computed before giving up is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""
