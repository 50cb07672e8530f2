"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input: a file, a run config or an argument."""


class UsageError(RuntimeError):
    """API misuse, e.g. backward with a stale forward cache."""


class TrainingError(RuntimeError):
    """Training aborted, e.g. non-finite gradients."""
