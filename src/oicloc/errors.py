"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ConfigError(ValueError):
    """Invalid run configuration or file schema."""


class UsageError(RuntimeError):
    """API misuse, e.g. backward with a stale forward cache."""


class TrainingError(RuntimeError):
    """Training aborted, e.g. non-finite gradients."""
