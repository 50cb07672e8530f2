"""Exception types shared across the package, and :func:`naming`, which
prefixes an error with where it came from (a file, a manifest entry, an
iteration, a video), so that the CLI's one error line names it."""
from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or inconsistent input: a file, a run config or an argument."""


class UsageError(RuntimeError):
    """API misuse, e.g. backward with a stale forward cache."""


class TrainingError(RuntimeError):
    """Training aborted, e.g. non-finite gradients."""


@contextmanager
def naming(where: object, kind: type = InputError):
    """Raise an error of type ``kind`` from the block as ``kind(f"{where}: {exc}")``,
    without its cause: the message already holds the cause's text."""
    try:
        yield
    except kind as exc:
        raise kind(f"{where}: {exc}") from None
