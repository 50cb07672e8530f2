"""Exception types shared across the package, the number type checks its
refusals share, and :func:`naming`, which prefixes an error with where it
came from (a file, a manifest entry, an iteration, a video), so that the
CLI's one error line names it."""
import sys
from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or inconsistent input: a file, a run config or an argument."""


class UsageError(RuntimeError):
    """API misuse, e.g. backward with a stale forward cache."""


class TrainingError(RuntimeError):
    """Training aborted, e.g. non-finite gradients."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that converts to a finite float (NaN, inf and huge integers do not)."""
    return _is_number(v) and abs(v) <= sys.float_info.max


@contextmanager
def naming(where: object, kind: type = InputError):
    """Raise an error of type ``kind`` from the block as ``kind(f"{where}: {exc}")``,
    without its cause: the message already holds the cause's text."""
    try:
        yield
    except kind as exc:
        raise kind(f"{where}: {exc}") from None
