"""Exception types shared across the package; :func:`check_object`, the one rule
checker of the JSON readers and the records, with the rules its tables share; and
:func:`naming`, which prefixes an error with where it came from (a file, a manifest
entry, an iteration, a video), so that the CLI's one error line names it."""
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


def check_object(obj, what: str, rules: dict, required=frozenset()) -> dict:
    """``obj`` if it is a dict (a JSON object, or a record's fields) whose keys all have a
    rule in ``rules`` (key -> (check of its value, what the check asks for)), include the
    set ``required`` and hold values that pass; else an InputError naming ``what`` and the key."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    if not obj.keys() <= rules.keys():
        raise InputError(f"{what}: unknown keys {sorted(obj.keys() - rules.keys())}")
    if not obj.keys() >= required:
        raise InputError(f"{what}: lacks keys {sorted(required - obj.keys())}")
    for key, value in obj.items():
        check, kind = rules[key]
        if not check(value):
            raise InputError(f"{what}: {key!r} must be {kind}")
    return obj


# shared rules: (check of a value, what it asks for); sys.maxsize is the longest length
STRING = (lambda v: isinstance(v, str), "a string")
FINITE = (_is_finite, "a finite number")
POSITIVE_FINITE = (lambda v: _is_finite(v) and v > 0, "a positive finite number")
POSITIVE_INTEGER = (lambda v: _is_int(v) and 1 <= v <= sys.maxsize, "a positive integer")
UNIT = (lambda v: _is_number(v) and 0 <= v <= 1, "a finite number in [0, 1]")  # not NaN


@contextmanager
def naming(where: object, kind: type = InputError):
    """Raise an error of type ``kind`` from the block as ``kind(f"{where}: {exc}")``,
    without its cause: the message already holds the cause's text."""
    try:
        yield
    except kind as exc:
        raise kind(f"{where}: {exc}") from None
