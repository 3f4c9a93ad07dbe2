"""Shared exception types, and the guard limits read from the environment.

InputError maps to CLI exit code 3, ResourceLimitError to exit code 4.
"""

import os


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard was exceeded; raise rather than grind forever."""


def guard_from_env(name: str, default: int) -> int:
    """The integer guard set in environment variable `name`, else `default`."""
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {value!r}") from exc


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (not a bool, float or string), else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
