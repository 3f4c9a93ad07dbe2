"""Shared exception types and JSON integer parsing.

InputError maps to CLI exit code 3, ResourceLimitError to exit code 4.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard was exceeded; raise rather than grind forever."""


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (not a bool, float or string), else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
