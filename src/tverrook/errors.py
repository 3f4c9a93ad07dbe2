"""Shared exception types and JSON integer parsing.

InputError maps to CLI exit code 3, ResourceLimitError to exit code 4.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard was exceeded; raise rather than grind forever."""


def shown(value) -> str:
    """`repr(value)` for an error message: its first 40 characters and its
    length when it is longer.  An int of more than 128 bits, too long to
    show whole, shows its bit length: `repr` refuses ints of more than
    `sys.get_int_max_str_digits()` digits."""
    if isinstance(value, int) and not isinstance(value, bool) and value.bit_length() > 128:
        return f"<an int of {value.bit_length()} bits>"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (not a bool, float or string), else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {shown(value)}")
    return value
