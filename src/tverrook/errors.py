"""Shared exception types, JSON integer parsing, and the equality of results.

InputError maps to CLI exit code 3, ResourceLimitError to exit code 4.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard was exceeded; raise rather than grind forever."""


# ``==``, ``!=`` and ``hash`` of a NamedTuple result whose last field is a
# by-product (search counters, elimination sizes): values of one type that
# differ only there are equal, and values of two types never are.  A type
# sets all three, since tuple's own ``!=`` and ``hash`` would read the last
# field.
def eq_but_last(self, other):
    return other.__class__ is self.__class__ and self[:-1] == other[:-1]


def ne_but_last(self, other):
    return other.__class__ is not self.__class__ or self[:-1] != other[:-1]


def hash_but_last(self):
    return hash(self[:-1])


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (not a bool, float or string), else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
