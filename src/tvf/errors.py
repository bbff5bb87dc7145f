"""Errors shared across modules."""


class BudgetExceeded(RuntimeError):
    """A configured face, search or level budget was exhausted before completion."""

    def __init__(self, message: str, used: int = 0, limit: int = 0):
        super().__init__(message)
        self.used = used
        self.limit = limit


def json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats, strings and bools raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_ints(value, what: str) -> tuple[int, ...]:
    """The entries of a JSON list of integers, as a tuple."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    for v in value:
        if type(v) is not int:
            json_int(v, f"{what} entry")  # raises, naming the entry
    return tuple(value)
