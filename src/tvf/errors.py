"""Errors shared across modules, and the error contract of the CLI.

The six domain base classes live here, not in their layer modules, so that
the CLI can name them without loading any layer.  Each layer imports its
base back and defines its subclasses beside it.

A failing command writes one JSON object ``{"error": ..., "kind": ...}`` to
stderr and exits with the code given below.  ``kind`` is one of:

- exit 64: ``usage``, a bad value of TVF_BUDGET.  Argument-parsing errors
  also exit 64, but print argparse usage text instead of JSON.
- exit 2: ``budget``, a face, search or level budget was exhausted
  (BudgetExceeded); ``depth``, an input nested too deeply for the
  interpreter's recursion limit.
- exit 1, a domain error, named by its class: ``GraphError``; ``VdError``,
  ``CertificateError``; ``SquidError``, ``TheoremViolation``,
  ``SchemeRunError``; ``SchemeError``, ``InfeasibleScheme``;
  ``ComplexError``; ``TverbergError``.
- exit 1, an unreadable input: ``JSONDecodeError`` for malformed JSON, and
  the name of the OSError raised for a file that cannot be read or
  written, such as ``FileNotFoundError``, ``IsADirectoryError``,
  ``NotADirectoryError``, ``PermissionError`` or ``OSError`` itself.
"""


class GraphError(ValueError):
    """A graph operation was called outside its domain."""


class VdError(ValueError):
    """Domain error in the vertex-decomposability machinery."""


class SquidError(ValueError):
    """Domain error in squid or removal-trace handling."""


class SchemeError(ValueError):
    """Domain error in scheme validation or generation."""


class ComplexError(ValueError):
    """Domain error in a simplicial-complex operation."""


class TverbergError(ValueError):
    """Domain error in the witness-search machinery."""


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
