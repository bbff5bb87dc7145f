"""Errors shared across modules, and the error contract of the CLI.

The six domain base classes live here, not in their layer modules, so that
the CLI can name them without loading any layer.  Each layer imports its
base back and defines its subclasses beside it.

A failing command writes one JSON object ``{"error": ..., "kind": ...}`` to
stderr and exits with the code given below.  ``kind`` is one of:

- exit 64: ``usage``, a bad value of TVF_BUDGET.  Argument-parsing errors
  also exit 64, but print argparse usage text instead of JSON.
- exit 2: ``budget``, a Budget was exhausted (BudgetExceeded): faces,
  facets, memo entries, objects of a certificate text, trace nodes,
  product edges, hull tests, trial divisions or scheme blocks.  Every
  search and construction that follows its input's depth runs on
  graphs.run's explicit stack, so no input meets the interpreter's
  recursion limit.
- exit 1, a domain error, named by its class: ``GraphError``; ``VdError``,
  ``CertificateError``; ``SquidError``, ``TheoremViolation``,
  ``SchemeRunError``; ``SchemeError``, ``InfeasibleScheme``;
  ``ComplexError``; ``TverbergError``.  JSON nested past the parser's
  limit, or holding an integer past its digit limit, is an error of its
  reader (read_json): ``CertificateError`` for a certificate,
  ``SquidError`` for a trace, ``SchemeError`` for a scheme.
- exit 1, an unreadable input: ``JSONDecodeError`` for malformed JSON,
  ``UnicodeDecodeError`` for a file that is not UTF-8 text, and the name of
  the OSError raised for a file that cannot be read or written, such as
  ``FileNotFoundError``, ``IsADirectoryError``, ``NotADirectoryError``,
  ``PermissionError`` or ``OSError`` itself.
"""

import json
import sys


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
    """A Budget was exhausted before its search or enumeration completed."""

    def __init__(self, message: str, used: int = 0, limit: int = 0):
        super().__init__(message)
        self.used = used
        self.limit = limit


class Budget:
    """A count of work units that raises BudgetExceeded once it passes its limit.

    A limit of None takes the layer's default; what and unit name the
    budget and its unit in the message.  spend adds one unit, or a whole
    count known in advance, such as a product's edges.
    """

    def __init__(self, limit: int | None, default: int, what: str, unit: str):
        self.limit = default if limit is None else limit
        self.used = 0
        self.what, self.unit = what, unit

    def spend(self, units: int = 1) -> None:
        self.used += units
        if self.used > self.limit:
            message = f"{self.what} budget exceeded ({self.used} > {self.limit} {self.unit})"
            raise BudgetExceeded(message, self.used, self.limit)


_JSON_TYPES = {
    dict: "object", list: "list", str: "string", int: "integer", float: "number", bool: "boolean",
    type(None): "null",
}


def json_type(value) -> str:
    """The name of the JSON type of a parsed value, as errors call it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(owner: dict, key: str, where: str = ""):
    """owner[key]; a missing key raises ValueError naming it (and where)."""
    if key not in owner:
        raise ValueError(f"missing key {key!r}{where}")
    return owner[key]


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


def quoted(text: str) -> str:
    """User text as an error quotes it: its repr, or past 40 characters the
    repr of the first 40 and the length of the whole."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def int_token(token: str, lineno: int, domain_error: type[ValueError], what: str) -> int:
    """int(token), else domain_error naming line lineno and the token
    (quoted); int() also refuses a number past its digit limit."""
    try:
        return int(token)
    except ValueError:
        raise domain_error(f"line {lineno}: expected {what}, got {quoted(token)}") from None


def past_digit_limit(text: str) -> bool:
    """Whether Fraction(text) would build a power of ten past int()'s digit limit.

    Fraction reads a decimal exponent e, or a fraction part of e digits, by
    computing 10**e, in time that grows with e rather than with the text:
    the coordinate 1e10000000 takes seconds.  Readers of rationals ask
    this first and reject such text as their own error.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:  # the limit is off
        return False
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    exponent = exponent.replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > len(str(limit)) or int(exponent) > limit):
        return True
    return len(mantissa.partition(".")[2].replace("_", "")) > limit


def read_json(text: str, what: str, domain_error: type[ValueError]):
    """The value of JSON text, parsed by the json module.

    Text nested past the parser's limit, or holding an integer past
    int()'s digit limit, raises domain_error, the error of the reader of
    `what`; malformed text raises json.JSONDecodeError.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise domain_error(f"{what} JSON is nested too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past int()'s digit limit
        raise domain_error(f"{what} JSON cannot be read: {exc}") from None
