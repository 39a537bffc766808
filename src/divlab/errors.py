"""Exception hierarchy for divlab.

Every error raised by the library derives from :class:`DivLabError`, so
callers can catch one base class. Subclasses are semantic: they name the
violated contract, not the call site.
"""

from __future__ import annotations

from collections.abc import Mapping


class DivLabError(Exception):
    """Base error for the package."""


class LengthMismatchError(DivLabError):
    """Paired sequences (atoms/weights, atoms/values) have unequal lengths."""


class NegativeWeightError(DivLabError):
    """A probability weight is negative beyond the clamping threshold."""


class TotalMassError(DivLabError):
    """Weights do not sum to 1 within the input tolerance."""


class ZeroTotalMassError(TotalMassError):
    """Weights sum to (numerically) zero; no renormalization is possible."""


class DuplicateAtomError(DivLabError):
    """Atom labels of a distribution are not distinct."""


class SpaceMismatchError(DivLabError):
    """Two objects that must share an atom set do not."""


class NotAbsolutelyContinuousError(DivLabError):
    """nu puts mass where mu does not; no density d(nu)/d(mu) exists."""


class InvalidPartitionError(DivLabError):
    """Blocks are not disjoint or do not cover the atom set."""


class NegativeArgumentError(DivLabError):
    """Convex conjugates are evaluated on the nonnegative half-line only."""


class InvalidLossError(DivLabError):
    """A loss function violates convexity, monotonicity, or l(0)=1 < l(x>0)."""


class InvalidUtilityError(DivLabError):
    """A utility violates convexity, monotonicity, or phi*(1)=0."""


class BracketFailureError(DivLabError):
    """Root bracketing failed; the loss function violates its contract."""


class InvalidDensityError(DivLabError):
    """A coherent-family density is negative or does not integrate to one."""


class UnsupportedFamilyError(DivLabError):
    """The requested operation is not defined for this family."""


class PreconditionViolatedError(DivLabError):
    """A probe was called on inputs outside its stated precondition."""


class ConfigParseError(DivLabError):
    """A suite or spec configuration document is malformed."""


class UnknownFamilyError(ConfigParseError):
    """A configuration names a family this library does not implement."""


class IoError(DivLabError):
    """A report could not be written to its destination."""


def json_object(doc, what: str, *fields) -> tuple:
    """doc's values of fields, once doc is a JSON object that has all of them; else ConfigParseError."""
    if not isinstance(doc, Mapping):
        raise ConfigParseError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in fields if key not in doc]
    if missing:
        raise ConfigParseError(f"{what} is missing field(s): {', '.join(map(repr, missing))}")
    return tuple(doc[key] for key in fields)


def reject_unknown_keys(doc, known, what: str) -> None:
    """Raise ConfigParseError naming every key of doc outside known.

    A field the parser does not read must not be dropped silently: a
    misspelled field would otherwise run with the default it meant to change.
    """
    unknown = sorted(set(doc) - set(known), key=str)
    if unknown:
        raise ConfigParseError(f"{what} has unknown field(s): {', '.join(map(repr, unknown))}")


# the default of a typed_field that has none: a missing field raises KeyError
REQUIRED = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def typed_field(doc, key: str, default, kind: type, what: str):
    """doc[key], or the default, if it is a JSON value of kind: int, float, bool, dict or list.

    Nothing is coerced: ``"trials": 2.7``, ``"trials": true`` or
    ``"must_pass": "false"`` raises ConfigParseError instead of running as 2, 1 or true.
    An integer is any number without a fractional part, 2.0 included, as in JSON Schema.
    With the default REQUIRED a missing field raises KeyError, which the spec
    parsers report as a missing field.
    """
    value = doc[key] if default is REQUIRED else doc.get(key, default)
    number = _is_number(value)
    ok, name = {
        int: (number and (isinstance(value, int) or value.is_integer()), "an integer"),
        float: (number, "a number"),
        bool: (isinstance(value, bool), "true or false"),
        dict: (isinstance(value, Mapping), "an object"),
        list: (isinstance(value, list), "a list"),
    }[kind]
    if not ok:
        raise ConfigParseError(f"{what} {key!r} must be {name}, got {value!r}")
    return kind(value)


def number_list(value, what: str) -> list:
    """value, if it is a JSON list of numbers (a bool is not one); else ConfigParseError."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ConfigParseError(f"{what} must be a JSON list of numbers, got {value!r}")
    return value


def number_rows(value, what: str) -> list:
    """value, if it is a JSON list of lists of numbers, all of one length; else ConfigParseError."""
    if not isinstance(value, list):
        raise ConfigParseError(f"{what} must be a JSON list of rows, got {value!r}")
    rows = [number_list(row, f"a row of {what}") for row in value]
    if len({len(row) for row in rows}) > 1:
        raise ConfigParseError(f"the rows of {what} must all have one length, got {value!r}")
    return rows


def label_list(value, what: str) -> list:
    """value, if it is a JSON list of atom labels: anything but a list or an object, which cannot label an atom."""
    if not isinstance(value, list) or any(isinstance(a, (list, Mapping)) for a in value):
        raise ConfigParseError(f"{what} must be a JSON list of atom labels, got {value!r}")
    return value
