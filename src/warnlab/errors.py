"""Exception hierarchy shared across the package, and the one field-kind
codec through which every outside input is read.

Every error carries a short ``category`` slug that the CLI prints as
``error[<category>]: <message>`` before exiting nonzero. This module imports
nothing from warnlab, so a command that needs only these loads no layer.

Field kinds. A kind reads one decoded JSON value: it returns the value, or
raises ``ValueError("<name> must be ..., got ...")``. Each kind is defined
here, once, and a record field names it by its type, the text before
the colon below:

- ``str`` (``string``): a string; ``str | None`` (``optional_string``): a
  string or null.
- ``int`` (``int64``): an integer from -2**63 to 2**63 - 1, never true,
  false or a number written with a fraction or exponent (``2.0``, ``1e3``).
- ``Count`` (``count``): an ``int64`` >= 0.
- ``float`` (``finite``): a number whose float64 value is finite, never
  true, false, NaN, ±Infinity or ``10**400``; an integer reads as its float.
- ``Rate`` (``rate``): a ``finite`` number in [0, 1].
- ``bool`` (``boolean``): true or false, never 0 or 1.
- ``tuple[K, ...]`` and ``frozenset[K]`` (``list_of(K)``): an array of K;
  ``tuple[K1, K2]`` (``row(K1, K2)``): an array of one K1 then one K2, for
  any number of kinds; ``K | None`` (``optional(K)``): K or null.
- a record (a ``NamedTuple``): an object holding its fields, each by its
  type's kind; a dict of field types: the object's fields, read as a dict.

``kind_of`` resolves a field type to its kind, and ``read_fields`` reads a
JSON object's fields by their types (``field_types`` of a record),
naming the object in every message. The ledger decoders in
``history`` call the kinds directly.
"""

from __future__ import annotations

import json
import math
import os
from types import FunctionType
from typing import Annotated, get_args, get_origin, get_type_hints

# The model kinds a dataset can train. They live here, not in models, so the
# CLI parser can offer them without importing numpy or the dataset layer.
MODEL_KINDS = ("constant", "repeat", "knn", "linear")

class WarnlabError(Exception):
    category = "error"


class LedgerParseError(WarnlabError):
    """A ledger line could not be decoded or fails field validation."""

    category = "parse"

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class IntegrityError(WarnlabError):
    """A record references something the history does not contain."""

    category = "integrity"


class OrderingError(WarnlabError):
    """Revision arguments violate the required chronological order."""

    category = "ordering"


class ValidationError(WarnlabError):
    """An argument or configuration value is out of contract."""

    category = "validation"


class ExtractionError(WarnlabError):
    """Feature extraction failed for one or more warnings."""

    category = "extraction"

    def __init__(self, message: str, failures: dict | None = None):
        super().__init__(message)
        self.failures = failures or {}


class ModelError(WarnlabError):
    category = "model"


def read_json(path: str | os.PathLike[str]):
    """A JSON file's value; content that is not JSON raises ``ValidationError``."""
    with open(path, encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, deep nesting
            raise ValidationError(f"{path}: not JSON ({exc})") from None


# ---------------------------------------------------------------------------
# Field kinds (module docstring)
# ---------------------------------------------------------------------------

def _wrong_type(name: str, value, expected: str) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {value!r}")


def string(value, name: str) -> str:
    if type(value) is not str:
        raise _wrong_type(name, value, "a string")
    return value


def optional_string(value, name: str) -> str | None:
    if value is not None and type(value) is not str:
        raise _wrong_type(name, value, "a string or null")
    return value


def int64(value, name: str) -> int:
    """A JSON integer in the signed 64-bit range, a Java long: past about
    10**308 an integer has no float value, and timestamps and features take one."""
    if type(value) is not int:
        raise _wrong_type(name, value, "an integer")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{name} must be a signed 64-bit integer")
    return value


def count(value, name: str) -> int:
    if int64(value, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


Count = Annotated[int, count]  # an int field read by the narrower kind


def finite(value, name: str) -> float:
    """A JSON number as a finite float; an integer too large for a float
    reads as infinite, and so is refused."""
    if type(value) is not float:
        if type(value) is not int:
            raise _wrong_type(name, value, "a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def rate(value, name: str) -> float:
    value = finite(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


Rate = Annotated[float, rate]  # a float field read by the narrower kind


def boolean(value, name: str) -> bool:
    if type(value) is not bool:
        raise _wrong_type(name, value, "true or false")
    return value


def list_of(kind, container=tuple):
    """The kind of a JSON array whose items are each of ``kind``."""
    def read(value, name: str):
        if type(value) is not list:
            raise _wrong_type(name, value, "an array")
        return container([kind(item, name) for item in value])
    return read


def row(*kinds):
    """The kind of a JSON array of ``len(kinds)`` items, each of its own kind."""
    def read(value, name: str) -> tuple:
        if type(value) is not list or len(value) != len(kinds):
            raise _wrong_type(name, value, f"an array of {len(kinds)}")
        return tuple(kind(item, name) for kind, item in zip(kinds, value))
    return read


def optional(kind):
    """The kind of ``kind`` or null."""
    def read(value, name: str):
        return None if value is None else kind(value, name)
    return read


_KINDS = {str: string, str | None: optional_string, int: int64, float: finite, bool: boolean}


def kind_of(field_type):
    """The kind a field type names (module docstring)."""
    if isinstance(field_type, dict):
        return lambda value, name: read_fields(value, name, field_type)
    if hasattr(field_type, "_fields"):  # a record
        types = field_types(field_type)
        return lambda value, name: field_type(**read_fields(value, name, types))
    origin, args = get_origin(field_type), get_args(field_type)
    if origin is Annotated:
        return field_type.__metadata__[0]
    if field_type in _KINDS:
        return _KINDS[field_type]
    if type(None) in args:
        return optional(kind_of(args[0]))
    if origin is frozenset or origin is tuple and args[-1] is ...:
        return list_of(kind_of(args[0]), origin)
    if origin is tuple:
        return row(*map(kind_of, args))
    raise TypeError(f"no field kind for {field_type!r}")


def field_types(cls) -> dict:
    """Field name -> type of a ``NamedTuple`` record, with ``Count`` and ``Rate`` kept."""
    return get_type_hints(cls, include_extras=True)


def read_fields(data, what: str, types: dict) -> dict:
    """Each field of the JSON object ``data`` that ``types`` names (name ->
    field type, or a kind), read by its kind. A value that is not an
    object, and a missing or ill-kinded field, raise ``ValidationError``
    naming ``what``; fields outside ``types`` are ignored."""
    if type(data) is not dict:
        raise ValidationError(f"{what} must be a JSON object")
    out = {}
    for name, field_type in types.items():
        if name not in data:
            raise ValidationError(f"{what} field {name!r} is missing")
        kind = field_type if isinstance(field_type, FunctionType) else kind_of(field_type)
        try:
            out[name] = kind(data[name], f"{what} field {name!r}")
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    return out
