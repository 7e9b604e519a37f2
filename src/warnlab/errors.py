"""Exception hierarchy shared across the package, with the checked JSON
readers that raise it and the model kinds the CLI offers.

Every error carries a short ``category`` slug that the CLI prints as
``error[<category>]: <message>`` before exiting nonzero. This module imports
nothing from warnlab, so a command that needs only these loads no layer.
"""

from __future__ import annotations

import json
import os

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


def typed_reader(data: dict, what: str):
    """``typed(name, kind)``: ``data[name]`` checked against ``kind``; a
    missing or mistyped field raises ``ValidationError`` naming ``what``."""

    def typed(name, kind):
        if name not in data:
            raise ValidationError(f"{what} field {name!r} is missing")
        value = data[name]
        # bool is an int subclass: a count must not be true or false.
        if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
            raise ValidationError(f"{what} field {name!r} is {value!r}")
        return value

    return typed
