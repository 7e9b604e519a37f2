"""The shapes every layer shares: warning keys, labels, feature vectors,
extraction modes, and the feature-matrix CSV that carries them.

This is the bottom module of the package: it imports only ``errors`` and the
standard library. ``history``, ``oracle`` and ``features`` build on these
names, and ``dataset``, ``models`` and ``evaluation`` need nothing else at
import, so ``fit`` and ``eval`` load no ledger, labeling or extraction code.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, fields
from typing import IO, Iterable, Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class WarningKey:
    """Cross-revision identity of a warning.

    Identity is (bug pattern, file path, entity signature); the line number
    is deliberately excluded so that a warning keeps its key while code moves
    around inside a file. Keys do change across file renames;
    ``history.build_universe`` bridges those via the rename chain.
    """

    bug_pattern: str
    file_path: str
    package: str
    class_name: str
    method: str | None = None

    def sort_key(self) -> tuple[str, str, str, str, str]:
        return (self.bug_pattern, self.file_path, self.package,
                self.class_name, self.method or "")

    def __lt__(self, other: "WarningKey") -> bool:
        return self.sort_key() < other.sort_key()

    def with_path(self, path: str) -> "WarningKey":
        return WarningKey(self.bug_pattern, path, self.package,
                          self.class_name, self.method)


# A key as CSV cells (``labels.csv`` and the feature matrices): the first five
# columns of a row. A CSV cell cannot hold null, so a class-level key's method
# is written as "" and read back as None: a key whose method is the empty
# string is the one key that does not survive the round trip.

KEY_COLUMNS = ("bug_pattern", "file_path", "entity_package", "entity_class", "entity_method")


def key_row(key: WarningKey) -> list[str]:
    """The ``KEY_COLUMNS`` cells of a key."""
    return [key.bug_pattern, key.file_path, key.package, key.class_name, key.method or ""]


def key_from_row(cells: Sequence[str]) -> WarningKey:
    """The key held in a row's first five cells, in ``KEY_COLUMNS`` order."""
    return WarningKey(cells[0], cells[1], cells[2], cells[3], cells[4] or None)


class Label(str, enum.Enum):
    ACTIONABLE = "Actionable"
    FALSE_ALARM = "FalseAlarm"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LeakMode:
    """Extraction mode: leaky (needs a reference revision) or leak-free."""

    mode: str  # "leaky" | "leakfree"
    window_days: float = 365.0

    def __post_init__(self):
        if self.mode not in ("leaky", "leakfree"):
            raise ValidationError(f"mode must be 'leaky' or 'leakfree', got {self.mode!r}")
        if not 0 < self.window_days < math.inf:
            raise ValidationError(f"window_days must be finite and positive, "
                                  f"got {self.window_days!r}")

    @property
    def is_leaky(self) -> bool:
        return self.mode == "leaky"

    @classmethod
    def leaky(cls) -> "LeakMode":
        return cls("leaky")

    @classmethod
    def leakfree(cls, window_days: float = 365.0) -> "LeakMode":
        return cls("leakfree", window_days)


# ---------------------------------------------------------------------------
# Feature vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureVector:
    # warning combination
    warning_context_in_method: float
    warning_context_in_file: float
    warning_context_for_warning_type: float
    defect_likelihood_for_warning_pattern: float
    discretization_of_defect_likelihood: float
    average_lifetime_for_warning_type: float
    # code characteristics
    comment_code_ratio: float
    method_depth: int
    file_depth: int
    methods_in_file: int
    classes_in_package: int
    # warning characteristics
    warning_pattern: str
    warning_type: str
    warning_priority: int
    package: str
    # file history
    file_age_days: float
    file_creation_timestamp: float
    developers: int
    # code analysis
    parameter_signature: str
    method_visibility: str
    # code history
    loc_added_in_file_last_25_revisions: int
    loc_added_in_package_past_3_months: int
    # warning history
    warning_lifetime_revisions: int
    flags: frozenset[str] = field(default_factory=frozenset)


# The model schema, read off the annotations in declaration order: int and
# float fields are numeric, str fields categorical.
NUMERIC_FIELDS = tuple(f.name for f in fields(FeatureVector) if f.type in ("int", "float"))
CATEGORICAL_FIELDS = tuple(f.name for f in fields(FeatureVector) if f.type == "str")

# Canonical export names for the 23 features.
CANONICAL_NAMES: dict[str, str] = {
    "warning_context_in_method": "warning context in method",
    "warning_context_in_file": "warning context in file",
    "warning_context_for_warning_type": "warning context for warning type",
    "defect_likelihood_for_warning_pattern": "defect likelihood for warning pattern",
    "discretization_of_defect_likelihood": "discretization of defect likelihood",
    "average_lifetime_for_warning_type": "average lifetime for warning type",
    "comment_code_ratio": "comment-code ratio",
    "method_depth": "method depth",
    "file_depth": "file depth",
    "methods_in_file": "# methods in file",
    "classes_in_package": "# classes in package",
    "warning_pattern": "warning pattern",
    "warning_type": "warning type",
    "warning_priority": "warning priority",
    "package": "package",
    "file_age_days": "file age",
    "file_creation_timestamp": "file creation",
    "developers": "developers",
    "parameter_signature": "parameter signature",
    "method_visibility": "method visibility",
    "loc_added_in_file_last_25_revisions": "LOC added in file (last 25 revisions)",
    "loc_added_in_package_past_3_months": "LOC added in package (past 3 month)",
    "warning_lifetime_revisions": "warning lifetime by revision",
}

# The 23 features in declaration order, which is also their CSV column order.
FEATURE_FIELDS = tuple(CANONICAL_NAMES)
assert FEATURE_FIELDS == tuple(f.name for f in fields(FeatureVector))[:-1]


# ---------------------------------------------------------------------------
# Feature-matrix export / import
# ---------------------------------------------------------------------------

META_COLUMNS = ("origin_rev", "label", "mode")
MATRIX_HEADER = KEY_COLUMNS + META_COLUMNS + tuple(CANONICAL_NAMES[f] for f in FEATURE_FIELDS) + ("flags",)

_FIRST_FEATURE = len(KEY_COLUMNS) + len(META_COLUMNS)

# (field, column index, decoder) per feature column, resolved once from the
# annotations: int and float cells are parsed, str cells (decoder None) kept.
_FEATURE_COLUMNS = tuple(
    (name, column, {"int": int, "float": float}.get(FeatureVector.__dataclass_fields__[name].type))
    for column, name in enumerate(FEATURE_FIELDS, start=_FIRST_FEATURE)
)


@dataclass(frozen=True)
class MatrixRow:
    key: WarningKey
    origin_rev: str
    label: str  # "" when unlabeled
    mode: str
    vector: FeatureVector


def write_feature_matrix(fp: IO[str], rows: Iterable[MatrixRow]) -> None:
    """Write rows as CSV, one warning per line, with canonical headers."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(MATRIX_HEADER)
    for row in rows:
        record = [*key_row(row.key), row.origin_rev, row.label, row.mode]
        for name in FEATURE_FIELDS:
            value = getattr(row.vector, name)
            record.append(repr(value) if isinstance(value, float) else str(value))
        record.append(";".join(sorted(row.vector.flags)))
        writer.writerow(record)


def read_feature_matrix(fp: IO[str]) -> list[MatrixRow]:
    """Read rows written by ``write_feature_matrix``.

    Any undecodable, short, long or non-numeric record, and any non-finite
    numeric feature, raises ``ValidationError`` naming its line.
    """
    reader = csv.reader(fp)
    try:
        header = next(reader, None)
        if header is None or tuple(header) != MATRIX_HEADER:
            raise ValidationError("unrecognized feature-matrix header")
        return [_matrix_row(record, reader.line_num) for record in reader]
    except (csv.Error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"feature matrix line {reader.line_num}: {exc}") from None


def _matrix_row(record: list[str], line_no: int) -> MatrixRow:
    if len(record) != len(MATRIX_HEADER):
        raise ValidationError(
            f"feature matrix line {line_no}: {len(record)} field(s), "
            f"expected {len(MATRIX_HEADER)}"
        )
    values = []
    for name, column, decode in _FEATURE_COLUMNS:
        raw = record[column]
        if decode is None:
            values.append(raw)
            continue
        value = decode(raw)
        if decode is float and not math.isfinite(value):
            raise ValidationError(
                f"feature matrix line {line_no}: {CANONICAL_NAMES[name]!r} is {raw!r}"
            )
        values.append(value)
    origin_rev, label, mode = record[len(KEY_COLUMNS):_FIRST_FEATURE]
    flags = frozenset(f for f in record[-1].split(";") if f)
    return MatrixRow(
        key=key_from_row(record),
        origin_rev=origin_rev,
        label=label,
        mode=mode,
        vector=FeatureVector(*values, flags),
    )
