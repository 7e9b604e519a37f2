"""The feature schema: extraction modes, feature vectors, and the
feature-matrix CSV that carries them.

It imports only ``errors``, ``keys`` and the standard library. ``features``
builds on these names, and ``dataset``, ``models`` and ``evaluation`` need
nothing else at import, so ``fit`` and ``eval`` load no ledger, labeling or
extraction code. The ledger layers (``history``, ``oracle``) need only
``keys``, so the ledger commands never load this module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import IO, Iterable

from .errors import ValidationError, field_types, kind_of
from .keys import KEY_COLUMNS, WarningKey, key_from_row, key_row


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

# (field, column index, type, field kind) per feature column, resolved once
# from the annotations: each cell is parsed by its type (int, float or str)
# and then checked by its kind (``errors``). Extraction checks each numeric
# feature it computes by the same kind (``features.golden_features``).
FEATURE_COLUMNS = tuple(
    (name, column, field_type, kind_of(field_type))
    for column, (name, field_type) in enumerate(field_types(FeatureVector).items(),
                                                start=_FIRST_FEATURE)
    if name != "flags"
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

    Any undecodable, short, long or non-numeric record, and any numeric
    feature outside its field kind (a non-finite float, an integer outside
    64 bits), raises ``ValidationError`` naming its line.
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
    for name, column, parse, kind in FEATURE_COLUMNS:
        raw = record[column]
        value = parse(raw)
        try:
            values.append(kind(value, name))
        except ValueError:  # a non-finite float, or an integer outside 64 bits
            raise ValidationError(
                f"feature matrix line {line_no}: {CANONICAL_NAMES[name]!r} is {raw!r}"
            ) from None
    origin_rev, label, mode = record[len(KEY_COLUMNS):_FIRST_FEATURE]
    flags = frozenset(f for f in record[-1].split(";") if f)
    return MatrixRow(
        key=key_from_row(record),
        origin_rev=origin_rev,
        label=label,
        mode=mode,
        vector=FeatureVector(*values, flags),
    )
