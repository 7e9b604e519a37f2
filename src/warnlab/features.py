"""The 23 golden warning features, in leaky and leak-free modes.

Five of the features summarize how often warnings in a population (same
method, same file, same warning type, same bug pattern) were closed. In
leaky mode the closure flag of every population member is read off the
reference revision, which sits in the future of the extraction revision:
that reproduces the historical construction in which the ground-truth label
seeps into the features. In leak-free mode populations contain only
warnings first observed inside a trailing window (default 365 days) and a
member counts as closed exactly when it is no longer reported at the
extraction revision itself, so nothing later than the extraction revision
can influence any value. The remaining 18 features are always computed from
the truncated history.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import IO, Iterable, Mapping, Sequence

from .errors import ExtractionError, ValidationError
from .history import (
    ProjectHistory,
    WarningKey,
    truncate_history,
    warning_key,
)

SECONDS_PER_DAY = 86400.0

# Population scopes for the warning-combination features.
SCOPE_METHOD = "method"
SCOPE_FILE = "file"
SCOPE_WARNING_TYPE = "warning_type"
SCOPE_PATTERN = "pattern"

FLAG_EMPTY_METHOD_POPULATION = "empty_population:method"
FLAG_EMPTY_FILE_POPULATION = "empty_population:file"
FLAG_EMPTY_TYPE_POPULATION = "empty_population:warning_type"
FLAG_EMPTY_PATTERN_POPULATION = "empty_population:pattern"
FLAG_METHOD_FILE_FALLBACK = "method_context_file_fallback"
FLAG_SINGLE_PATTERN_CATEGORY = "single_pattern_category"
FLAG_EMPTY_CATEGORY = "empty_category"
FLAG_NO_CLOSED_LIFETIME = "no_closed_lifetime_for_type"
FLAG_FILE_CREATION_INFERRED = "file_creation_inferred"


@dataclass(frozen=True)
class LeakMode:
    """Extraction mode: leaky (needs a reference revision) or leak-free."""

    mode: str  # "leaky" | "leakfree"
    window_days: float = 365.0

    def __post_init__(self):
        if self.mode not in ("leaky", "leakfree"):
            raise ValidationError(f"mode must be 'leaky' or 'leakfree', got {self.mode!r}")
        if self.window_days <= 0:
            raise ValidationError("window_days must be positive")

    @property
    def is_leaky(self) -> bool:
        return self.mode == "leaky"

    @classmethod
    def leaky(cls) -> "LeakMode":
        return cls("leaky")

    @classmethod
    def leakfree(cls, window_days: float = 365.0) -> "LeakMode":
        return cls("leakfree", window_days)


@dataclass(frozen=True)
class WarningPopulation:
    """Warnings relevant to one scope, each flagged closed or still open."""

    scope: str
    members: tuple[tuple[WarningKey, bool], ...]

    def __len__(self) -> int:
        return len(self.members)

    @property
    def closed_count(self) -> int:
        return sum(1 for _, closed in self.members if closed)


def warning_context(population: WarningPopulation) -> float:
    """(closed - open) / total over the population; 0 when it is empty."""
    return _context_of(population.closed_count, len(population))


def defect_likelihood(population: WarningPopulation) -> float:
    """Share of the population that closed; 0 when it is empty."""
    return _likelihood_of(population.closed_count, len(population))


def discretized_defect_likelihood(
    pattern_populations: Mapping[str, WarningPopulation],
) -> float:
    """Spread of per-pattern closure rates around the pooled category rate.

    Averages (D(p) - D(T))^2 over the category's patterns with |T| - 1 in
    the denominator; categories with fewer than two populated patterns
    yield 0 (callers flag that case).
    """
    return _discretization_of(
        {p: (pop.closed_count, len(pop)) for p, pop in pattern_populations.items()}
    )


# The formulas work on (closed, total) counts, which is all extraction keeps
# of a population.

def _context_of(closed: int, total: int) -> float:
    return (closed - (total - closed)) / total if total else 0.0


def _likelihood_of(closed: int, total: int) -> float:
    return closed / total if total else 0.0


def _discretization_of(counts: Mapping[str, Sequence[int]]) -> float:
    populated = {p: c for p, c in counts.items() if c[1] > 0}
    n_patterns = len(populated)
    if n_patterns <= 1:
        return 0.0
    total_members = sum(total for _, total in populated.values())
    total_closed = sum(closed for closed, _ in populated.values())
    pooled = total_closed / total_members
    acc = 0.0
    for pattern in sorted(populated):
        acc += (_likelihood_of(*populated[pattern]) - pooled) ** 2
    return acc / (n_patterns - 1)


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


NUMERIC_FIELDS = (
    "warning_context_in_method",
    "warning_context_in_file",
    "warning_context_for_warning_type",
    "defect_likelihood_for_warning_pattern",
    "discretization_of_defect_likelihood",
    "average_lifetime_for_warning_type",
    "comment_code_ratio",
    "method_depth",
    "file_depth",
    "methods_in_file",
    "classes_in_package",
    "warning_priority",
    "file_age_days",
    "file_creation_timestamp",
    "developers",
    "loc_added_in_file_last_25_revisions",
    "loc_added_in_package_past_3_months",
    "warning_lifetime_revisions",
)

CATEGORICAL_FIELDS = (
    "warning_pattern",
    "warning_type",
    "package",
    "parameter_signature",
    "method_visibility",
)

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

FEATURE_FIELDS = tuple(CANONICAL_NAMES)
_FROM_CANONICAL = {v: k for k, v in CANONICAL_NAMES.items()}
assert len(FEATURE_FIELDS) == 23


# ---------------------------------------------------------------------------
# Canonical warning universe (rename-merged view of one history)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalWarning:
    """One physical warning after merging keys across its rename chain."""

    member_key: WarningKey  # representative key carrying the resolved path
    pattern: str
    category: str
    package: str
    class_name: str
    method: str | None
    path: str  # path at the extraction revision (or at deletion)
    first_seen_idx: int
    first_seen_time: int
    presence: frozenset[int]
    deleted_idx: int | None
    present_at_target: bool
    closed_idx: int | None  # first index absent while the file was alive


def build_universe(base: ProjectHistory, at_idx: int) -> dict[WarningKey, CanonicalWarning]:
    """Merge every warning key of ``base`` across renames, as of ``at_idx``."""
    merged: dict[WarningKey, dict] = {}
    for key, presence in base.key_presence.items():
        last_idx = presence[-1]
        path, deleted_idx = base.resolve_path(key.file_path, last_idx, at_idx)
        canon = key.with_path(path)
        entry = merged.setdefault(
            canon,
            {"presence": set(), "deleted_idx": deleted_idx},
        )
        entry["presence"].update(presence)
        if deleted_idx is not None:
            entry["deleted_idx"] = deleted_idx
    out: dict[WarningKey, CanonicalWarning] = {}
    for canon, entry in merged.items():
        presence = frozenset(entry["presence"])
        first_idx = min(presence)
        deleted_idx = entry["deleted_idx"]
        closed_idx = None
        for idx in range(first_idx + 1, at_idx + 1):
            if deleted_idx is not None and idx >= deleted_idx:
                break
            if idx not in presence:
                closed_idx = idx
                break
        out[canon] = CanonicalWarning(
            member_key=canon,
            pattern=canon.bug_pattern,
            category=base.pattern_categories[canon.bug_pattern],
            package=canon.package,
            class_name=canon.class_name,
            method=canon.method,
            path=canon.file_path,
            first_seen_idx=first_idx,
            first_seen_time=base.rev_at(first_idx).timestamp,
            presence=presence,
            deleted_idx=deleted_idx,
            present_at_target=at_idx in presence,
            closed_idx=closed_idx,
        )
    return out


# ---------------------------------------------------------------------------
# Lifetime statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LifetimeStats:
    lifetime_revisions: int
    average_lifetime_for_type: float
    no_closures_for_type: bool


def lifetime_stats(
    history: ProjectHistory,
    key: WarningKey,
    at_rev: str,
    lifetime_unit: str = "days",
) -> LifetimeStats:
    """Own lifetime in revisions plus the mean closed lifetime of its type.

    Lifetime counts the revisions through ``at_rev`` in which the warning is
    present. The type average covers warnings of the same category whose
    first closure happened at or before ``at_rev``, measured in days by
    default (``lifetime_unit="revisions"`` switches the unit).
    """
    at_idx = history.rev_index(at_rev)
    base = truncate_history(history, at_rev)
    universe = build_universe(base, at_idx)
    canon = _canonical_for(base, universe, key, at_idx)
    if canon is None:
        raise ValidationError(f"warning key not observed at or before {at_rev!r}: {key}")
    return _lifetime_of(canon, at_idx, _type_lifetimes(base, universe, at_idx, lifetime_unit))


def _canonical_for(
    base: ProjectHistory,
    universe: dict[WarningKey, CanonicalWarning],
    key: WarningKey,
    at_idx: int,
) -> CanonicalWarning | None:
    presence = base.key_presence.get(key)
    if not presence:
        return None
    path, _deleted = base.resolve_path(key.file_path, presence[-1], at_idx)
    return universe.get(key.with_path(path))


def _type_lifetimes(
    base: ProjectHistory,
    universe: dict[WarningKey, CanonicalWarning],
    at_idx: int,
    lifetime_unit: str,
) -> dict[str, float]:
    """Category -> mean lifetime of its warnings closed at or before ``at_idx``.

    Durations are summed in universe order, so the means do not depend on
    how many targets share a category.
    """
    if lifetime_unit not in ("days", "revisions"):
        raise ValidationError(f"lifetime_unit must be 'days' or 'revisions', got {lifetime_unit!r}")
    durations: dict[str, list[float]] = defaultdict(list)
    for other in universe.values():
        if other.closed_idx is None or other.closed_idx > at_idx:
            continue
        if lifetime_unit == "days":
            start = base.rev_at(other.first_seen_idx).timestamp
            end = base.rev_at(other.closed_idx).timestamp
            durations[other.category].append((end - start) / SECONDS_PER_DAY)
        else:
            durations[other.category].append(float(other.closed_idx - other.first_seen_idx))
    return {category: sum(ds) / len(ds) for category, ds in durations.items()}


def _lifetime_of(canon: CanonicalWarning, at_idx: int,
                 type_lifetimes: Mapping[str, float]) -> LifetimeStats:
    lifetime = sum(1 for idx in canon.presence if idx <= at_idx)
    average = type_lifetimes.get(canon.category)
    return LifetimeStats(lifetime, 0.0 if average is None else average, average is None)


# ---------------------------------------------------------------------------
# Golden-feature extraction
# ---------------------------------------------------------------------------

def extract_golden(
    history: ProjectHistory,
    at_rev: str,
    mode: LeakMode,
    ref_rev: str | None = None,
    *,
    lifetime_unit: str = "days",
) -> dict[WarningKey, FeatureVector]:
    """Compute all 23 features for every warning observed at ``at_rev``.

    Leaky mode requires ``ref_rev`` and marks population members closed by
    their presence at the reference revision; leak-free mode forbids
    ``ref_rev`` and operates entirely on the history truncated at
    ``at_rev``. Missing static attributes abort extraction with a
    per-warning error. Output is sorted by warning key.

    Cost: one pass each over the population members, the warning universe
    and the change records computes everything that depends only on the
    extraction revision and mode (closed/total counts per method, file,
    category and pattern; discretization and mean closed lifetime per
    category; recent LOC per package). Each target then costs lookups plus
    its own ``resolve_path`` and ``file_chain`` walk.
    """
    at_idx = history.rev_index(at_rev)
    ref_idx: int | None = None
    if mode.is_leaky:
        if ref_rev is None:
            raise ValidationError("leaky extraction requires a reference revision")
        ref_idx = history.rev_index(ref_rev)
        if ref_idx <= at_idx:
            raise ValidationError("reference revision must come after the extraction revision")
        base = history
    else:
        if ref_rev is not None:
            raise ValidationError("leak-free extraction forbids a reference revision")
        base = truncate_history(history, at_rev)
    universe = build_universe(base, at_idx)

    # Population membership and each member's closed flag, per mode.
    members: list[tuple[CanonicalWarning, bool]] = []
    if mode.is_leaky:
        ref_keys = history.present_keys[ref_idx]
        for canon in universe.values():
            if not canon.present_at_target:
                continue
            path, deleted = history.resolve_path(canon.path, at_idx, ref_idx)
            closed = deleted is not None or canon.member_key.with_path(path) not in ref_keys
            members.append((canon, closed))
    else:
        window_start = base.rev_at(at_idx).timestamp - mode.window_days * SECONDS_PER_DAY
        for canon in universe.values():
            if canon.first_seen_time >= window_start:
                members.append((canon, not canon.present_at_target))

    # [closed, total] per population, keyed by (scope, path[, method]) or
    # (scope, category | pattern).
    counts: dict[tuple[str, ...], list[int]] = defaultdict(lambda: [0, 0])
    patterns_by_category: dict[str, set[str]] = defaultdict(set)
    for canon, closed in members:
        scopes = [(SCOPE_FILE, canon.path), (SCOPE_WARNING_TYPE, canon.category),
                  (SCOPE_PATTERN, canon.pattern)]
        if canon.method is not None:
            scopes.append((SCOPE_METHOD, canon.path, canon.method))
        for scope in scopes:
            tally = counts[scope]
            tally[0] += closed
            tally[1] += 1
        patterns_by_category[canon.category].add(canon.pattern)
    empty = (0, 0)
    discretization = {
        category: _discretization_of({p: counts[(SCOPE_PATTERN, p)] for p in patterns})
        for category, patterns in patterns_by_category.items()
    }

    targets = base.keys_at(at_rev)
    missing: dict[WarningKey, str] = {}
    for key in targets:
        if (at_rev, key) not in base.attributes:
            missing[key] = "static attributes record"
    if missing:
        listing = "; ".join(f"{k}: {why}" for k, why in list(missing.items())[:5])
        raise ExtractionError(
            f"{len(missing)} warning(s) lack data at {at_rev}: {listing}",
            failures={str(k): why for k, why in missing.items()},
        )
    type_lifetimes = _type_lifetimes(base, universe, at_idx, lifetime_unit)
    loc_by_package = _loc_by_package(base, at_idx, days=90.0)
    at_time = base.rev_at(at_idx).timestamp

    obs_by_key = {}
    for obs in base.observations_at.get(at_rev, ()):
        obs_by_key.setdefault(warning_key(obs), obs)

    out: dict[WarningKey, FeatureVector] = {}
    for key in targets:
        obs = obs_by_key[key]
        attrs = base.attributes[(at_rev, key)]
        canon = _canonical_for(base, universe, key, at_idx)
        flags: set[str] = set()

        file_count = counts.get((SCOPE_FILE, canon.path), empty)
        if file_count[1] == 0:
            flags.add(FLAG_EMPTY_FILE_POPULATION)
        if canon.method is None:
            method_count = file_count
            flags.add(FLAG_METHOD_FILE_FALLBACK)
        else:
            method_count = counts.get((SCOPE_METHOD, canon.path, canon.method), empty)
        if method_count[1] == 0:
            flags.add(FLAG_EMPTY_METHOD_POPULATION)
        type_count = counts.get((SCOPE_WARNING_TYPE, canon.category), empty)
        if type_count[1] == 0:
            flags.add(FLAG_EMPTY_TYPE_POPULATION)
        pattern_count = counts.get((SCOPE_PATTERN, canon.pattern), empty)
        if pattern_count[1] == 0:
            flags.add(FLAG_EMPTY_PATTERN_POPULATION)

        n_patterns = len(patterns_by_category.get(canon.category, ()))
        if n_patterns == 0:
            flags.add(FLAG_EMPTY_CATEGORY)
        elif n_patterns == 1:
            flags.add(FLAG_SINGLE_PATTERN_CATEGORY)

        stats = _lifetime_of(canon, at_idx, type_lifetimes)
        if stats.no_closures_for_type:
            flags.add(FLAG_NO_CLOSED_LIFETIME)

        chain = base.file_chain(canon.path, at_idx)
        if chain.birth_idx is not None:
            birth_time = base.rev_at(chain.birth_idx).timestamp
        else:
            birth_time = _earliest_mention(base, canon, chain)
            flags.add(FLAG_FILE_CREATION_INFERRED)

        out[key] = FeatureVector(
            warning_context_in_method=_context_of(*method_count),
            warning_context_in_file=_context_of(*file_count),
            warning_context_for_warning_type=_context_of(*type_count),
            defect_likelihood_for_warning_pattern=_likelihood_of(*pattern_count),
            discretization_of_defect_likelihood=discretization.get(canon.category, 0.0),
            average_lifetime_for_warning_type=stats.average_lifetime_for_type,
            comment_code_ratio=attrs.comment_code_ratio,
            method_depth=attrs.method_depth,
            file_depth=attrs.file_depth,
            methods_in_file=attrs.methods_in_file,
            classes_in_package=attrs.classes_in_package,
            warning_pattern=obs.bug_pattern,
            warning_type=obs.bug_category,
            warning_priority=obs.priority,
            package=obs.entity.package,
            file_age_days=(at_time - birth_time) / SECONDS_PER_DAY,
            file_creation_timestamp=float(birth_time),
            developers=len(chain.authors()),
            parameter_signature=attrs.parameter_signature,
            method_visibility=attrs.method_visibility,
            loc_added_in_file_last_25_revisions=_loc_last_n_revisions(chain, at_idx, n=25),
            loc_added_in_package_past_3_months=loc_by_package.get(canon.package, 0),
            warning_lifetime_revisions=stats.lifetime_revisions,
            flags=frozenset(flags),
        )
    for vec in out.values():
        _check_finite(vec)
    return out


def _earliest_mention(base: ProjectHistory, canon: CanonicalWarning, chain) -> int:
    """Fallback creation time when no Add record exists for the file chain."""
    candidates = [base.rev_at(canon.first_seen_idx).timestamp]
    candidates.extend(base.rev_at(idx).timestamp for idx, _ in chain.records)
    return min(candidates)


def _loc_last_n_revisions(chain, at_idx: int, n: int) -> int:
    per_rev: dict[int, int] = defaultdict(int)
    for idx, rec in chain.records:
        if idx <= at_idx:
            per_rev[idx] += rec.lines_added
    recent = sorted(per_rev)[-n:]
    return sum(per_rev[idx] for idx in recent)


def _loc_by_package(base: ProjectHistory, at_idx: int, days: float) -> dict[str, int]:
    """Package -> lines added to its files in the ``days`` up to ``at_idx``."""
    floor = base.rev_at(at_idx).timestamp - days * SECONDS_PER_DAY
    by_path: dict[str, int] = defaultdict(int)
    for rec in base.changes:
        idx = base.rev_index(rec.revision)
        if idx <= at_idx and base.rev_at(idx).timestamp > floor:
            by_path[rec.file_path] += rec.lines_added
    return {
        package: sum(by_path.get(path, 0) for path in paths)
        for package, paths in base.package_paths.items()
    }


def _check_finite(vec: FeatureVector) -> None:
    for name in NUMERIC_FIELDS:
        value = float(getattr(vec, name))
        if not math.isfinite(value):
            raise ExtractionError(f"non-finite value for feature {name!r}: {value!r}")


# ---------------------------------------------------------------------------
# Time-travel audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeTravelAudit:
    ok: bool
    checked: int
    mismatched_keys: tuple[WarningKey, ...]


def audit_time_travel(
    history: ProjectHistory,
    at_rev: str,
    mode: LeakMode,
    extractor=extract_golden,
) -> TimeTravelAudit:
    """Verify leak-free extraction ignores everything after ``at_rev``.

    Recomputes the feature map on the explicitly truncated history and
    compares bit-exactly against what ``extractor`` produces on the full
    one. Any mismatch names the offending warnings.
    """
    if mode.is_leaky:
        raise ValidationError("time-travel audit applies to leak-free extraction only")
    expected = extract_golden(truncate_history(history, at_rev), at_rev, mode)
    actual = extractor(history, at_rev, mode)
    mismatched = sorted(
        set(expected) ^ set(actual)
        | {k for k in expected.keys() & actual.keys() if expected[k] != actual[k]},
        key=WarningKey.sort_key,
    )
    return TimeTravelAudit(ok=not mismatched, checked=len(expected), mismatched_keys=tuple(mismatched))


# ---------------------------------------------------------------------------
# Feature-matrix export / import
# ---------------------------------------------------------------------------

KEY_COLUMNS = ("bug_pattern", "file_path", "entity_package", "entity_class", "entity_method")
META_COLUMNS = ("origin_rev", "label", "mode")
MATRIX_HEADER = KEY_COLUMNS + META_COLUMNS + tuple(CANONICAL_NAMES[f] for f in FEATURE_FIELDS) + ("flags",)


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
        record = [
            row.key.bug_pattern,
            row.key.file_path,
            row.key.package,
            row.key.class_name,
            row.key.method or "",
            row.origin_rev,
            row.label,
            row.mode,
        ]
        for name in FEATURE_FIELDS:
            value = getattr(row.vector, name)
            record.append(repr(value) if isinstance(value, float) else str(value))
        record.append(";".join(sorted(row.vector.flags)))
        writer.writerow(record)


def read_feature_matrix(fp: IO[str]) -> list[MatrixRow]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or tuple(header) != MATRIX_HEADER:
        raise ValidationError("unrecognized feature-matrix header")
    rows: list[MatrixRow] = []
    for record in reader:
        values = dict(zip(MATRIX_HEADER, record))
        key = WarningKey(
            bug_pattern=values["bug_pattern"],
            file_path=values["file_path"],
            package=values["entity_package"],
            class_name=values["entity_class"],
            method=values["entity_method"] or None,
        )
        kwargs = {}
        for name in FEATURE_FIELDS:
            raw = values[CANONICAL_NAMES[name]]
            target = FeatureVector.__dataclass_fields__[name].type
            if name in CATEGORICAL_FIELDS:
                kwargs[name] = raw
            elif target == "int":
                kwargs[name] = int(raw)
            else:
                kwargs[name] = float(raw)
        flags = frozenset(f for f in values["flags"].split(";") if f)
        rows.append(
            MatrixRow(
                key=key,
                origin_rev=values["origin_rev"],
                label=values["label"],
                mode=values["mode"],
                vector=FeatureVector(flags=flags, **kwargs),
            )
        )
    return rows


def vector_as_mapping(vec: FeatureVector) -> dict[str, float | str]:
    return {f.name: getattr(vec, f.name) for f in fields(vec) if f.name != "flags"}
