"""The 23 golden warning features, in leaky and leak-free modes.

Five of the features summarize how often warnings in a population (same
method, same file, same warning type, same bug pattern) were closed. A
warning is one entry of the warning universe of the ``history`` module
(``build_universe``): its observations within one live range of its file,
bridged across renames. It is closed at the first revision of that range
that does not report it; a Delete ends the range without closing it. The
same universe gives each warning its lifetime and the mean closed lifetime
per type, and deduplication its first sighting. In leaky mode the
population is the warnings observed at the extraction revision, and each
member's closure flag is the ground-truth heuristic's own label against the
reference revision (``oracle.heuristic_label``): Actionable and Unknown
count as closed, FalseAlarm as open. That reproduces the historical
construction in which the label seeps into the features. In leak-free mode
populations contain only warnings first observed inside a trailing window
(default 365 days) and a member counts as closed exactly when it is no
longer reported at the extraction revision itself.

``golden_features`` computes all 23 features, in both modes, from the
history cut at the extraction revision and its universe, and reads nothing
else. Leaky mode's one read past the cut, the heuristic labels, is made by
its caller and handed in: by ``extract_golden``, which cuts
(``truncate_history``) and labels, or by ``dataset.build_dataset``.

Each vector's 18 numeric features are checked by the field kinds by which
``schema.read_feature_matrix`` reads them back, so extraction returns no
vector that its feature matrix would refuse.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import ExtractionError, ValidationError
from .history import (
    SECONDS_PER_DAY,
    CanonicalWarning,
    ProjectHistory,
    WarningId,
    WarningObservation,
    build_universe,  # re-exported: the universe lives in history
    truncate_history,
)
from .keys import Label, WarningKey
from .oracle import heuristic_label
from .schema import FEATURE_COLUMNS, NUMERIC_FIELDS, FeatureVector, LeakMode

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


# The formulas take a population as its (closed, total) counts, which is all
# extraction keeps of one.

def warning_context(closed: int, total: int) -> float:
    """(closed - open) / total over a population; 0 when it is empty."""
    return (closed - (total - closed)) / total if total else 0.0


def defect_likelihood(closed: int, total: int) -> float:
    """Share of a population that closed; 0 when it is empty."""
    return closed / total if total else 0.0


def discretized_defect_likelihood(counts: Mapping[str, Sequence[int]]) -> float:
    """Spread of per-pattern closure rates around the pooled category rate.

    ``counts`` maps each pattern of a category to its (closed, total).
    Averages (D(p) - D(T))^2 over the category's populated patterns with
    |T| - 1 in the denominator; categories with fewer than two populated
    patterns yield 0 (callers flag that case).
    """
    populated = {p: c for p, c in counts.items() if c[1] > 0}
    n_patterns = len(populated)
    if n_patterns <= 1:
        return 0.0
    total_members = sum(total for _, total in populated.values())
    total_closed = sum(closed for closed, _ in populated.values())
    pooled = total_closed / total_members
    acc = 0.0
    for pattern in sorted(populated):
        acc += (defect_likelihood(*populated[pattern]) - pooled) ** 2
    return acc / (n_patterns - 1)


def _type_lifetimes(base: ProjectHistory,
                    universe: dict[WarningId, CanonicalWarning]) -> dict[str, float]:
    """Category -> mean lifetime in days of its closed warnings.

    Durations are summed exactly (``math.fsum``), so the means depend
    neither on universe order nor on how many targets share a category.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for other in universe.values():
        if other.closed_idx is None:
            continue
        start = base.revisions[other.first_seen_idx].timestamp
        end = base.revisions[other.closed_idx].timestamp
        durations[other.category].append((end - start) / SECONDS_PER_DAY)
    return {category: math.fsum(ds) / len(ds) for category, ds in durations.items()}


# ---------------------------------------------------------------------------
# Golden-feature extraction
# ---------------------------------------------------------------------------

def extract_golden(
    history: ProjectHistory,
    at_rev: str,
    mode: LeakMode,
    ref_rev: str | None = None,
) -> dict[WarningKey, FeatureVector]:
    """``golden_features`` of the history cut at ``at_rev``. Leaky mode requires
    ``ref_rev`` and labels the warnings at ``at_rev`` against it
    (``heuristic_label``, which raises ``OrderingError`` unless ``ref_rev``
    comes after ``at_rev``), the one read past the cut; leak-free forbids it."""
    labels = None
    if mode.is_leaky:
        if ref_rev is None:
            raise ValidationError("leaky extraction requires a reference revision")
        labels = {lw.key: lw.label for lw in heuristic_label(history, at_rev, ref_rev)}
    elif ref_rev is not None:
        raise ValidationError("leak-free extraction forbids a reference revision")
    return golden_features(truncate_history(history, at_rev), mode, labels)


def golden_features(
    base: ProjectHistory, mode: LeakMode, labels: Mapping[WarningKey, Label] | None = None,
) -> dict[WarningKey, FeatureVector]:
    """Compute all 23 features for every warning observed at the horizon of
    ``base``, the history cut at the extraction revision, reading nothing else.

    Leaky mode requires ``labels``, the heuristic label of every warning at
    the horizon: those warnings are the population members, and Actionable
    or Unknown count as closed. Leak-free mode forbids them. Missing static
    attributes abort extraction with a per-warning error, and so does a
    numeric feature outside the field kind the feature-matrix reader checks
    it by (an integer past 64 bits, such as a LOC sum). A key observed
    more than once at the horizon takes its priority from the observation
    with the lowest (line, priority). Output is sorted by warning key.

    Cost: one pass each over the members, the universe and the change
    records computes everything that depends only on the extraction revision
    and mode (closed/total counts per population; discretization and mean
    closed lifetime per category; recent LOC per package). Each target then
    costs lookups plus its own ``file_chain`` walk.
    """
    if mode.is_leaky != (labels is not None):
        raise ValidationError("leaky extraction takes the heuristic labels, leak-free none")
    at_idx = len(base.revisions) - 1
    universe = base.universe
    at_time = base.revisions[at_idx].timestamp

    # Population membership and each member's closed flag, per mode.
    if mode.is_leaky:
        members = [(universe[(key, None)], label is not Label.FALSE_ALARM)
                   for key, label in labels.items()]
    else:
        window_start = at_time - mode.window_days * SECONDS_PER_DAY
        members = [(canon, at_idx not in canon.presence) for canon in universe.values()
                   if base.revisions[canon.first_seen_idx].timestamp >= window_start]

    # [closed, total] per population, keyed by (scope, path[, method]) or
    # (scope, category | pattern).
    counts: dict[tuple[str, ...], list[int]] = defaultdict(lambda: [0, 0])
    patterns_by_category: dict[str, set[str]] = defaultdict(set)
    for canon, closed in members:
        key = canon.member_key
        scopes = [(SCOPE_FILE, key.file_path), (SCOPE_WARNING_TYPE, canon.category),
                  (SCOPE_PATTERN, key.bug_pattern)]
        if key.method is not None:
            scopes.append((SCOPE_METHOD, key.file_path, key.method))
        for scope in scopes:
            tally = counts[scope]
            tally[0] += closed
            tally[1] += 1
        patterns_by_category[canon.category].add(key.bug_pattern)
    empty = (0, 0)
    discretization = {
        category: discretized_defect_likelihood({p: counts[(SCOPE_PATTERN, p)] for p in patterns})
        for category, patterns in patterns_by_category.items()
    }

    targets = base.keys_at(base.horizon)
    attrs_at = base.attrs_at[at_idx]
    missing: dict[WarningKey, str] = {}
    for key in targets:
        if key not in attrs_at:
            missing[key] = "static attributes record"
    if missing:
        listing = "; ".join(f"{k}: {why}" for k, why in list(missing.items())[:5])
        raise ExtractionError(
            f"{len(missing)} warning(s) lack data at {base.horizon}: {listing}",
            failures={str(k): why for k, why in missing.items()},
        )
    type_lifetimes = _type_lifetimes(base, universe)
    loc_by_package = _loc_by_package(base, at_time, days=90.0)

    # Per key, its observation at the target with the lowest (line, priority).
    obs_by_key: dict[WarningKey, WarningObservation] = {}
    for obs in base.warnings_at[at_idx]:
        kept = obs_by_key.setdefault(obs.key, obs)
        if (obs.line, obs.priority) < (kept.line, kept.priority):
            obs_by_key[obs.key] = obs

    out: dict[WarningKey, FeatureVector] = {}
    for key in targets:
        obs = obs_by_key[key]
        attrs = attrs_at[key]
        canon = universe[(key, None)]
        flags: set[str] = set()

        file_count = counts.get((SCOPE_FILE, key.file_path), empty)
        if file_count[1] == 0:
            flags.add(FLAG_EMPTY_FILE_POPULATION)
        if key.method is None:
            method_count = file_count
            flags.add(FLAG_METHOD_FILE_FALLBACK)
        else:
            method_count = counts.get((SCOPE_METHOD, key.file_path, key.method), empty)
        if method_count[1] == 0:
            flags.add(FLAG_EMPTY_METHOD_POPULATION)
        type_count = counts.get((SCOPE_WARNING_TYPE, canon.category), empty)
        if type_count[1] == 0:
            flags.add(FLAG_EMPTY_TYPE_POPULATION)
        pattern_count = counts.get((SCOPE_PATTERN, key.bug_pattern), empty)
        if pattern_count[1] == 0:
            flags.add(FLAG_EMPTY_PATTERN_POPULATION)

        n_patterns = len(patterns_by_category.get(canon.category, ()))
        if n_patterns == 0:
            flags.add(FLAG_EMPTY_CATEGORY)
        elif n_patterns == 1:
            flags.add(FLAG_SINGLE_PATTERN_CATEGORY)

        type_lifetime = type_lifetimes.get(canon.category)
        if type_lifetime is None:
            flags.add(FLAG_NO_CLOSED_LIFETIME)

        birth_idx, chain = base.file_chain(key.file_path, at_idx)
        if birth_idx is None:  # no Add: its earliest mention (indexes run in time order)
            birth_idx = min([canon.first_seen_idx, *(idx for idx, _ in chain)])
            flags.add(FLAG_FILE_CREATION_INFERRED)
        birth_time = base.revisions[birth_idx].timestamp

        out[key] = FeatureVector(
            warning_context_in_method=warning_context(*method_count),
            warning_context_in_file=warning_context(*file_count),
            warning_context_for_warning_type=warning_context(*type_count),
            defect_likelihood_for_warning_pattern=defect_likelihood(*pattern_count),
            discretization_of_defect_likelihood=discretization.get(canon.category, 0.0),
            average_lifetime_for_warning_type=0.0 if type_lifetime is None else type_lifetime,
            comment_code_ratio=attrs.comment_code_ratio,
            method_depth=attrs.method_depth,
            file_depth=attrs.file_depth,
            methods_in_file=attrs.methods_in_file,
            classes_in_package=attrs.classes_in_package,
            warning_pattern=obs.key.bug_pattern,
            warning_type=obs.bug_category,
            warning_priority=obs.priority,
            package=obs.key.package,
            file_age_days=(at_time - birth_time) / SECONDS_PER_DAY,
            file_creation_timestamp=float(birth_time),
            developers=len({rec.author for _, rec in chain if rec.author}),
            parameter_signature=attrs.parameter_signature,
            method_visibility=attrs.method_visibility,
            loc_added_in_file_last_25_revisions=_loc_last_n_revisions(chain, n=25),
            loc_added_in_package_past_3_months=loc_by_package.get(key.package, 0),
            warning_lifetime_revisions=len(canon.presence),
            flags=frozenset(flags),
        )
    try:
        for key, vec in out.items():
            for (kind, name), value in zip(_NUMERIC_KINDS, _numeric_values(vec)):
                kind(value, name)
    except ValueError as exc:
        raise ExtractionError(f"{key}: {exc}", failures={str(key): str(exc)}) from None
    return out


# The feature-matrix reader's (kind, field) per numeric feature; a getter of their values.
_NUMERIC_KINDS = tuple((kind, name) for name, _, _, kind in FEATURE_COLUMNS
                       if name in NUMERIC_FIELDS)
_numeric_values = attrgetter(*(name for _, name in _NUMERIC_KINDS))


def _loc_last_n_revisions(chain, n: int) -> int:
    per_rev: dict[int, int] = defaultdict(int)
    for idx, rec in chain:
        per_rev[idx] += rec.lines_added
    recent = sorted(per_rev)[-n:]
    return sum(per_rev[idx] for idx in recent)


def _loc_by_package(base: ProjectHistory, at_time: int, days: float) -> dict[str, int]:
    """Package -> lines added to its files in the ``days`` up to ``at_time``."""
    floor = at_time - days * SECONDS_PER_DAY
    by_path: dict[str, int] = defaultdict(int)
    for rev, group in zip(base.revisions, base.changes_at):
        if rev.timestamp > floor:
            for rec in group:
                by_path[rec.file_path] += rec.lines_added
    return {
        package: sum(by_path.get(path, 0) for path in paths)
        for package, paths in base.package_paths.items()
    }


# ---------------------------------------------------------------------------
# Time-travel audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeTravelAudit:
    ok: bool
    checked: int
    mismatched_keys: tuple[WarningKey, ...]


def audit_time_travel(history: ProjectHistory, at_rev: str, mode: LeakMode) -> TimeTravelAudit:
    """Verify leak-free extraction ignores everything after ``at_rev``.

    Recomputes the feature map on the explicitly truncated history and
    compares bit-exactly against what ``extract_golden`` produces on the
    full one. Each side builds its own cut at ``at_rev`` and its universe.
    Leak-free extraction makes no read past the cut, so the audit cannot
    fail unless ``extract_golden`` itself is replaced. Outside the tests,
    only the benchmark's layer passes call it: ``warnlab audit`` checks a
    dataset by rebuilding it from its ledger (``cli.cmd_audit``). A leaky
    ``mode`` raises ``ValidationError``, since the audit hands no reference.
    """
    expected = extract_golden(truncate_history(history, at_rev), at_rev, mode)
    actual = extract_golden(history, at_rev, mode)
    mismatched = sorted(
        set(expected) ^ set(actual)
        | {k for k in expected.keys() & actual.keys() if expected[k] != actual[k]},
        key=WarningKey.sort_key,
    )
    return TimeTravelAudit(ok=not mismatched, checked=len(expected), mismatched_keys=tuple(mismatched))
