"""Ground-truth labeling for warnings.

The closed-warning heuristic compares each warning observed at an
evaluation revision against a later reference revision: a warning that
vanished while its file is still alive is labeled Actionable, a warning
still reported is a FalseAlarm, and a warning whose file was deleted is
Unknown and excluded from datasets. The module also ingests developer
filter files (confirmed false alarms) and manual annotation sets.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Sequence

from .errors import Count, OrderingError, Rate, ValidationError, field_types, string
from .history import SECONDS_PER_DAY, ProjectHistory, decode_key
from .keys import Label, WarningKey


class Reason(str, enum.Enum):
    CLOSED_FILE_PRESENT = "ClosedFilePresent"
    STILL_OPEN = "StillOpen"
    FILE_DELETED = "FileDeleted"
    FILTER_MATCHED = "FilterMatched"
    MANUAL_OVERRIDE = "ManualOverride"


_REASON_LABEL = {
    Reason.CLOSED_FILE_PRESENT: Label.ACTIONABLE,
    Reason.STILL_OPEN: Label.FALSE_ALARM,
    Reason.FILE_DELETED: Label.UNKNOWN,
    Reason.FILTER_MATCHED: Label.FALSE_ALARM,
}


@dataclass(frozen=True)
class LabeledWarning:
    """One warning's label; the call that made it holds the two revisions."""

    key: WarningKey
    label: Label
    reason: Reason

    def __post_init__(self):
        expected = _REASON_LABEL.get(self.reason)
        if expected is not None and self.label is not expected:
            raise ValidationError(
                f"label {self.label.value} inconsistent with reason {self.reason.value}"
            )


def heuristic_label(
    history: ProjectHistory, at_rev: str, ref_rev: str
) -> list[LabeledWarning]:
    """Label every warning observed at ``at_rev`` against ``ref_rev``.

    Every read is bounded by the reference revision's index, so no record
    after ``ref_rev`` can influence the outcome. Each distinct warning key
    at ``at_rev`` receives exactly one label.
    """
    at_idx = history.rev_index(at_rev)
    ref_idx = history.rev_index(ref_rev)
    if ref_idx <= at_idx:
        raise OrderingError(
            f"reference revision {ref_rev!r} must come strictly after {at_rev!r}"
        )
    ref_keys = {o.key for o in history.warnings_at[ref_idx]}
    out: list[LabeledWarning] = []
    for key in history.keys_at(at_rev):
        path, deleted_idx = history.resolve_path(key.file_path, at_idx, ref_idx)
        if deleted_idx is not None:
            label, reason = Label.UNKNOWN, Reason.FILE_DELETED
        elif key.with_path(path) in ref_keys:
            label, reason = Label.FALSE_ALARM, Reason.STILL_OPEN
        else:
            label, reason = Label.ACTIONABLE, Reason.CLOSED_FILE_PRESENT
        out.append(LabeledWarning(key, label, reason))
    return out


def label_counts(labels: Iterable[LabeledWarning]) -> dict[str, int]:
    counts = {lab.value: 0 for lab in Label}
    for lw in labels:
        counts[lw.label.value] += 1
    return counts


def actionability_of(labels: Iterable[LabeledWarning]) -> float | None:
    """Actionable share with Unknowns excluded; None when nothing is labeled."""
    counts = label_counts(labels)
    denom = counts[Label.ACTIONABLE.value] + counts[Label.FALSE_ALARM.value]
    if denom == 0:
        return None
    return counts[Label.ACTIONABLE.value] / denom


# ---------------------------------------------------------------------------
# Reference-revision sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    interval_days: float
    reference_revision: str | None
    actionable: Count
    false_alarm: Count
    unknown: Count
    ratio: Rate | None
    labels: tuple[LabeledWarning, ...]
    notice: str | None = None

    @property
    def skipped(self) -> bool:
        return self.reference_revision is None


# The fields of a sweep row that ``sweep.json`` holds, by annotation.
SWEEP_FIELDS = {name: field_type for name, field_type in field_types(SweepRow).items()
                if name != "labels"}


@dataclass(frozen=True)
class SweepTable:
    at_revision: str
    rows: tuple[SweepRow, ...]


def sweep_reference(
    history: ProjectHistory, at_rev: str, intervals_days: Sequence[float]
) -> SweepTable:
    """Run the heuristic once per interval over the identical warning set.

    For each interval the reference revision is the nearest revision at or
    after ``at_rev``'s timestamp plus the interval; intervals with no such
    revision are reported as skipped rows rather than errors.
    """
    at_idx = history.rev_index(at_rev)
    at_time = history.revisions[at_idx].timestamp
    rows: list[SweepRow] = []
    for interval in intervals_days:
        target = at_time + interval * SECONDS_PER_DAY
        ref = _nearest_at_or_after(history, target, min_index=at_idx + 1)
        if ref is None:
            rows.append(
                SweepRow(interval, None, 0, 0, 0, None, (),
                         notice=f"no revision at or after {interval:g} day(s) past {at_rev}")
            )
            continue
        labels = tuple(heuristic_label(history, at_rev, ref))
        counts = label_counts(labels)
        rows.append(
            SweepRow(
                interval_days=interval,
                reference_revision=ref,
                actionable=counts[Label.ACTIONABLE.value],
                false_alarm=counts[Label.FALSE_ALARM.value],
                unknown=counts[Label.UNKNOWN.value],
                ratio=actionability_of(labels),
                labels=labels,
            )
        )
    return SweepTable(at_revision=at_rev, rows=tuple(rows))


def _nearest_at_or_after(history: ProjectHistory, target_time: float, min_index: int) -> str | None:
    for rev in history.revisions[min_index:]:
        if rev.timestamp >= target_time:
            return rev.id
    return None


# ---------------------------------------------------------------------------
# Developer filter files (confirmed false alarms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterRule:
    """One Match entry: a class matcher plus the suppressed bug patterns."""

    class_matcher: str
    is_prefix: bool
    patterns: frozenset[str]

    def __post_init__(self):
        if not self.patterns:
            raise ValidationError("filter rule needs at least one bug pattern")


def parse_filter_file(source: str | IO[str]) -> list[FilterRule]:
    """Parse a FindBugsFilter XML document into rules.

    Each Match element carries one Class element (``name`` for an exact
    match or ``name-prefix`` for a prefix match on the qualified name) and
    one or more Bug elements with ``pattern`` attributes.
    """
    import xml.etree.ElementTree as ET  # only ``label --filter-file`` reads XML

    text = source if isinstance(source, str) else source.read()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValidationError(f"invalid filter file XML: {exc}") from None
    if root.tag != "FindBugsFilter":
        raise ValidationError(f"expected top element FindBugsFilter, got {root.tag!r}")
    rules: list[FilterRule] = []
    for match in root.findall("Match"):
        cls = match.find("Class")
        if cls is None:
            raise ValidationError("Match element without a Class element")
        name = cls.get("name")
        prefix = cls.get("name-prefix")
        if (name is None) == (prefix is None):
            raise ValidationError("Class element needs exactly one of name / name-prefix")
        patterns = frozenset(
            bug.get("pattern") for bug in match.findall("Bug") if bug.get("pattern")
        )
        rules.append(
            FilterRule(
                class_matcher=name if name is not None else prefix,
                is_prefix=prefix is not None,
                patterns=patterns,
            )
        )
    return rules


def _class_matches(rule: FilterRule, package: str, class_name: str) -> bool:
    qualified = f"{package}.{class_name}" if package else class_name
    if rule.is_prefix:
        return qualified.startswith(rule.class_matcher)
    # Exact matchers may be written with or without the package qualifier.
    return rule.class_matcher in (qualified, class_name)


def filter_match(rules: Sequence[FilterRule], key: WarningKey) -> bool:
    """True when some rule suppresses this warning's class and pattern."""
    return any(
        key.bug_pattern in rule.patterns
        and _class_matches(rule, key.package, key.class_name)
        for rule in rules
    )


@dataclass(frozen=True)
class FilterConfirmation:
    labels: tuple[LabeledWarning, ...]
    open_count: int
    matched_count: int

    @property
    def matched_share(self) -> float:
        return self.matched_count / self.open_count if self.open_count else 0.0


def confirm_false_alarms(
    labels: Sequence[LabeledWarning], rules: Sequence[FilterRule]
) -> FilterConfirmation:
    """Upgrade still-open warnings matched by the filter to FilterMatched.

    The label stays FalseAlarm; only the provenance changes, recording that
    the project's developers suppressed the warning deliberately.
    """
    out: list[LabeledWarning] = []
    open_count = matched = 0
    for lw in labels:
        if lw.reason is Reason.STILL_OPEN:
            open_count += 1
            if filter_match(rules, lw.key):
                matched += 1
                lw = replace(lw, reason=Reason.FILTER_MATCHED)
        out.append(lw)
    return FilterConfirmation(tuple(out), open_count, matched)


# ---------------------------------------------------------------------------
# Manual annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnotationSet:
    annotator: str
    labels: Mapping[WarningKey, Label]


def read_annotations(stream: Iterable[str] | IO[str]) -> list[AnnotationSet]:
    """Read line-delimited JSON annotations, grouped per annotator: each line
    is a warning key in the ledger's shape (``history.key_json``, checked as
    the ledger checks it) plus a ``label`` and an ``annotator`` string."""
    per_annotator: dict[str, dict[WarningKey, Label]] = {}
    keys: dict = {}
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            key = decode_key(rec, keys)
            label = Label(rec["label"])
            annotator = string(rec["annotator"], "annotator")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValidationError(f"annotation line {line_no}: {exc}") from None
        per_annotator.setdefault(annotator, {})[key] = label
    return [
        AnnotationSet(annotator, labels)
        for annotator, labels in sorted(per_annotator.items())
    ]


def apply_annotations(
    labels: Sequence[LabeledWarning], annotations: AnnotationSet
) -> list[LabeledWarning]:
    """Manual labels win over heuristic ones, recorded as ManualOverride."""
    out: list[LabeledWarning] = []
    for lw in labels:
        manual = annotations.labels.get(lw.key)
        if manual is not None and manual is not lw.label:
            lw = replace(lw, label=manual, reason=Reason.MANUAL_OVERRIDE)
        out.append(lw)
    return out
