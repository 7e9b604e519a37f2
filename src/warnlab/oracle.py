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
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .errors import Count, OrderingError, Rate, ValidationError, field_types, string
from .history import SECONDS_PER_DAY, ProjectHistory, decode_key
from .keys import Label, WarningKey


class Reason(str, enum.Enum):
    CLOSED_FILE_PRESENT = "ClosedFilePresent"
    STILL_OPEN = "StillOpen"
    FILE_DELETED = "FileDeleted"
    FILTER_MATCHED = "FilterMatched"
    MANUAL_OVERRIDE = "ManualOverride"


class LabeledWarning(NamedTuple):
    """One warning's label; the call that made it holds the two revisions."""

    key: WarningKey
    label: Label
    reason: Reason


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

class SweepRow(NamedTuple):
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


class SweepTable(NamedTuple):
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

class _FilterRuleFields(NamedTuple):
    class_matcher: str
    is_prefix: bool
    patterns: frozenset[str]


class FilterRule(_FilterRuleFields):
    """One Match entry: a class matcher plus the suppressed bug patterns."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.patterns:
            raise ValidationError("filter rule needs at least one bug pattern")
        return self


def parse_filter_file(source: str | IO[str]) -> list[FilterRule]:
    """Parse a FindBugsFilter XML document into rules.

    Each Match element holds one Class element (``name`` for an exact match
    or ``name-prefix`` for a prefix match on the qualified name) and one or
    more Bug elements with a ``pattern`` attribute alone. A Match suppresses
    only what all its children match, so a rule that skipped any other child
    (a second Class, a Method, a Bug by ``code``) would suppress more than
    the file says: such a child raises ``ValidationError`` naming it.
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
        cls, patterns = None, set()
        for child in match:
            if child.tag == "Class" and cls is None:
                cls = child
            elif child.tag == "Bug" and child.keys() == ["pattern"] and child.get("pattern"):
                patterns.add(child.get("pattern"))
            else:
                attrs = "".join(f" {name}={value!r}" for name, value in child.items())
                raise ValidationError(f"Match element holds <{child.tag}{attrs}>: a rule "
                                      "reads one Class and Bug elements by pattern only")
        if cls is None:
            raise ValidationError("Match element without a Class element")
        name = cls.get("name")
        prefix = cls.get("name-prefix")
        if (name is None) == (prefix is None):
            raise ValidationError("Class element needs exactly one of name / name-prefix")
        rules.append(FilterRule(class_matcher=name if name is not None else prefix,
                                is_prefix=prefix is not None, patterns=frozenset(patterns)))
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


class FilterConfirmation(NamedTuple):
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
                lw = lw._replace(reason=Reason.FILTER_MATCHED)
        out.append(lw)
    return FilterConfirmation(tuple(out), open_count, matched)


# ---------------------------------------------------------------------------
# Manual annotations
# ---------------------------------------------------------------------------

class AnnotationSet(NamedTuple):
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
            lw = lw._replace(label=manual, reason=Reason.MANUAL_OVERRIDE)
        out.append(lw)
    return out
