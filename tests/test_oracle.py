from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab.errors import OrderingError, ValidationError
from warnlab.history import truncate_history
from warnlab.oracle import (
    AnnotationSet,
    Label,
    LabeledWarning,
    Reason,
    actionability_of,
    apply_annotations,
    confirm_false_alarms,
    filter_match,
    heuristic_label,
    label_counts,
    parse_filter_file,
    read_annotations,
    sweep_reference,
)
from warnlab.synth import SynthConfig, generate

from agreement import cohen_kappa
from conftest import change_line, make_history, rev_line, warn_line


def _labels_by_key(labels):
    return {lw.key: lw for lw in labels}


class TestHeuristicLabel:
    def test_closed_with_live_file_is_actionable(self, four_rev_history):
        (lw,) = heuristic_label(four_rev_history, "r3", "r4")
        assert lw.label is Label.ACTIONABLE
        assert lw.reason is Reason.CLOSED_FILE_PRESENT

    def test_still_open_is_false_alarm(self, four_rev_history):
        (lw,) = heuristic_label(four_rev_history, "r1", "r3")
        assert lw.label is Label.FALSE_ALARM
        assert lw.reason is Reason.STILL_OPEN

    def test_deleted_file_is_unknown(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 10), rev_line("r3", 20),
            warn_line("r1"),
            change_line("r2", "src/a/Foo.java", "Delete"),
        ]
        h = make_history(lines)
        (lw,) = heuristic_label(h, "r1", "r3")
        assert lw.label is Label.UNKNOWN
        assert lw.reason is Reason.FILE_DELETED

    def test_reference_must_follow_evaluation_revision(self, four_rev_history):
        with pytest.raises(OrderingError):
            heuristic_label(four_rev_history, "r3", "r3")
        with pytest.raises(OrderingError):
            heuristic_label(four_rev_history, "r3", "r2")

    def test_rename_bridged_presence_stays_open(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 10), rev_line("r3", 20),
            warn_line("r1", path="src/a/Foo.java"),
            change_line("r2", "src/b/Foo.java", "Rename", old_path="src/a/Foo.java"),
            warn_line("r2", path="src/b/Foo.java"),
            warn_line("r3", path="src/b/Foo.java"),
        ]
        h = make_history(lines)
        by_key = _labels_by_key(heuristic_label(h, "r1", "r3"))
        old_key = next(k for k in by_key if k.file_path == "src/a/Foo.java")
        assert by_key[old_key].label is Label.FALSE_ALARM

    def test_partition_property_on_synth(self):
        result = generate(SynthConfig(seed=5, n_files=10, n_revisions=20,
                                      warnings_per_revision=6, file_delete_rate=0.3))
        h, a = result.history, result.anchors
        labels = heuristic_label(h, a.test, a.reference)
        assert len(labels) == len(h.keys_at(a.test))
        counts = label_counts(labels)
        assert sum(counts.values()) == len(labels)

    def test_pure_function_of_truncated_history(self):
        result = generate(SynthConfig(seed=9, n_files=10, n_revisions=24,
                                      warnings_per_revision=5))
        h, a = result.history, result.anchors
        ref = h.revisions[-3].id
        full = heuristic_label(h, a.test, ref)
        cut = heuristic_label(truncate_history(h, ref), a.test, ref)
        assert full == cut


class TestSweep:
    def _planted(self):
        # Every closure lands in year 3: absent from the 3y mark onward.
        lines = [
            rev_line("r0", 0), rev_line("r2y", 730), rev_line("r3y", 1095),
            rev_line("r4y", 1460),
        ]
        for i in range(4):
            path = f"src/w{i}.java"
            lines.append(warn_line("r0", path=path, cls=f"W{i}"))
            lines.append(warn_line("r2y", path=path, cls=f"W{i}"))
        return make_history(lines)

    def test_planted_closures_flip_ratio(self):
        h = self._planted()
        table = sweep_reference(h, "r0", [730, 1460])
        by_interval = {row.interval_days: row for row in table.rows}
        assert by_interval[730].ratio == 0.0
        assert by_interval[1460].ratio == 1.0

    def test_deterministic(self):
        h = self._planted()
        t1 = sweep_reference(h, "r0", [730, 1460])
        t2 = sweep_reference(h, "r0", [730, 1460])
        assert t1 == t2

    def test_unreachable_interval_skipped_with_notice(self):
        h = self._planted()
        table = sweep_reference(h, "r0", [10000])
        (row,) = table.rows
        assert row.skipped
        assert "no revision" in row.notice

    def test_identical_warning_set_across_intervals(self):
        h = self._planted()
        table = sweep_reference(h, "r0", [730, 1460])
        keysets = [tuple(lw.key for lw in row.labels) for row in table.rows]
        assert keysets[0] == keysets[1]

    def test_monotone_closure_on_synth(self):
        # Closures never reopen in generated histories, so lengthening the
        # interval can only move labels away from FalseAlarm.
        result = generate(SynthConfig(seed=21, n_files=12, n_revisions=36,
                                      warnings_per_revision=5,
                                      fix_delay_days=(30.0, 900.0),
                                      file_delete_rate=0.2))
        h, a = result.history, result.anchors
        table = sweep_reference(h, a.train, [120, 240, 420])
        previous: dict = {}
        for row in table.rows:
            if row.skipped:
                continue
            current = {lw.key: lw.label for lw in row.labels}
            for key, before in previous.items():
                if before is Label.ACTIONABLE:
                    assert current[key] is not Label.FALSE_ALARM
            previous = current


class TestReferenceSweepReplay:
    """Actionability shifts between 2- and 4-year references, per project."""

    CASES = {
        # project: (n_warnings, closed_by_2y, closed_by_4y, expected % at 2y/4y)
        "ant": (21, 5, 9, 24, 43),
        "derby": (489, 49, 323, 10, 66),
    }

    @staticmethod
    def _project_history(n, closed_2y, closed_4y, delete_one_closed=False):
        lines = [
            rev_line("r0", 0), rev_line("r2y", 730), rev_line("r4y", 1460),
        ]
        for i in range(n):
            path = f"src/w{i}.java"
            lines.append(warn_line("r0", path=path, cls=f"W{i}"))
            if i >= closed_2y:
                lines.append(warn_line("r2y", path=path, cls=f"W{i}"))
            if i >= closed_4y:
                lines.append(warn_line("r4y", path=path, cls=f"W{i}"))
        if delete_one_closed:
            # One warning, closed as of the 2y mark, loses its file later:
            # unknown (and out of the denominator) at the 4y mark.
            lines.append(change_line("r3x", "src/w0.java", "Delete"))
            lines.insert(3, rev_line("r3x", 800))
        return make_history(lines)

    @pytest.mark.parametrize("project", sorted(CASES))
    def test_two_vs_four_year_ratios(self, project):
        n, c2, c4, pct2, pct4 = self.CASES[project]
        h = self._project_history(n, c2, c4)
        table = sweep_reference(h, "r0", [730, 1460])
        by_interval = {row.interval_days: row for row in table.rows}
        assert round(100 * by_interval[730].ratio) == pct2
        assert round(100 * by_interval[1460].ratio) == pct4

    def test_maven_ratio_can_decrease_via_deletion(self):
        # 25 of 149 closed at 2y (17%); one closed warning's file is deleted
        # before the 4y mark, dropping it from numerator and denominator
        # (24/148 = 16%). A longer interval can lower the ratio only through
        # unknowns, never by reopening a closed warning.
        h = self._project_history(149, 25, 25, delete_one_closed=True)
        table = sweep_reference(h, "r0", [730, 1460])
        by_interval = {row.interval_days: row for row in table.rows}
        assert round(100 * by_interval[730].ratio) == 17
        assert round(100 * by_interval[1460].ratio) == 16


FILTER_XML = """
<FindBugsFilter>
  <Match>
    <Class name="BooleanUtils"/>
    <Bug pattern="ES_COMPARING_STRINGS_WITH_EQ"/>
  </Match>
  <Match>
    <Class name-prefix="org.apache.commons."/>
    <Bug pattern="NP_NULL_DEREF"/>
    <Bug pattern="DM_DEFAULT_ENCODING"/>
  </Match>
</FindBugsFilter>
"""


class TestFilterRules:
    def _key(self, pattern="ES_COMPARING_STRINGS_WITH_EQ", package="org.lang",
             cls="BooleanUtils"):
        h = make_history([
            rev_line("r1", 0),
            warn_line("r1", pattern=pattern, package=package, cls=cls),
        ])
        return next(iter(h.observations)).key

    def test_exact_class_and_pattern_match(self):
        rules = parse_filter_file(FILTER_XML)
        assert filter_match(rules, self._key())

    def test_same_class_other_pattern_no_match(self):
        rules = parse_filter_file(FILTER_XML)
        assert not filter_match(rules, self._key(pattern="NP_NULL_DEREF"))

    def test_prefix_matcher_covers_package(self):
        rules = parse_filter_file(FILTER_XML)
        key = self._key(pattern="NP_NULL_DEREF", package="org.apache.commons.lang",
                        cls="StringUtils")
        assert filter_match(rules, key)
        outside = self._key(pattern="NP_NULL_DEREF", package="org.elsewhere",
                            cls="StringUtils")
        assert not filter_match(rules, outside)

    def test_rule_without_patterns_rejected(self):
        bad = "<FindBugsFilter><Match><Class name='X'/></Match></FindBugsFilter>"
        with pytest.raises(ValidationError):
            parse_filter_file(bad)

    def test_confirmation_upgrades_open_warnings(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 10),
            warn_line("r1", pattern="ES_COMPARING_STRINGS_WITH_EQ",
                      package="org.lang", cls="BooleanUtils"),
            warn_line("r2", pattern="ES_COMPARING_STRINGS_WITH_EQ",
                      package="org.lang", cls="BooleanUtils"),
        ]
        h = make_history(lines)
        labels = heuristic_label(h, "r1", "r2")
        confirmation = confirm_false_alarms(labels, parse_filter_file(FILTER_XML))
        (lw,) = confirmation.labels
        assert lw.reason is Reason.FILTER_MATCHED
        assert lw.label is Label.FALSE_ALARM
        assert confirmation.open_count == 1
        assert confirmation.matched_count == 1


def _annotation_sets(table: dict[tuple[Label, Label], int]):
    """Build two AnnotationSets realizing a given joint label table."""
    a_labels = {}
    b_labels = {}
    i = 0
    for (label_a, label_b), count in table.items():
        for _ in range(count):
            key = next(iter(make_history([
                rev_line("r1", 0),
                warn_line("r1", path=f"src/k{i}.java", cls=f"K{i}"),
            ]).observations)).key
            a_labels[key] = label_a
            b_labels[key] = label_b
            i += 1
    return AnnotationSet("a", a_labels), AnnotationSet("b", b_labels)


class TestCohenKappa:
    def test_identical_annotations(self):
        a, b = _annotation_sets({
            (Label.ACTIONABLE, Label.ACTIONABLE): 4,
            (Label.FALSE_ALARM, Label.FALSE_ALARM): 3,
            (Label.UNKNOWN, Label.UNKNOWN): 2,
        })
        assert cohen_kappa(a, b) == 1.0

    def test_constant_disagreement_not_positive(self):
        a, b = _annotation_sets({(Label.ACTIONABLE, Label.FALSE_ALARM): 10})
        assert cohen_kappa(a, b) <= 0.0

    def test_hand_expanded_ninety_percent_agreement(self):
        # 100 items, 90 agreements; marginals 60/40 vs 64/36.
        # p_o = 0.9, p_e = 0.6*0.64 + 0.4*0.36 = 0.528,
        # kappa = (0.9 - 0.528) / 0.472 = 93/118.
        a, b = _annotation_sets({
            (Label.ACTIONABLE, Label.ACTIONABLE): 57,
            (Label.ACTIONABLE, Label.FALSE_ALARM): 3,
            (Label.FALSE_ALARM, Label.ACTIONABLE): 7,
            (Label.FALSE_ALARM, Label.FALSE_ALARM): 33,
        })
        assert cohen_kappa(a, b) == pytest.approx(93 / 118, abs=1e-9)

    def test_symmetry(self):
        rng = random.Random(4)
        for _ in range(25):
            table = {}
            for la in Label:
                for lb in Label:
                    table[(la, lb)] = rng.randint(0, 5)
            if sum(table.values()) < 2:
                continue
            a, b = _annotation_sets(table)
            b_swapped = AnnotationSet("b", {k: v for k, v in b.labels.items()})
            a_swapped = AnnotationSet("a", {k: v for k, v in a.labels.items()})
            assert cohen_kappa(a, b) == pytest.approx(
                cohen_kappa(b_swapped, a_swapped), abs=1e-12
            )

    def test_disjoint_sets_rejected(self):
        a, _ = _annotation_sets({(Label.ACTIONABLE, Label.ACTIONABLE): 3})
        c, _ = _annotation_sets({(Label.FALSE_ALARM, Label.FALSE_ALARM): 3})
        shifted = AnnotationSet("c", {
            k.with_path(k.file_path + ".moved"): v for k, v in c.labels.items()
        })
        with pytest.raises(ValidationError, match="disjoint"):
            cohen_kappa(a, shifted)

    def test_too_few_keys_rejected(self):
        a, b = _annotation_sets({(Label.ACTIONABLE, Label.ACTIONABLE): 1})
        with pytest.raises(ValidationError, match="at least 2"):
            cohen_kappa(a, b)


class TestAnnotationsIO:
    def test_read_and_override(self, four_rev_history):
        labels = heuristic_label(four_rev_history, "r3", "r4")
        key = labels[0].key
        record = {
            "annotator": "rev1",
            "bug_pattern": key.bug_pattern,
            "file_path": key.file_path,
            "entity": {"package": key.package, "class": key.class_name,
                       "method": key.method},
            "label": "FalseAlarm",
        }
        (annotations,) = read_annotations(io.StringIO(json.dumps(record)))
        overridden = apply_annotations(labels, annotations)
        assert overridden[0].label is Label.FALSE_ALARM
        assert overridden[0].reason is Reason.MANUAL_OVERRIDE

    def test_agreeing_annotation_keeps_heuristic_reason(self, four_rev_history):
        labels = heuristic_label(four_rev_history, "r3", "r4")
        annotations = AnnotationSet("rev1", {labels[0].key: Label.ACTIONABLE})
        unchanged = apply_annotations(labels, annotations)
        assert unchanged[0].reason is Reason.CLOSED_FILE_PRESENT


def test_actionability_of_nothing_labeled_is_none(four_rev_history):
    assert actionability_of([]) is None
    (lw,) = heuristic_label(four_rev_history, "r3", "r4")
    assert actionability_of([LabeledWarning(lw.key, Label.UNKNOWN, Reason.FILE_DELETED)]) is None


# The label each reason stands for; a ManualOverride carries its annotator's.
REASON_LABEL = {
    Reason.CLOSED_FILE_PRESENT: Label.ACTIONABLE,
    Reason.STILL_OPEN: Label.FALSE_ALARM,
    Reason.FILE_DELETED: Label.UNKNOWN,
    Reason.FILTER_MATCHED: Label.FALSE_ALARM,
}


@given(seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_label_is_its_reasons_label(seed, data):
    """The three calls that make labels (the heuristic, filter confirmation
    and annotation) pair each label with its reason."""
    result = generate(SynthConfig(seed=seed, n_files=8, n_revisions=16, warnings_per_revision=4,
                                  incidental_close_rate=0.2, file_delete_rate=0.3))
    h, a = result.history, result.anchors
    labels = heuristic_label(h, a.test, a.reference)
    keys = [lw.key for lw in labels]
    patterns = sorted({key.bug_pattern for key in keys})
    chosen = data.draw(st.lists(st.sampled_from(patterns), unique=True), label="filtered")
    rules = parse_filter_file(
        "<FindBugsFilter><Match><Class name-prefix='com.'/>"
        + "".join(f"<Bug pattern='{p}'/>" for p in chosen or ["NONE"])
        + "</Match></FindBugsFilter>")
    filtered = confirm_false_alarms(labels, rules).labels
    notes = AnnotationSet("a", data.draw(st.dictionaries(st.sampled_from(keys),
                                                         st.sampled_from(list(Label))),
                                         label="annotations"))
    annotated = apply_annotations(filtered, notes)
    for made in (labels, filtered, annotated):
        for lw in made:
            want = (notes.labels[lw.key] if lw.reason is Reason.MANUAL_OVERRIDE
                    else REASON_LABEL[lw.reason])
            assert lw.label is want, lw
