from __future__ import annotations

import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab import features
from warnlab.errors import ExtractionError, ValidationError
from warnlab.features import (
    FLAG_EMPTY_FILE_POPULATION,
    FLAG_FILE_CREATION_INFERRED,
    FLAG_METHOD_FILE_FALLBACK,
    FLAG_NO_CLOSED_LIFETIME,
    FLAG_SINGLE_PATTERN_CATEGORY,
    LeakMode,
    audit_time_travel,
    build_universe,
    defect_likelihood,
    discretized_defect_likelihood,
    extract_golden,
    golden_features,
    warning_context,
)
from warnlab.history import ProjectHistory, WarningKey, truncate_history
from warnlab.oracle import Label, heuristic_label
from warnlab.schema import (FEATURE_FIELDS, NUMERIC_FIELDS, MatrixRow, read_feature_matrix,
                            write_feature_matrix)
from warnlab.synth import SynthConfig, generate

from conftest import BENCH_SHAPES, attrs_line, change_line, make_history, rev_line, warn_line
from golden_reference import reference_golden


def _counts(closed_flags) -> tuple[int, int]:
    """(closed, total) of a population given each member's closed flag."""
    return sum(1 for c in closed_flags if c), len(closed_flags)


class TestPopulationFormulas:
    def test_warning_context_examples(self):
        assert warning_context(3, 4) == 0.5
        assert warning_context(7, 7) == 1.0
        assert warning_context(0, 0) == 0.0

    def test_defect_likelihood_examples(self):
        assert defect_likelihood(2, 8) == 0.25
        assert defect_likelihood(0, 5) == 0.0
        assert defect_likelihood(0, 0) == 0.0

    def test_defect_likelihood_brute_force(self):
        rng = random.Random(17)
        for _ in range(300):
            flags = [rng.random() < 0.4 for _ in range(rng.randint(1, 30))]
            closed = 0
            for is_closed in flags:
                if is_closed:
                    closed += 1
            assert defect_likelihood(*_counts(flags)) == closed / len(flags)

    @given(st.lists(st.booleans(), max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_ranges(self, flags):
        counts = _counts(flags)
        assert -1.0 <= warning_context(*counts) <= 1.0
        assert 0.0 <= defect_likelihood(*counts) <= 1.0

    def test_scale_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            flags = [rng.random() < 0.5 for _ in range(rng.randint(1, 20))]
            single = _counts(flags)
            doubled = _counts(flags + flags)
            assert warning_context(*doubled) == warning_context(*single)
            assert defect_likelihood(*doubled) == defect_likelihood(*single)


class TestDiscretization:
    def test_hand_evaluated_two_patterns(self):
        # D(p1)=0.2 over 10, D(p2)=0.6 over 10, pooled D(T)=0.4:
        # ((-0.2)^2 + (0.2)^2) / (2-1) = 0.08
        counts = {"p1": (2, 10), "p2": (6, 10)}
        assert discretized_defect_likelihood(counts) == pytest.approx(0.08, abs=1e-15)

    def test_zero_variance(self):
        assert discretized_defect_likelihood({"p1": (1, 2), "p2": (1, 2), "p3": (2, 4)}) == 0.0

    def test_three_pattern_direct_sum_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            counts = {}
            for name in ("pa", "pb", "pc"):
                counts[name] = _counts([rng.random() < 0.5 for _ in range(rng.randint(1, 12))])
            total = sum(t for _, t in counts.values())
            closed = sum(c for c, _ in counts.values())
            pooled = closed / total
            expected = 0.0
            for name in sorted(counts):
                c, t = counts[name]
                expected += (c / t - pooled) ** 2
            expected /= len(counts) - 1
            assert discretized_defect_likelihood(counts) == expected

    def test_single_pattern_yields_zero(self):
        assert discretized_defect_likelihood({"p": (1, 2)}) == 0.0
        assert discretized_defect_likelihood({}) == 0.0
        assert 0.0 <= discretized_defect_likelihood({"p": (1, 1), "q": (0, 1)})


class TestLifetimeStats:
    """Own lifetime and the category's mean closed lifetime, as extracted."""

    def _history(self):
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(4)]  # days 0,10,20,30
        # Target warning: open the whole time.
        for i in range(4):
            lines.append(warn_line(f"r{i}", path="src/t.java", cls="T", pattern="PT",
                                   category="CAT"))
        lines.append(attrs_line("r3", path="src/t.java", cls="T", pattern="PT"))
        # Two same-category closures: 10-day and 20-day lifetimes.
        lines.append(warn_line("r0", path="src/a.java", cls="A", pattern="PA",
                               category="CAT"))
        lines += [warn_line(rid, path="src/b.java", cls="B", pattern="PB",
                            category="CAT") for rid in ("r0", "r1")]
        return make_history(lines)

    def test_first_seen_at_eval_revision(self):
        h = make_history([
            rev_line("r0", 0), rev_line("r1", 10), warn_line("r1"), attrs_line("r1"),
        ])
        (vec,) = extract_golden(h, "r1", LeakMode.leakfree()).values()
        assert vec.warning_lifetime_revisions == 1

    def test_five_consecutive_revisions(self):
        lines = [rev_line(f"r{i}", day=i) for i in range(5)]
        lines += [warn_line(f"r{i}") for i in range(5)]
        lines.append(attrs_line("r4"))
        h = make_history(lines)
        (vec,) = extract_golden(h, "r4", LeakMode.leakfree()).values()
        assert vec.warning_lifetime_revisions == 5

    def test_planted_average_lifetime(self):
        h = self._history()
        (vec,) = extract_golden(h, "r3", LeakMode.leakfree()).values()
        assert vec.warning_lifetime_revisions == 4
        assert vec.average_lifetime_for_warning_type == pytest.approx(15.0, abs=1e-12)
        assert FLAG_NO_CLOSED_LIFETIME not in vec.flags


def _single_warning_files_history():
    """Four files, one warning each; two close by the reference revision."""
    lines = [rev_line("r0", 0), rev_line("r1", 30), rev_line("r2", 800)]
    for i in range(4):
        path = f"src/w{i}.java"
        common = dict(path=path, cls=f"W{i}", pattern=f"P{i % 2}",
                      category="CAT")
        lines.append(warn_line("r0", **common))
        lines.append(warn_line("r1", **common))
        if i >= 2:  # stays open at the reference
            lines.append(warn_line("r2", **common))
        lines.append(attrs_line("r1", path=path, cls=f"W{i}", pattern=f"P{i % 2}"))
        lines.append(change_line("r0", path, "Add", lines_added=50, author=f"dev{i}"))
    return make_history(lines)


class TestExtractGolden:
    def test_leaky_reconstructs_labels_in_single_warning_files(self):
        h = _single_warning_files_history()
        vectors = extract_golden(h, "r1", LeakMode.leaky(), "r2")
        labels = {lw.key: lw.label for lw in heuristic_label(h, "r1", "r2")}
        for key, vec in vectors.items():
            if labels[key] is Label.ACTIONABLE:
                assert vec.warning_context_in_file == 1.0
            elif labels[key] is Label.FALSE_ALARM:
                assert vec.warning_context_in_file == -1.0

    def test_leaky_full_closure_in_file_gives_context_one(self):
        lines = [rev_line("r0", 0), rev_line("r1", 30), rev_line("r2", 800)]
        for pattern in ("PA", "PB"):
            lines.append(warn_line("r1", pattern=pattern, category="CAT"))
            lines.append(attrs_line("r1", pattern=pattern))
        h = make_history(lines)
        vectors = extract_golden(h, "r1", LeakMode.leaky(), "r2")
        for vec in vectors.values():
            assert vec.warning_context_in_file == 1.0

    def test_leakfree_equals_truncated_extraction(self):
        result = generate(SynthConfig(seed=13, n_files=10, n_revisions=24,
                                      warnings_per_revision=6,
                                      fix_delay_days=(30.0, 400.0)))
        h, a = result.history, result.anchors
        full = extract_golden(h, a.train, LeakMode.leakfree())
        cut = extract_golden(truncate_history(h, a.train), a.train, LeakMode.leakfree())
        assert full == cut

    def test_guard_bypass_detected_by_audit(self, monkeypatch):
        result = generate(SynthConfig(seed=13, n_files=10, n_revisions=24,
                                      warnings_per_revision=6,
                                      fix_delay_days=(30.0, 400.0)))
        h, a = result.history, result.anchors
        clean = audit_time_travel(h, a.train, LeakMode.leakfree())
        assert clean.ok

        def breached(history, at_rev, mode, ref_rev=None):
            # Given a history that runs past ``at_rev``, reads closure flags
            # at its horizon.
            if history.horizon == at_rev:
                return extract_golden(history, at_rev, mode, ref_rev)
            return extract_golden(history, at_rev, LeakMode.leaky(), history.horizon)

        monkeypatch.setattr(features, "extract_golden", breached)
        audit = audit_time_travel(h, a.train, LeakMode.leakfree())
        assert not audit.ok
        assert audit.mismatched_keys

    @pytest.mark.parametrize("mode,ref", [(LeakMode.leakfree(), None), (LeakMode.leaky(), "r3")])
    def test_future_files_stay_out_of_package_loc(self, mode, ref):
        # Bar.java is added at r1 with 700 lines but first warned at r3, so
        # at r2 the package holds only Foo.java and its 100 lines.
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(4)]
        lines += [change_line("r1", "src/a/Foo.java", "Add", lines_added=100),
                  change_line("r1", "src/a/Bar.java", "Add", lines_added=700),
                  warn_line("r1"), warn_line("r2"), attrs_line("r2"),
                  warn_line("r3", path="src/a/Bar.java", cls="Bar")]
        (vec,) = extract_golden(make_history(lines), "r2", mode, ref).values()
        assert vec.loc_added_in_package_past_3_months == 100

    def test_leaky_requires_reference(self):
        h = _single_warning_files_history()
        with pytest.raises(ValidationError):
            extract_golden(h, "r1", LeakMode.leaky())
        with pytest.raises(ValidationError):
            extract_golden(h, "r1", LeakMode.leakfree(), "r2")

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(ValidationError, match="window_days must be finite and positive"):
            LeakMode.leakfree(window)

    def test_missing_attrs_reported_per_warning(self):
        lines = [
            rev_line("r0", 0), rev_line("r1", 30),
            warn_line("r1", cls="NoAttrs"),
        ]
        h = make_history(lines)
        with pytest.raises(ExtractionError, match="NoAttrs"):
            extract_golden(h, "r1", LeakMode.leakfree())

    def test_out_of_window_population_flagged_empty(self):
        lines = [
            rev_line("r0", 0), rev_line("r1", 400),
            warn_line("r0"), warn_line("r1"),
            attrs_line("r1"),
        ]
        h = make_history(lines)
        (vec,) = extract_golden(h, "r1", LeakMode.leakfree(365.0)).values()
        assert vec.warning_context_in_file == 0.0
        assert FLAG_EMPTY_FILE_POPULATION in vec.flags
        # A wider window pulls the warning back into its own population.
        (vec_wide,) = extract_golden(h, "r1", LeakMode.leakfree(1000.0)).values()
        assert FLAG_EMPTY_FILE_POPULATION not in vec_wide.flags
        assert vec_wide.warning_context_in_file == -1.0  # open member only

    def test_first_sighting_exactly_a_window_back_is_in_the_population(self):
        """The window includes its start: a warning first seen exactly
        ``window_days`` before the extraction revision is a member."""
        lines = [rev_line("r0", 0), rev_line("r1", 365), warn_line("r0"), warn_line("r1"),
                 attrs_line("r1")]
        (vec,) = extract_golden(make_history(lines), "r1", LeakMode.leakfree(365.0)).values()
        assert FLAG_EMPTY_FILE_POPULATION not in vec.flags
        assert vec.warning_context_in_file == -1.0  # open member only

    def test_methodless_warning_falls_back_to_file_population(self):
        lines = [
            rev_line("r0", 0), rev_line("r1", 30),
            warn_line("r1", method=None),
            warn_line("r1", pattern="P2", category="CORRECTNESS", method="m()", line=20),
            attrs_line("r1"),
            attrs_line("r1", pattern="P2", method="m()"),
        ]
        h = make_history(lines)
        vectors = extract_golden(h, "r1", LeakMode.leakfree())
        methodless = next(v for v in vectors.values() if v.warning_pattern == "NP_NULL_DEREF")
        assert FLAG_METHOD_FILE_FALLBACK in methodless.flags
        assert methodless.warning_context_in_method == methodless.warning_context_in_file
        withmethod = next(v for v in vectors.values() if v.warning_pattern == "P2")
        assert FLAG_METHOD_FILE_FALLBACK not in withmethod.flags

    def test_no_closures_flagged(self):
        h = _single_warning_files_history()
        vectors = extract_golden(h, "r1", LeakMode.leakfree())
        for vec in vectors.values():
            assert vec.average_lifetime_for_warning_type == 0.0
            assert FLAG_NO_CLOSED_LIFETIME in vec.flags

    def test_re_added_path_is_a_new_warning(self, re_added_history):
        # The warning of the deleted file is a second population member, not
        # closed by the Delete and not part of the new warning's lifetime.
        (vec,) = extract_golden(re_added_history, "r4", LeakMode.leakfree()).values()
        assert vec.warning_lifetime_revisions == 2
        assert vec.warning_context_in_file == 0.0
        assert FLAG_NO_CLOSED_LIFETIME in vec.flags

    @pytest.mark.parametrize("ending", [
        change_line("r2", "src/a/Foo.java", "Delete"),
        change_line("r2", "src/a/Bar.java", "Rename", old_path="src/a/Foo.java"),
    ], ids=["delete", "rename-away"])
    def test_file_history_starts_after_a_range_end(self, ending):
        """Foo.java, added at r0 with 40 lines, ends at r2 and is warned
        again at r3 with no Add: a new file whose creation is inferred. Its
        history once crossed r2 and read the ended file's 120 days, author
        and 40 lines."""
        lines = [rev_line(f"r{i}", day=30 * i) for i in range(5)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=40), ending]
        for rid in ("r0", "r1", "r3", "r4"):
            lines += [warn_line(rid), attrs_line(rid)]
        h = make_history(lines)
        ((key, vec),) = extract_golden(h, "r4", LeakMode.leakfree()).items()
        assert build_universe(truncate_history(h, "r4"), 4)[(key, None)].first_seen_idx == 3
        assert (vec.file_age_days, vec.developers, vec.loc_added_in_file_last_25_revisions,
                vec.file_creation_timestamp) == (30.0, 0, 0, float(h.revisions[3].timestamp))
        assert FLAG_FILE_CREATION_INFERRED in vec.flags

    def test_output_sorted_by_key(self):
        result = generate(SynthConfig(seed=2, n_files=6, n_revisions=16,
                                      warnings_per_revision=5))
        vectors = extract_golden(result.history, result.anchors.train, LeakMode.leakfree())
        keys = list(vectors)
        assert keys == sorted(keys, key=WarningKey.sort_key)

    def test_ranges_on_synth(self):
        result = generate(SynthConfig(seed=4, n_files=8, n_revisions=20,
                                      warnings_per_revision=6,
                                      fix_delay_days=(20.0, 300.0)))
        h, a = result.history, result.anchors
        for vec in extract_golden(h, a.test, LeakMode.leaky(), a.reference).values():
            assert -1.0 <= vec.warning_context_in_method <= 1.0
            assert -1.0 <= vec.warning_context_in_file <= 1.0
            assert -1.0 <= vec.warning_context_for_warning_type <= 1.0
            assert 0.0 <= vec.defect_likelihood_for_warning_pattern <= 1.0
            assert vec.discretization_of_defect_likelihood >= 0.0
            assert vec.file_age_days >= 0.0
            assert vec.warning_lifetime_revisions >= 1
            assert vec.developers >= 0
            assert vec.loc_added_in_file_last_25_revisions >= 0


@pytest.mark.parametrize("mode", [LeakMode.leakfree(), LeakMode.leaky()],
                         ids=["leakfree", "leaky"])
@pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
@given(seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=6, deadline=None)
def test_cut_level_extraction_reads_only_its_prefix(shape, mode, seed, data):
    """``golden_features`` on a prefix built from the four tuple slices, which
    shares no cache with the full history, gives ``extract_golden``'s vectors
    on the full history bit for bit; leaky mode hands it the full history's
    labels, its one read past the cut."""
    n_files, n_revisions, per_revision = BENCH_SHAPES[shape]
    h = generate(SynthConfig(
        seed=seed, n_files=n_files, n_revisions=n_revisions,
        warnings_per_revision=per_revision, incidental_close_rate=0.2,
        file_delete_rate=0.1)).history
    end = data.draw(st.integers(1, len(h.revisions) - 1), label="cut")
    at_rev = h.revisions[end - 1].id
    prefix = ProjectHistory(h.revisions[:end], h.warnings_at[:end], h.changes_at[:end],
                            h.attrs_at[:end])
    ref_rev, labels = None, None
    if mode.is_leaky:
        ref_rev = h.revisions[data.draw(st.integers(end, len(h.revisions) - 1), label="ref")].id
        labels = {lw.key: lw.label for lw in heuristic_label(h, at_rev, ref_rev)}
    def bits(vectors):  # numeric fields by repr, which tells -0.0 from 0.0
        return [(key, [repr(getattr(vec, name)) for name in NUMERIC_FIELDS])
                for key, vec in vectors.items()]

    got = golden_features(prefix, mode, labels)
    want = extract_golden(h, at_rev, mode, ref_rev)
    assert got == want and bits(got) == bits(want)


def test_cut_level_extraction_takes_labels_in_leaky_mode_only():
    h = _single_warning_files_history()
    labels = {lw.key: lw.label for lw in heuristic_label(h, "r1", "r2")}
    cut = truncate_history(h, "r1")
    with pytest.raises(ValidationError):
        golden_features(cut, LeakMode.leaky())
    with pytest.raises(ValidationError):
        golden_features(cut, LeakMode.leakfree(), labels)
    assert golden_features(cut, LeakMode.leaky(), labels) == extract_golden(
        h, "r1", LeakMode.leaky(), "r2")


class TestHistoryDerivedFeatures:
    def _churn_history(self):
        lines = [rev_line(f"r{i}", day=30 * i) for i in range(6)]  # days 0..150
        lines.append(change_line("r0", "src/a/Foo.java", "Add", lines_added=100, author="ann"))
        lines.append(change_line("r2", "src/a/Foo.java", "Modify", lines_added=40, author="bob"))
        lines.append(change_line("r4", "src/a/Foo.java", "Modify", lines_added=7, author="ann"))
        for i in range(6):
            lines.append(warn_line(f"r{i}"))
        lines.append(attrs_line("r5"))
        return make_history(lines)

    def test_file_age_and_creation(self):
        h = self._churn_history()
        (vec,) = extract_golden(h, "r5", LeakMode.leakfree(1e4)).values()
        assert vec.file_age_days == pytest.approx(150.0)
        assert vec.developers == 2

    def test_package_churn_window(self):
        h = self._churn_history()
        (vec,) = extract_golden(h, "r5", LeakMode.leakfree(1e4)).values()
        # Only the r4 modify (day 120) falls within 90 days of day 150.
        assert vec.loc_added_in_package_past_3_months == 7
        assert vec.loc_added_in_file_last_25_revisions == 147

    def test_rename_keeps_file_history(self):
        lines = [rev_line(f"r{i}", day=30 * i) for i in range(4)]
        lines.append(change_line("r0", "src/a/Old.java", "Add", lines_added=80, author="ann"))
        lines.append(warn_line("r0", path="src/a/Old.java"))
        lines.append(warn_line("r1", path="src/a/Old.java"))
        lines.append(change_line("r2", "src/a/New.java", "Rename",
                                 old_path="src/a/Old.java", author="bob"))
        lines.append(warn_line("r2", path="src/a/New.java"))
        lines.append(warn_line("r3", path="src/a/New.java"))
        lines.append(attrs_line("r3", path="src/a/New.java"))
        h = make_history(lines)
        (vec,) = extract_golden(h, "r3", LeakMode.leakfree(1e4)).values()
        assert vec.file_age_days == pytest.approx(90.0)  # back through the rename
        assert vec.developers == 2
        assert vec.warning_lifetime_revisions == 4  # bridged presence


def _mixed_ledger_history():
    """Rename, method-less target, single-pattern and closure-free categories."""
    lines = [rev_line(f"r{i}", day=30 * i) for i in range(6)]  # days 0..150
    lines += [
        change_line("r0", "src/a/Old.java", "Add", lines_added=120, author="ann"),
        change_line("r0", "src/a/Foo.java", "Add", lines_added=50, author="bob"),
        change_line("r0", "src/b/Bar.java", "Add", lines_added=70, author="cat"),
        change_line("r2", "src/a/New.java", "Rename", lines_added=5, author="bob",
                    old_path="src/a/Old.java"),
        change_line("r3", "src/a/Foo.java", "Modify", lines_added=11, author="ann"),
        change_line("r3", "src/b/Bar.java", "Modify", lines_added=13, author="bob"),
        change_line("r5", "src/a/Foo.java", "Modify", lines_added=17, author="cat"),
    ]
    spans = [  # (path by revision, pattern, category, package, class, method, revisions)
        ("src/a/Old.java", "NP_A", "CORRECTNESS", "com.a", "Old", "m()", range(0, 2)),
        ("src/a/New.java", "NP_A", "CORRECTNESS", "com.a", "Old", "m()", range(2, 5)),
        ("src/a/Foo.java", "NP_B", "CORRECTNESS", "com.a", "Foo", None, range(1, 5)),
        ("src/a/Foo.java", "NP_A", "CORRECTNESS", "com.a", "Foo", "x()", range(0, 3)),
        ("src/b/Bar.java", "NP_B", "CORRECTNESS", "com.b", "Bar", "y()", range(1, 2)),
        ("src/b/Bar.java", "SE_ONLY", "STYLE", "com.b", "Bar", "z()", range(0, 5)),
        ("src/a/Foo.java", "SE_ONLY", "STYLE", "com.a", "Foo", "x()", range(3, 6)),
        ("src/b/Bar.java", "DM_SLOW", "PERF", "com.b", "Bar", "w()", range(2, 6)),
        ("src/a/New.java", "DM_BOX", "PERF", "com.a", "Old", "n()", range(3, 5)),
    ]
    for path, pattern, category, package, cls, method, revs in spans:
        for i in revs:
            common = dict(path=path, pattern=pattern, package=package, cls=cls, method=method)
            lines.append(warn_line(f"r{i}", category=category, **common))
            if i == 4:
                lines.append(attrs_line("r4", **common))
    return make_history(lines)


class TestDifferentialAgainstReference:
    """Shared per-revision counts agree bit for bit with per-target rebuilding."""

    def _assert_matches_reference(self, h, at_rev, ref_rev):
        modes = [(LeakMode.leaky(), ref_rev), (LeakMode.leakfree(), None),
                 (LeakMode.leakfree(45.0), None)]
        for mode, ref in modes:
            vectors = extract_golden(h, at_rev, mode, ref)
            assert vectors
            assert reference_golden(h, at_rev, mode, ref, vectors) == vectors

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_synth(self, seed):
        result = generate(SynthConfig(seed=seed, n_files=10, n_revisions=24,
                                      warnings_per_revision=6, incidental_close_rate=0.2,
                                      file_delete_rate=0.1, fix_delay_days=(30.0, 400.0)))
        h, a = result.history, result.anchors
        for at_rev in (a.train, a.test):
            self._assert_matches_reference(h, at_rev, a.reference)

    def test_hand_built_ledger(self):
        h = _mixed_ledger_history()
        self._assert_matches_reference(h, "r4", "r5")
        vectors = extract_golden(h, "r4", LeakMode.leakfree())
        flags = set().union(*(vec.flags for vec in vectors.values()))
        assert {FLAG_METHOD_FILE_FALLBACK, FLAG_SINGLE_PATTERN_CATEGORY,
                FLAG_NO_CLOSED_LIFETIME} <= flags
        renamed = next(k for k in vectors if k.file_path == "src/a/New.java" and k.method == "m()")
        assert vectors[renamed].warning_lifetime_revisions == 5  # bridged across the rename


class TestMatrixRoundTrip:
    def test_csv_round_trip(self):
        result = generate(SynthConfig(seed=6, n_files=6, n_revisions=16,
                                      warnings_per_revision=4))
        h, a = result.history, result.anchors
        vectors = extract_golden(h, a.train, LeakMode.leakfree())
        rows = [
            MatrixRow(key=key, origin_rev=a.train, label="Actionable",
                      mode="leakfree", vector=vec)
            for key, vec in vectors.items()
        ]
        buffer = io.StringIO()
        write_feature_matrix(buffer, rows)
        buffer.seek(0)
        assert read_feature_matrix(buffer) == rows

    @pytest.mark.parametrize("column,value,message", [
        ("file age", "nan", "'file age' is 'nan'"),
        ("file creation", "-inf", "'file creation' is '-inf'"),
        ("file age", "abc", "could not convert string to float: 'abc'"),
        ("developers", "2.5", "invalid literal for int() with base 10: '2.5'"),
        ("developers", "9" * 400, f"'developers' is '{'9' * 400}'"),  # no float value
        ("warning priority", "", "invalid literal for int() with base 10: ''"),
        ("flags", None, "31 field(s), expected 32"),  # None: drop the cell
        (None, "extra", "33 field(s), expected 32"),  # column None: append a cell
    ])
    def test_corrupt_cell_names_its_line(self, column, value, message):
        result = generate(SynthConfig(seed=6, n_files=6, n_revisions=16,
                                      warnings_per_revision=4))
        vectors = extract_golden(result.history, result.anchors.train, LeakMode.leakfree())
        buffer = io.StringIO()
        write_feature_matrix(buffer, [
            MatrixRow(key=key, origin_rev="r1", label="", mode="leakfree", vector=vec)
            for key, vec in vectors.items()
        ])
        records = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert len(records) > 3
        target = records[2]  # the second data row, on line 3
        if column is None:
            target.append(value)
        elif value is None:
            del target[records[0].index(column)]
        else:
            target[records[0].index(column)] = value
        corrupt = io.StringIO()
        csv.writer(corrupt, lineterminator="\n").writerows(records)
        corrupt.seek(0)
        with pytest.raises(ValidationError) as info:
            read_feature_matrix(corrupt)
        assert str(info.value) == f"feature matrix line 3: {message}"


class TestFeatureKinds:
    """Extraction checks each numeric feature by the field kind through which
    the feature-matrix reader reads it (``schema.FEATURE_COLUMNS``)."""

    def test_loc_sum_past_64_bits_is_extraction_error(self):
        """An Add and a Modify of 2**63 - 1 lines each once gave a vector
        whose feature matrix its own reader refused."""
        lines = [rev_line(f"r{i}", day=30 * i) for i in range(3)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=2 ** 63 - 1),
                  change_line("r1", "src/a/Foo.java", "Modify", lines_added=2 ** 63 - 1)]
        lines += [line for rid in ("r0", "r1", "r2") for line in (warn_line(rid), attrs_line(rid))]
        h = make_history(lines)
        (vec,) = extract_golden(h, "r0", LeakMode.leakfree()).values()
        assert vec.loc_added_in_file_last_25_revisions == 2 ** 63 - 1
        (key,) = h.keys_at("r1")
        message = f"{key}: loc_added_in_file_last_25_revisions must be a signed 64-bit integer"
        for mode, ref in ((LeakMode.leakfree(), None), (LeakMode.leaky(), "r2")):
            with pytest.raises(ExtractionError) as info:
                extract_golden(h, "r1", mode, ref)
            assert str(info.value) == message
            assert info.value.failures == {str(key): message.split(": ", 1)[1]}

    def test_audit_refuses_leaky_mode(self):
        with pytest.raises(ValidationError):
            audit_time_travel(_single_warning_files_history(), "r1", LeakMode.leaky())


# Integers drawn as often from the ends of their range as from all of it.
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from([-2 ** 63, 0, 2 ** 63 - 1])
_COUNT = st.integers(0, 2 ** 63 - 1) | st.sampled_from([0, 1, 2 ** 62, 2 ** 63 - 1])


@st.composite
def _extreme_ledger(draw):
    """Revisions at any int64 timestamps, and two files of one package whose
    changes, warning lines and static attributes take extreme counts."""
    n = draw(st.integers(2, 4))
    stamps = sorted(draw(st.lists(_INT64, min_size=n, max_size=n)))
    lines = [json.dumps({"kind": "revision", "id": f"r{i}", "timestamp": stamp})
             for i, stamp in enumerate(stamps)]
    for path, cls in (("src/a/Foo.java", "Foo"), ("src/a/Bar.java", "Bar")):
        for i in range(n):
            if draw(st.booleans()):
                lines.append(change_line(f"r{i}", path, "Modify" if i else "Add",
                                         lines_added=draw(_COUNT), author=f"dev{i}"))
            common = dict(path=path, cls=cls, pattern=draw(st.sampled_from(["PA", "PB"])))
            lines.append(warn_line(f"r{i}", priority=draw(st.integers(1, 3)),
                                   line=draw(st.integers(1, 2 ** 63 - 1)), **common))
            lines.append(attrs_line(
                f"r{i}", comment_code_ratio=draw(st.floats(0, 1e308)),
                method_depth=draw(_COUNT), file_depth=draw(_COUNT),
                methods_in_file=draw(_COUNT), classes_in_package=draw(_COUNT), **common))
    return lines, n


@given(ledger=_extreme_ledger(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_extracted_vectors_round_trip_or_raise(ledger, data):
    """``golden_features`` either raises ``ExtractionError`` for a LOC sum
    past 64 bits, or its vectors survive the feature matrix unchanged by
    ``repr``."""
    lines, n = ledger
    h = make_history(lines)
    at = data.draw(st.integers(0, n - 2), label="at")
    mode = data.draw(st.sampled_from([LeakMode.leakfree(), LeakMode.leaky()]), label="mode")
    ref = f"r{n - 1}" if mode.is_leaky else None
    try:
        vectors = extract_golden(h, f"r{at}", mode, ref)
    except ExtractionError as exc:
        assert "loc_added_in_" in str(exc)
        return
    rows = [MatrixRow(key=key, origin_rev=f"r{at}", label="", mode=mode.mode, vector=vec)
            for key, vec in vectors.items()]
    buffer = io.StringIO()
    write_feature_matrix(buffer, rows)
    buffer.seek(0)
    back = read_feature_matrix(buffer)

    def bits(matrix):
        return [[repr(getattr(row.vector, name)) for name in FEATURE_FIELDS] for row in matrix]

    assert back == rows and bits(back) == bits(rows)
