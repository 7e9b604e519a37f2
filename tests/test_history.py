from __future__ import annotations

import json

import pytest

from warnlab.errors import IntegrityError, LedgerParseError, ValidationError
from warnlab.history import (
    ProjectHistory,
    emit_ledger,
    ingest_ledger,
    require_nonempty,
    truncate_history,
    warning_key,
    warning_timeline,
)
from warnlab.synth import SynthConfig, generate

from conftest import DAY, EPOCH, attrs_line, change_line, make_history, rev_line, warn_line


class TestIngest:
    def test_counts_preserved(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 30, parent="r1"), rev_line("r3", 60, parent="r2"),
            warn_line("r1"), warn_line("r2", pattern="EQ_FOO", category="STYLE"),
            change_line("r2", "src/a/Foo.java", "Modify", lines_added=5),
        ]
        h = make_history(lines)
        assert len(h.revisions) == 3
        assert len(h.observations) == 2
        assert len(h.changes) == 1
        assert h.horizon == "r3"

    def test_empty_stream(self):
        h = ingest_ledger([])
        assert h.horizon is None
        assert len(h.revisions) == 0
        with pytest.raises(ValidationError):
            require_nonempty(h)

    def test_unknown_revision_named_in_error(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 30),
            warn_line("r9"),
            change_line("r1", "src/a/Foo.java", "Add"),
        ]
        with pytest.raises(IntegrityError, match="r9"):
            make_history(lines)

    def test_malformed_line_reports_line_number(self):
        lines = [rev_line("r1", 0), "{not json"]
        with pytest.raises(LedgerParseError, match="line 2"):
            make_history(lines)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LedgerParseError, match="unknown record kind"):
            make_history([json.dumps({"kind": "banana"})])

    def test_duplicate_observations_collapse_with_warning(self, caplog):
        lines = [rev_line("r1", 0), warn_line("r1"), warn_line("r1")]
        with caplog.at_level("WARNING"):
            h = make_history(lines)
        assert len(h.observations) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_duplicate_revision_ids_rejected(self):
        with pytest.raises(IntegrityError, match="duplicate revision"):
            make_history([rev_line("r1", 0), rev_line("r1", 30)])

    def test_child_before_parent_rejected(self):
        lines = [rev_line("r1", 30), rev_line("r2", 0, parent="r1")]
        with pytest.raises(IntegrityError, match="predates"):
            make_history(lines)

    def test_unknown_parent_rejected(self):
        with pytest.raises(IntegrityError, match="unknown parent"):
            make_history([rev_line("r2", 30, parent="r0")])

    def test_pattern_category_conflict_rejected(self):
        lines = [
            rev_line("r1", 0),
            warn_line("r1", pattern="P", category="STYLE"),
            warn_line("r1", pattern="P", category="CORRECTNESS", line=20),
        ]
        with pytest.raises(IntegrityError, match="mapped to both"):
            make_history(lines)

    def test_priority_out_of_range_rejected(self):
        bad = json.loads(warn_line("r1"))
        bad["priority"] = 7
        with pytest.raises(LedgerParseError, match="priority"):
            make_history([rev_line("r1", 0), json.dumps(bad)])

    def test_rename_requires_old_path(self):
        with pytest.raises(LedgerParseError, match="old_path"):
            make_history([
                rev_line("r1", 0),
                change_line("r1", "src/a/B.java", "Rename"),
            ])


class TestRoundTrip:
    def test_hand_ledger_round_trip(self, four_rev_history):
        again = ingest_ledger(emit_ledger(four_rev_history))
        assert again == four_rev_history

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_synth_round_trip(self, seed):
        result = generate(SynthConfig(seed=seed, n_files=8, n_revisions=14,
                                      warnings_per_revision=4, file_delete_rate=0.2))
        lines = list(emit_ledger(result.history))
        assert ingest_ledger(lines) == result.history
        # Keys survive re-ingestion untouched.
        original = {warning_key(o) for o in result.history.observations}
        rebuilt = {warning_key(o) for o in ingest_ledger(lines).observations}
        assert original == rebuilt


class TestTruncate:
    def _ten_rev_history(self):
        lines = [rev_line(f"r{i:02d}", day=10 * i) for i in range(1, 11)]
        for i in range(1, 11):
            lines.append(warn_line(f"r{i:02d}", line=i))
            if i % 2 == 0:
                lines.append(change_line(f"r{i:02d}", "src/a/Foo.java", "Modify", lines_added=i))
        return make_history(lines)

    def test_truncate_at_last_revision_is_identity(self):
        h = self._ten_rev_history()
        assert truncate_history(h, "r10") == h

    def test_truncate_at_first_revision(self):
        h = self._ten_rev_history()
        t = truncate_history(h, "r01")
        assert [r.id for r in t.revisions] == ["r01"]
        assert all(o.revision == "r01" for o in t.observations)
        assert t.horizon == "r01"

    def test_truncate_matches_set_filter_oracle(self):
        h = self._ten_rev_history()
        cut_time = EPOCH + 50 * DAY  # r05
        t = truncate_history(h, "r05")
        expected = ProjectHistory(
            revisions=tuple(r for r in h.revisions if r.timestamp <= cut_time),
            observations=frozenset(
                o for o in h.observations
                if h.revisions[h.rev_index(o.revision)].timestamp <= cut_time
            ),
            changes=frozenset(
                c for c in h.changes
                if h.revisions[h.rev_index(c.revision)].timestamp <= cut_time
            ),
            attributes={},
            horizon="r05",
        )
        assert t == expected
        # Idempotent: the second cut is the first one itself.
        assert truncate_history(t, "r05") == t
        assert truncate_history(t, "r05") is t

    def test_truncate_unknown_revision(self):
        with pytest.raises(IntegrityError):
            truncate_history(self._ten_rev_history(), "zz")


class TestWarningKey:
    def test_line_insensitive(self):
        h = make_history([rev_line("r1", 0), warn_line("r1", line=10), warn_line("r1", line=14)])
        keys = {warning_key(o) for o in h.observations}
        assert len(keys) == 1

    def test_different_class_different_key(self):
        h = make_history([
            rev_line("r1", 0),
            warn_line("r1", cls="Foo"),
            warn_line("r1", cls="Bar"),
        ])
        assert len({warning_key(o) for o in h.observations}) == 2

    def test_key_built_once_and_shared_by_truncated_copies(self):
        h = make_history([rev_line("r1", 0), rev_line("r2", 10), warn_line("r1"), warn_line("r2")])
        obs = next(o for o in h.observations if o.revision == "r1")
        assert warning_key(obs) is obs.key
        (key,) = truncate_history(h, "r1").present_keys[0]
        assert key is obs.key

    def test_rename_changes_key_but_timeline_bridges(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 30, parent="r1"),
            change_line("r1", "src/a/Foo.java", "Add"),
            warn_line("r1", path="src/a/Foo.java"),
            change_line("r2", "src/b/Foo.java", "Rename", old_path="src/a/Foo.java"),
            warn_line("r2", path="src/b/Foo.java"),
        ]
        h = make_history(lines)
        keys = sorted({warning_key(o) for o in h.observations})
        assert len(keys) == 2  # keys differ across the rename
        old_key = next(k for k in keys if k.file_path == "src/a/Foo.java")
        tl = warning_timeline(h, old_key)
        assert tl.presence == (("r1", True), ("r2", True))
        assert tl.closed_at is None


class TestTimeline:
    def test_closed_at_first_absent_revision(self, four_rev_history):
        key = four_rev_history.keys_at("r1")[0]
        tl = warning_timeline(four_rev_history, key)
        assert tl.first_seen == "r1"
        assert tl.closed_at == "r4"
        assert tl.file_deleted_at is None

    def test_open_warning_never_closes(self):
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(1, 4)]
        lines += [warn_line(f"r{i}") for i in range(1, 4)]
        h = make_history(lines)
        tl = warning_timeline(h, h.keys_at("r1")[0])
        assert tl.closed_at is None
        assert tl.file_deleted_at is None

    def test_file_delete_blocks_closure(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 10), rev_line("r3", 20), rev_line("r4", 30),
            warn_line("r1"), warn_line("r2"),
            change_line("r3", "src/a/Foo.java", "Delete"),
        ]
        h = make_history(lines)
        tl = warning_timeline(h, h.keys_at("r1")[0])
        assert tl.file_deleted_at == "r3"
        assert tl.closed_at is None

    def test_flicker_counted(self):
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(1, 5)]
        lines += [warn_line("r1"), warn_line("r3"), warn_line("r4")]
        h = make_history(lines)
        tl = warning_timeline(h, h.keys_at("r1")[0])
        assert tl.closed_at == "r2"
        assert tl.reopen_count == 1

    def test_never_observed_key_errors(self, four_rev_history):
        key = four_rev_history.keys_at("r1")[0]
        ghost = key.with_path("src/else/Other.java")
        with pytest.raises(IntegrityError, match="never observed"):
            warning_timeline(four_rev_history, ghost)

    def test_presence_depends_only_on_prefix(self, four_rev_history):
        # Presence rows up to a cut are identical when computed on the
        # truncated history.
        key = four_rev_history.keys_at("r1")[0]
        full = warning_timeline(four_rev_history, key)
        t = truncate_history(four_rev_history, "r3")
        short = warning_timeline(t, key)
        assert full.presence[:3] == short.presence


class TestAttrsParsing:
    def test_attrs_rejects_bad_visibility(self):
        bad = json.loads(attrs_line("r1"))
        bad["method_visibility"] = "global"
        with pytest.raises(LedgerParseError, match="method_visibility"):
            make_history([rev_line("r1", 0), json.dumps(bad)])

    def test_attrs_keyed_by_revision_and_warning(self):
        h = make_history([rev_line("r1", 0), warn_line("r1"), attrs_line("r1")])
        ((rev, key),) = h.attributes.keys()
        assert rev == "r1"
        assert key == warning_key(next(iter(h.observations)))
