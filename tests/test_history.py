from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab.cli import main
from warnlab.errors import IntegrityError, LedgerParseError
from warnlab.history import (
    FileChangeRecord,
    ProjectHistory,
    RevisionMeta,
    WarningKey,
    decode_key,
    emit_ledger,
    ingest_ledger,
    key_json,
    WarningObservation,
    build_universe,
    truncate_history,
)
from warnlab.keys import key_from_row, key_row
from warnlab.synth import SynthConfig, generate

from conftest import DAY, EPOCH, attrs_line, change_line, make_history, rev_line, warn_line
from path_walker import walk_backward, walk_forward, walk_warnings


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
        original = {o.key for o in result.history.observations}
        rebuilt = {o.key for o in ingest_ledger(lines).observations}
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
        )
        assert t == expected
        # Idempotent: the second cut is the first one itself.
        assert truncate_history(t, "r05") == t
        assert truncate_history(t, "r05") is t

    def test_truncate_unknown_revision(self):
        with pytest.raises(IntegrityError):
            truncate_history(self._ten_rev_history(), "zz")


_keys = st.builds(
    WarningKey, st.text(), st.text(), st.text(), st.text(),
    st.one_of(st.none(), st.text(min_size=1)),  # "" is written as None in CSV
)


class TestKeyCodec:
    @given(_keys)
    @settings(max_examples=200, deadline=None)
    def test_round_trips(self, key):
        assert key_from_row(key_row(key)) == key
        assert decode_key(key_json(key), {}) == key

    def test_interned_per_table(self):
        keys = {}
        key = WarningKey("P", "src/a.java", "com.a", "A", None)
        first = decode_key(key_json(key), keys)
        assert decode_key(key_json(key), keys) is first


class TestWarningKey:
    @given(_keys)
    @settings(max_examples=100, deadline=None)
    def test_hash_is_the_hash_of_its_fields(self, key):
        fields = (key.bug_pattern, key.file_path, key.package, key.class_name, key.method)
        assert hash(key) == hash(fields)
        assert hash(key) == hash(fields)  # the second read comes from the cache

    @given(_keys, st.text(max_size=3), st.text(max_size=3), st.integers(1, 3),
           st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_observation_is_its_field_tuple(self, key, rev, category, priority, line):
        fields = (rev, key, category, priority, line)
        obs = WarningObservation(*fields)
        assert obs == fields and hash(obs) == hash(fields)
        later = WarningObservation(rev, key, category, priority, line + 1)
        assert (obs < later) == (fields < tuple(later)) and obs != later

    def test_line_insensitive(self):
        h = make_history([rev_line("r1", 0), warn_line("r1", line=10), warn_line("r1", line=14)])
        keys = {o.key for o in h.observations}
        assert len(keys) == 1

    def test_different_class_different_key(self):
        h = make_history([
            rev_line("r1", 0),
            warn_line("r1", cls="Foo"),
            warn_line("r1", cls="Bar"),
        ])
        assert len({o.key for o in h.observations}) == 2

    def test_key_built_once_and_shared_by_truncated_copies(self):
        h = make_history([rev_line("r1", 0), rev_line("r2", 10), warn_line("r1"), warn_line("r2")])
        obs = next(o for o in h.observations if o.revision == "r1")
        (key,) = truncate_history(h, "r1").present_keys[0]
        assert key is obs.key

    def test_rename_changes_key_but_universe_bridges(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 30, parent="r1"),
            change_line("r1", "src/a/Foo.java", "Add"),
            warn_line("r1", path="src/a/Foo.java"),
            change_line("r2", "src/b/Foo.java", "Rename", old_path="src/a/Foo.java"),
            warn_line("r2", path="src/b/Foo.java"),
        ]
        h = make_history(lines)
        keys = sorted({o.key for o in h.observations})
        assert len(keys) == 2  # keys differ across the rename
        new_key = next(k for k in keys if k.file_path == "src/b/Foo.java")
        universe = build_universe(h, 1)
        assert list(universe) == [(new_key, None)]
        assert universe[(new_key, None)].presence == {0, 1}
        assert universe[(new_key, None)].closed_idx is None


def _assert_identity_matches_walkers(history):
    n = len(history.revisions)
    paths = {rec.file_path for rec in history.changes}
    paths |= {rec.old_path for rec in history.changes if rec.old_path} | {"never/named.java"}
    for path in sorted(paths):
        for start in range(-1, n):
            for end in range(-1, n):
                expected = walk_forward(history, path, start, end)
                assert history.resolve_path(path, start, end) == expected
            if start >= 0:
                birth, records = history.file_chain(path, start)
                assert (birth, sorted(records, key=lambda t: (t[0], repr(t[1])))) == \
                    walk_backward(history, path, start)


_PATHS = ("A.java", "B.java", "C.java")
_CHANGE = st.tuples(st.integers(0, 5), st.sampled_from(_PATHS),
                    st.sampled_from(("Add", "Modify", "Delete", "Rename")),
                    st.sampled_from(_PATHS), st.integers(0, 3), st.sampled_from(("x", "y")))


class TestFileIdentity:
    """resolve_path and file_chain against the per-revision walkers."""

    def _history(self, *changes):
        lines = [rev_line(f"r{i}", day=i) for i in range(6)]
        for rid, path, kind, *old in changes:
            lines.append(change_line(rid, path, kind, lines_added=1,
                                     old_path=old[0] if old else None))
        return make_history(lines)

    def test_rename_chain_back_to_its_first_path(self):
        h = self._history(("r0", "A.java", "Add"), ("r1", "B.java", "Rename", "A.java"),
                          ("r2", "A.java", "Rename", "B.java"), ("r3", "A.java", "Modify"))
        assert h.resolve_path("A.java", 0, 5) == ("A.java", None)
        assert h.resolve_path("A.java", 0, 1) == ("B.java", None)
        assert h.file_chain("A.java", 5)[0] == 0
        _assert_identity_matches_walkers(h)

    def test_delete_then_re_add(self):
        h = self._history(("r0", "A.java", "Add"), ("r2", "A.java", "Delete"),
                          ("r3", "A.java", "Add"), ("r4", "A.java", "Modify"))
        assert h.resolve_path("A.java", 0, 5) == ("A.java", 2)
        assert h.resolve_path("A.java", 3, 5) == ("A.java", None)
        assert h.file_chain("A.java", 4)[0] == 3
        _assert_identity_matches_walkers(h)

    def test_delete_and_rename_at_one_revision(self):
        h = self._history(("r0", "A.java", "Add"), ("r2", "A.java", "Delete"),
                          ("r2", "B.java", "Rename", "A.java"))
        assert h.resolve_path("A.java", 0, 5) == ("A.java", 2)
        _assert_identity_matches_walkers(h)

    def test_old_path_only_on_a_rename(self, tmp_path, capsys):
        """A Delete of X.java naming A.java as its old_path once ended A.java's
        live range: resolve_path("A.java", 0, 2) read ("A.java", 1)."""
        lines = [rev_line(f"r{i}", day=i) for i in range(3)] + [
            change_line("r0", "A.java", "Add"), change_line("r0", "X.java", "Add"),
            change_line("r1", "X.java", "Delete", old_path="A.java")]
        with pytest.raises(LedgerParseError, match="line 6: bad change record: "
                                                   "Delete record must not carry old_path"):
            make_history(lines)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--ledger", str(ledger)]) == 1
        assert capsys.readouterr().err.startswith("error[parse]: line 6: ")
        # A null old_path is an absent one, on any kind.
        lines[-1] = json.dumps({**json.loads(lines[-1]), "old_path": None})
        assert make_history(lines).resolve_path("A.java", 0, 2) == ("A.java", None)
        # A history built in code files a Delete under its own path only.
        changes = frozenset([FileChangeRecord("r0", "A.java", "Add"),
                             FileChangeRecord("r1", "X.java", "Delete", old_path="A.java")])
        h = ProjectHistory(tuple(RevisionMeta(f"r{i}", i) for i in range(3)), frozenset(), changes)
        assert h.resolve_path("A.java", 0, 2) == ("A.java", None)
        assert h.file_chain("A.java", 2) == (0, ((0, FileChangeRecord("r0", "A.java", "Add")),))

    @given(st.lists(_CHANGE, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_drawn_change_streams(self, drawn):
        changes = frozenset(
            FileChangeRecord(f"r{rev}", path, kind, lines, 0, author,
                             old if kind == "Rename" else None)
            for rev, path, kind, old, lines, author in drawn
            if kind != "Rename" or old != path
        )
        revisions = tuple(RevisionMeta(f"r{i}", i) for i in range(6))
        _assert_identity_matches_walkers(ProjectHistory(revisions, frozenset(), changes))


class TestUniverse:
    """The warning lifecycle: ``build_universe`` under the live-range rule."""

    def test_closed_at_first_absent_revision(self, four_rev_history):
        key = four_rev_history.keys_at("r1")[0]
        warning = build_universe(four_rev_history, 3)[(key, None)]
        assert (warning.first_seen_idx, warning.closed_idx) == (0, 3)

    def test_open_warning_never_closes(self):
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(1, 4)]
        lines += [warn_line(f"r{i}") for i in range(1, 4)]
        h = make_history(lines)
        assert build_universe(h, 2)[(h.keys_at("r1")[0], None)].closed_idx is None

    def test_file_delete_ends_the_range_without_closing(self):
        lines = [
            rev_line("r1", 0), rev_line("r2", 10), rev_line("r3", 20), rev_line("r4", 30),
            warn_line("r1"), warn_line("r2"),
            change_line("r3", "src/a/Foo.java", "Delete"),
        ]
        h = make_history(lines)
        ((ident, warning),) = build_universe(h, 3).items()
        assert ident == (h.keys_at("r1")[0], 2)  # ended by the Delete at r3
        assert warning.closed_idx is None

    def test_reappearance_stays_one_warning(self):
        lines = [rev_line(f"r{i}", day=10 * i) for i in range(1, 5)]
        lines += [warn_line("r1"), warn_line("r3"), warn_line("r4")]
        h = make_history(lines)
        ((ident, warning),) = build_universe(h, 3).items()
        assert ident == (h.keys_at("r1")[0], None)
        assert (warning.presence, warning.closed_idx) == ({0, 2, 3}, 1)

    def test_re_added_path_starts_a_new_warning(self, re_added_history):
        key = re_added_history.keys_at("r0")[0]
        universe = build_universe(truncate_history(re_added_history, "r4"), 4)
        assert sorted(universe, key=lambda ident: ident[1] is None) == [(key, 2), (key, None)]
        old, new = universe[(key, 2)], universe[(key, None)]
        assert (old.presence, old.first_seen_idx, old.closed_idx) == ({0, 1}, 0, None)
        assert (new.presence, new.first_seen_idx, new.closed_idx) == ({3, 4}, 3, None)

    def test_presence_depends_only_on_prefix(self, four_rev_history):
        key = four_rev_history.keys_at("r1")[0]
        full = build_universe(four_rev_history, 3)[(key, None)]
        short = build_universe(truncate_history(four_rev_history, "r3"), 2)[(key, None)]
        assert short.presence == {idx for idx in full.presence if idx <= 2}


_OBSERVATION = st.tuples(st.integers(0, 5), st.sampled_from(("A.java", "A.java", "B.java")),
                         st.sampled_from(("P", "Q")), st.sampled_from((None, "m()")))


def _assert_universe_matches_walker(history):
    for cut in range(len(history.revisions)):
        universe = build_universe(truncate_history(history, history.revisions[cut].id), cut)
        assert {ident: (w.presence, w.first_seen_idx, w.closed_idx)
                for ident, w in universe.items()} == walk_warnings(history, cut)
        assert all(w.member_key == ident[0] for ident, w in universe.items())


class TestUniverseAgainstWalker:
    """``build_universe`` at every cut against the per-revision walker."""

    def test_synth(self):
        history = generate(SynthConfig(seed=4, n_files=6, n_revisions=12,
                                       warnings_per_revision=4, file_delete_rate=0.3)).history
        _assert_universe_matches_walker(history)

    @given(st.lists(_CHANGE, max_size=10), st.lists(_OBSERVATION, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_drawn_histories(self, drawn_changes, drawn_observations):
        # Two paths carry most records, so Renames, Deletes and re-adds of
        # one path meet in most draws.
        changes = frozenset(
            FileChangeRecord(f"r{rev}", path, kind, lines, 0, author,
                             old if kind == "Rename" else None)
            for rev, path, kind, old, lines, author in drawn_changes
            if kind != "Rename" or old != path
        )
        observations = frozenset(
            WarningObservation(f"r{rev}", WarningKey(pattern, path, "com.a", "A", method),
                               "CORRECTNESS", 2, 10)
            for rev, path, pattern, method in drawn_observations
        )
        revisions = tuple(RevisionMeta(f"r{i}", i) for i in range(6))
        _assert_universe_matches_walker(ProjectHistory(revisions, observations, changes))


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
        assert key == next(iter(h.observations)).key
