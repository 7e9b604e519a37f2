"""Ledger ingest and emit: strict fields, exact error messages, and agreement
with the straightforward per-record parse and emit in ``ledger_reference``."""

from __future__ import annotations

import functools
import json
import logging
import math
import random
from collections import defaultdict
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import warnlab.history as history_module
from warnlab.cli import main
from warnlab.errors import IntegrityError, LedgerParseError
from warnlab.history import (
    CHANGE_KINDS,
    VISIBILITIES,
    FileChangeRecord,
    ProjectHistory,
    RevisionMeta,
    StaticAttributes,
    WarningKey,
    WarningObservation,
    emit_ledger,
    ingest_ledger,
)
from warnlab.synth import SynthConfig, generate

from conftest import BENCH_SHAPES, attrs_line, change_line, rev_line, warn_line
from history_reference import FlatHistory, grouped
from ledger_reference import reference_emit, reference_ingest


def _edit(record: str, /, **fields) -> str:
    """``record`` with fields replaced; a value of ``...`` deletes the field."""
    rec = json.loads(record)
    for name, value in fields.items():
        if value is ...:
            del rec[name]
        else:
            rec[name] = value
    return json.dumps(rec)


def _hand_ledger() -> list[str]:
    """Renames, a delete and re-add, duplicate and method-less warning lines."""
    foo, foo2, bar = "src/a/Foo.java", "src/a/Foo2.java", "src/b/Bar.java"
    lines = [rev_line("r1", 0)]
    lines += [rev_line(f"r{i}", 30 * i, parent=f"r{i - 1}") for i in range(2, 7)]
    lines += [
        change_line("r1", foo, "Add", lines_added=120),
        change_line("r1", bar, "Add", lines_added=40, author="bob"),
        change_line("r2", foo, "Modify", lines_added=3, lines_deleted=1),
        change_line("r3", foo2, "Rename", old_path=foo),
        change_line("r4", bar, "Delete", lines_deleted=40),
        change_line("r5", bar, "Add", lines_added=10, author="carol"),
        change_line("r6", foo2, "Rename", old_path=foo, author="dave"),
    ]
    for rid in ("r1", "r2"):
        lines.append(warn_line(rid, path=foo))  # method-less entity
        lines.append(warn_line(rid, path=foo, method="run", line=20))
        lines.append(attrs_line(rid, path=foo, comment_code_ratio=0.0))
        lines.append(attrs_line(rid, path=foo, method="run", method_depth=0))
    lines.append(warn_line("r1", path=foo))  # an exact duplicate line
    lines.append(warn_line("r1", path=bar, pattern="EQ_X", category="STYLE",
                           package="com.b", cls="Bar", priority=3))
    lines.append(attrs_line("r1", path=bar, pattern="EQ_X", package="com.b", cls="Bar",
                            comment_code_ratio=-0.0, method_visibility="private"))
    lines += [warn_line(rid, path=foo2, line=12) for rid in ("r3", "r4", "r6")]
    lines.append(warn_line("r5", path=bar, pattern="EQ_X", category="STYLE",
                           package="com.b", cls="Bar", priority=1, line=7))
    lines.append(attrs_line("r3", path=foo2, parameter_signature="(I)V",
                            method_visibility="protected"))
    return lines


def _synth_lines(seed: int) -> list[str]:
    result = generate(SynthConfig(seed=seed, n_files=16, n_revisions=20,
                                  warnings_per_revision=6, incidental_close_rate=0.2,
                                  file_delete_rate=0.1))
    return list(emit_ledger(result.history))


def _assert_same_history(lines) -> None:
    got, want = ingest_ledger(lines), reference_ingest(lines)
    assert got == want
    assert got.attrs_at == want.attrs_at
    assert list(emit_ledger(got)) == list(emit_ledger(want))


class TestStrictFields:
    """Each record below breaks the schema: ingest names its line, and the
    CLI exits 1 with ``error[parse]`` instead of a traceback."""

    @pytest.mark.parametrize("bad", [
        rev_line("r2", 30).replace('"timestamp": 1402592000', '"timestamp": 1e400'),
        _edit(rev_line("r2", 30), timestamp=1_400_000_000.0),
        _edit(rev_line("r2", 30), timestamp="1400000000"),
        _edit(warn_line("r1"), priority=2.9),
        _edit(warn_line("r1"), priority=True),
        _edit(warn_line("r1"), line=3.0),
        _edit(change_line("r1", "src/a/Foo.java", "Modify"), lines_added=True),
        _edit(attrs_line("r1"), comment_code_ratio=math.nan),
        _edit(attrs_line("r1"), comment_code_ratio=math.inf),
        _edit(attrs_line("r1"), comment_code_ratio="0.5"),
        _edit(attrs_line("r1"), method_depth=-3),
        _edit(attrs_line("r1"), file_depth=-3),
        _edit(attrs_line("r1"), methods_in_file=-3),
        _edit(attrs_line("r1"), classes_in_package=-3),
        _edit(attrs_line("r1"), method_depth=1.5),
        _edit(warn_line("r1"), entity={"package": 5, "class": "Foo", "method": None}),
        _edit(rev_line("r2", 30), parent=["r1"]),
        '{"kind": "revision", "id": "r2", "timestamp": ' + "9" * 5000 + "}",
        "[" * 100_000,
    ], ids=[
        "timestamp-1e400", "timestamp-float", "timestamp-string", "priority-2.9",
        "priority-true", "line-float", "lines_added-true", "ratio-nan", "ratio-inf",
        "ratio-string", "method_depth-negative", "file_depth-negative",
        "methods_in_file-negative", "classes_in_package-negative", "method_depth-float",
        "package-number", "parent-array", "integer-past-digit-limit", "deep-nesting",
    ])
    def test_rejected_with_line_number(self, bad, tmp_path, capsys):
        lines = [rev_line("r1", 0), bad]
        with pytest.raises(LedgerParseError) as exc:
            ingest_ledger(lines)
        assert exc.value.line_no == 2
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--ledger", str(ledger)]) == 1
        assert capsys.readouterr().err.startswith("error[parse]: line 2: ")

    def test_integral_json_numbers_stay_accepted(self):
        h = ingest_ledger([rev_line("r1", 0), warn_line("r1", priority=3),
                           _edit(attrs_line("r1"), comment_code_ratio=2, method_depth=0)])
        (attrs,) = h.attrs_at[0].values()
        assert attrs.comment_code_ratio == 2.0 and type(attrs.comment_code_ratio) is float
        assert attrs.method_depth == 0


class TestStructuralChecks:
    def test_revision_that_is_its_own_parent(self):
        with pytest.raises(IntegrityError, match="its own parent"):
            ingest_ledger([rev_line("r1", 0), rev_line("r2", 30, parent="r2")])

    def test_rename_onto_its_own_path(self):
        lines = [rev_line("r1", 0),
                 change_line("r1", "src/a/Foo.java", "Rename", old_path="src/a/Foo.java")]
        with pytest.raises(LedgerParseError, match="line 2: .*old_path equals file_path"):
            ingest_ledger(lines)


class TestMessages:
    """Error messages are part of the CLI's output: they stay word for word."""

    @pytest.mark.parametrize("line,message", [
        ("{broken", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"kind": "revision"} x', "invalid JSON (Extra data)"),
        ("\ufeff" + rev_line("r2", 0), "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        (",", "invalid JSON (Expecting value)"),
        ("[1, 2]", "record must be a JSON object"),
        ('{"kind": "banana"}', "unknown record kind 'banana'"),
        ('{"id": "r1"}', "unknown record kind None"),
        (_edit(warn_line("r1"), priority=...), "bad warning record: \"missing field 'priority'\""),
        (_edit(warn_line("r1"), entity=[1]), "bad warning record: entity must be an object"),
        (_edit(warn_line("r1"), entity={"package": "p"}),
         "bad warning record: \"missing field 'class'\""),
        (_edit(warn_line("r1"), priority=7), "bad warning record: priority must be in 1..3, got 7"),
        (_edit(warn_line("r1"), line=0), "bad warning record: line must be positive, got 0"),
        (_edit(warn_line("r1"), file_path=""), "bad warning record: file_path must be non-empty"),
        (_edit(rev_line("r2", 0), id=...), "bad revision record: \"missing field 'id'\""),
        (change_line("r1", "a", "Copy"), "bad change record: change_kind must be one of "
                                         "('Add', 'Modify', 'Delete', 'Rename'), got 'Copy'"),
        (change_line("r1", "a", "Rename"), "bad change record: Rename record requires old_path"),
        (change_line("r1", "a", "Delete", old_path="b"),
         "bad change record: Delete record must not carry old_path"),
        (change_line("r1", "a", "Modify", lines_added=-1),
         "bad change record: line counts must be non-negative"),
        (_edit(attrs_line("r1"), method_visibility="secret"),
         "bad attrs record: method_visibility must be one of "
         "('public', 'protected', 'package', 'private'), got 'secret'"),
        (_edit(attrs_line("r1"), comment_code_ratio=-0.5),
         "bad attrs record: comment_code_ratio must be >= 0"),
        (_edit(attrs_line("r1"), comment_code_ratio=-math.inf),
         "bad attrs record: comment_code_ratio must be >= 0"),
        (_edit(attrs_line("r1"), parameter_signature=...),
         "bad attrs record: \"missing field 'parameter_signature'\""),
        (_edit(attrs_line("r1"), revision=...), "bad attrs record: \"missing field 'revision'\""),
    ])
    def test_message(self, line, message):
        with pytest.raises(LedgerParseError) as exc:
            ingest_ledger([rev_line("r1", 0), line])
        assert str(exc.value) == f"line 2: {message}"


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_synth_ledgers(self, seed):
        _assert_same_history(_synth_lines(seed))

    def test_hand_ledger(self):
        lines = _hand_ledger()
        _assert_same_history(lines)
        history = ingest_ledger(lines)
        assert len(history.observations) == len([ln for ln in lines if '"warning"' in ln]) - 1
        assert {c.kind for _rev, c in FlatHistory.of(history).changes} == {
            "Add", "Modify", "Rename", "Delete"}
        assert any(o.key.method is None for o in history.observations)

    def test_one_object_per_identity(self):
        """Observations and attrs records of one key share one WarningKey."""
        history = ingest_ledger(_hand_ledger() + _synth_lines(5))
        by_value = defaultdict(set)
        for obs in history.observations:
            by_value[obs.key].add(id(obs.key))
        for (_rev, key), attrs in FlatHistory.of(history).attributes.items():
            by_value[key].add(id(key))
            by_value[attrs].add(id(attrs))
        assert len(by_value) > 10
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_key_order_builds_no_more_records(self):
        """A full decode interns its record by value: the paper-audit seed-1
        ledger with each line's keys reversed takes no memo hit, yet holds as
        many distinct observation and change objects as the emitted ledger
        (once 12,186 observations against 576)."""
        n_files, n_revisions, per_revision = BENCH_SHAPES["paper-audit"]
        lines = list(emit_ledger(generate(SynthConfig(
            seed=1, n_files=n_files, n_revisions=n_revisions, warnings_per_revision=per_revision,
            incidental_close_rate=0.2, file_delete_rate=0.1)).history))
        key_reversed = [json.dumps(dict(reversed(json.loads(line).items()))) for line in lines]

        def objects(history):
            return (len({id(o) for group in history.warnings_at for o in group}),
                    len({id(c) for group in history.changes_at for c in group}))

        emitted = objects(ingest_ledger(lines))
        assert emitted[0] == 576 and objects(ingest_ledger(key_reversed)) == emitted

    def test_zero_and_negative_zero_ratios_stay_apart(self):
        lines = [rev_line("r1", 0), rev_line("r2", 30),
                 attrs_line("r1", comment_code_ratio=0.0),
                 attrs_line("r2", comment_code_ratio=-0.0)]
        _assert_same_history(lines)
        emitted = "\n".join(emit_ledger(ingest_ledger(lines)))
        assert '"comment_code_ratio": -0.0' in emitted
        assert '"comment_code_ratio": 0.0' in emitted


# Replacement values for one field: each JSON type, the edges of each
# constraint, and values that look right but have the wrong type.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-5, max_value=5), st.integers(),
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e308]),
    st.text(max_size=6),
    st.sampled_from(["", "r1", "r2", "r3", "Rename", "Delete", "public", "src/a/Foo.java",
                     "src/a/Foo2.java", "com.a", "Foo", "STYLE"]),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["package", "class", "method"]), _JSON_SCALARS, max_size=3),
)
_DELETE = object()


def _outcome(parse, lines):
    try:
        history = parse(lines)
    except (LedgerParseError, IntegrityError) as exc:
        return type(exc), getattr(exc, "line_no", None)
    return history, tuple(emit_ledger(history))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_corrupt_field_matches_reference(data):
    """A valid ledger with one field of one line replaced or removed (the
    entity's fields included) parses to the reference's history, or fails
    with the reference's error class and line number, and nothing else."""
    lines = _hand_ledger()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    rec = json.loads(lines[index])
    target = rec
    names = sorted(rec)
    if "entity" in rec and data.draw(st.booleans(), label="inside entity"):
        target = rec["entity"]
        names = ["package", "class", "method"]
    name = data.draw(st.sampled_from(names), label="field")
    value = data.draw(st.one_of(st.just(_DELETE), _JSON_VALUES), label="value")
    if value is _DELETE:
        target.pop(name, None)
    else:
        target[name] = value
    lines[index] = json.dumps(rec)

    got = _outcome(ingest_ledger, lines)
    want = _outcome(reference_ingest, lines)
    assert got == want


# ---------------------------------------------------------------------------
# The prefix memo: a line that repeats an earlier record up to its revision
# member shares that record, and must read as a full decode
# ---------------------------------------------------------------------------

# Revision ids that need escapes, leave ASCII, hold a control character or
# quote the revision member itself.
_MEMO_IDS = st.sampled_from(["r1", "r2", "", "é", "\x00", "\x1f", "\u2028", "\U0001f600",
                             "\ud800", '"', "\\", 'x", "revision": "y'])
_MEMO_BODIES = (
    {"kind": "warning", "bug_category": "C", "bug_pattern": "P", "file_path": "A.java",
     "entity": {"class": "A", "method": None, "package": "p"}, "line": 3, "priority": 1},
    {"kind": "warning", "bug_category": "C", "bug_pattern": "P",
     "file_path": 'a", "revision": "b', "line": 3, "priority": 2,
     "entity": {"class": "A", "method": "m\u00e9", "package": "p", "revision": "r1"}},
    {"kind": "change", "author": "x", "change_kind": "Add", "file_path": "A.java",
     "lines_added": 1, "lines_deleted": 0},
    {"kind": "change", "author": "", "change_kind": "Rename", "file_path": "B.java",
     "lines_added": 0, "lines_deleted": 0, "old_path": "A.java"},
    {"kind": "attrs", "bug_pattern": "P", "file_path": "A.java",
     "entity": {"class": "A", "method": None, "package": "p"}, "classes_in_package": 1,
     "comment_code_ratio": 0.5, "file_depth": 1, "method_depth": 0, "methods_in_file": 2,
     "method_visibility": "public", "parameter_signature": "()V"},
    {"kind": "warning", "bug_category": "C", "bug_pattern": "P", "file_path": "A.java",
     "entity": {"class": "A", "method": None, "package": "p"}, "line": 3, "priority": 7},
)


def _escaped(text: str) -> str:
    """``text`` as a JSON string with every UTF-16 code unit a ``\\uXXXX`` escape."""
    units = text.encode("utf-16-be", "surrogatepass")
    return '"' + "".join(f"\\u{units[i]:02x}{units[i + 1]:02x}"
                         for i in range(0, len(units), 2)) + '"'


@st.composite
def _memo_line(draw, body: dict, rev: str, other: str) -> str:
    """One record line: most often the canonical wire form, so its prefix
    repeats, else an escaped, spaced, reordered or broken form."""
    ascii_only = draw(st.booleans())
    rec = {**body, "revision": rev}
    wire = json.dumps(rec, sort_keys=True, ensure_ascii=ascii_only)
    cut = wire.rfind(', "revision": "') + len(', "revision": ')
    variant = draw(st.sampled_from([
        "plain", "plain", "plain", "escaped", "space", "duplicate", "reordered", "trailing",
        "bad-close", "truncated", "bad-string", "member-after"]))
    if variant == "escaped":
        return wire[:cut] + _escaped(rev) + "}"
    if variant == "space":
        return wire[:-1] + draw(st.sampled_from([" }", "\t}", "  }"]))
    if variant == "duplicate":  # a revision key inside the prefix; the last one wins
        return '{"revision": ' + json.dumps(other) + ", " + wire[1:]
    if variant == "reordered":
        names = draw(st.permutations(sorted(rec)))
        return json.dumps({name: rec[name] for name in names}, ensure_ascii=ascii_only)
    if variant == "trailing":
        return wire + draw(st.sampled_from(["}", " x", ",", '"', " {}"]))
    if variant == "bad-close":
        return wire[:-1] + draw(st.sampled_from(["]", ",", "x"]))
    if variant == "truncated":
        return wire[:draw(st.integers(cut, len(wire) - 1))]
    if variant == "bad-string":
        return wire[:cut] + draw(st.sampled_from(['"\\x"', '"\x01"', '"\\u12"', "5", "null",
                                                  '"r1"]', '"r1\\"}'])) + "}"
    if variant == "member-after":  # the last member wins, so it may change the record
        return wire[:-1] + draw(st.sampled_from([', "z": 1}', ', "line": 9}', ', "author": "y"}',
                                                 ', "method_depth": 4}']))
    return wire


@st.composite
def _memo_ledgers(draw) -> list[str]:
    """Revisions, then records drawn from a few bodies at drawn revisions, so
    most record prefixes repeat; some lines are exact repeats of the last."""
    ids = draw(st.lists(_MEMO_IDS, min_size=1, max_size=3, unique=True))
    lines = [json.dumps({"kind": "revision", "id": rid, "timestamp": i},
                        ensure_ascii=draw(st.booleans())) for i, rid in enumerate(ids)]
    if draw(st.booleans()):  # a revision record that ends in a revision member
        lines.append(json.dumps({"id": "extra", "kind": "revision", "timestamp": 9,
                                 "revision": ids[0]}))
    bodies = draw(st.lists(st.sampled_from(_MEMO_BODIES), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 14))):
        if len(lines) > len(ids) and draw(st.integers(0, 4)) == 0:
            lines.append(lines[-1])
            continue
        rev = draw(st.sampled_from(ids) | _MEMO_IDS)
        lines.append(draw(_memo_line(draw(st.sampled_from(bodies)), rev, draw(_MEMO_IDS))))
    return lines


# A good prefix, then the same prefix with data after its revision string.
_PLAIN_THEN_TRAILING = [
    json.dumps({"kind": "revision", "id": "r1", "timestamp": 0}),
    json.dumps({**_MEMO_BODIES[0], "revision": "r1"}, sort_keys=True),
    json.dumps({**_MEMO_BODIES[0], "revision": "r1"}, sort_keys=True) + " x",
]
# A prefix under a known end, then under a member that changes its record.
_FIELD_AFTER = [
    json.dumps({"kind": "revision", "id": "r1", "timestamp": 0}),
    json.dumps({"kind": "revision", "id": "r2", "timestamp": 1}),
    json.dumps({**_MEMO_BODIES[0], "revision": "r2"}, sort_keys=True),
    json.dumps({**_MEMO_BODIES[0], "revision": "r1"}, sort_keys=True)[:-1] + ', "line": 9}',
    json.dumps({**_MEMO_BODIES[0], "revision": "r2"}, sort_keys=True),
]


@given(_memo_ledgers())
@example(_PLAIN_THEN_TRAILING)
@example(_FIELD_AFTER)
@example(_PLAIN_THEN_TRAILING[:2] + [_PLAIN_THEN_TRAILING[1][:-1] + " }"] * 2)
@settings(max_examples=400, deadline=None)
def test_memo_matches_reference(lines):
    """Ledgers full of repeated record prefixes parse to the reference's
    history, or fail with its error class on its line, and ingest logs the
    collapse count of identical warning lines that the reference implies."""
    with patch.object(logging.getLogger("warnlab.history"), "warning") as warning:
        got = _outcome(ingest_ledger, lines)
    want = _outcome(reference_ingest, lines)
    assert got == want
    if isinstance(want[0], ProjectHistory):
        warning_lines = sum(json.loads(ln)["kind"] == "warning" for ln in lines)
        duplicates = warning_lines - len(want[0].observations)
        calls = [c.args for c in warning.call_args_list]
        assert calls == ([("collapsed %d duplicate warning line(s) during ingestion",
                           duplicates)] if duplicates else [])


# ---------------------------------------------------------------------------
# Emission: the template emitter against the json.dumps reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 5, 9])
@pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
def test_emit_matches_reference_on_synth(shape, seed):
    n_files, n_revisions, per_revision = BENCH_SHAPES[shape]
    history = generate(SynthConfig(
        seed=seed, n_files=n_files, n_revisions=n_revisions,
        warnings_per_revision=per_revision, incidental_close_rate=0.2,
        file_delete_rate=0.1)).history
    assert list(emit_ledger(history)) == list(reference_emit(history))


# Strings that stress the escaper: quotes, backslashes, control characters,
# DEL, non-ASCII in and beyond the BMP, a line separator and a lone surrogate.
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ",
                           "\u2028", "\U0001f600", "\ud800", "/", "a"])
_TEXT = st.text(st.one_of(_TRICKY, st.characters()), max_size=4)


@st.composite
def _histories(draw) -> ProjectHistory:
    """A valid history whose every string field draws from one small pool of
    tricky texts, so equal fields (and sort ties) are common. Each warning
    body and attrs payload recurs at a drawn set of revisions, and one key
    carries a 0.0 and a -0.0 ratio at two revisions, payloads that are equal
    but emit differently."""
    pool = draw(st.lists(_TEXT, min_size=2, max_size=4, unique=True))
    text = st.sampled_from(pool)
    nonempty = st.sampled_from([t for t in pool if t] or ["x"])
    ids = draw(st.lists(text, min_size=2, max_size=3, unique=True))
    stamps = sorted(draw(st.lists(st.integers(0, 2**40), min_size=len(ids),
                                  max_size=len(ids))))
    revisions = [
        RevisionMeta(rid, stamp, draw(st.none() | st.sampled_from(ids[:i] or [None])),
                     draw(text))
        for i, (rid, stamp) in enumerate(zip(ids, stamps))
    ]
    rev = st.sampled_from(ids)
    revs = st.lists(rev, min_size=1, unique=True)
    method = st.none() | st.just("") | text
    categories = {}
    observations = []
    for _ in range(draw(st.integers(0, 8))):
        pattern = draw(text)
        key = WarningKey(pattern, draw(nonempty), draw(text), draw(text), draw(method))
        obs = WarningObservation(key, categories.setdefault(pattern, draw(text)),
                                 draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        observations += [(r, obs) for r in draw(revs)]
    changes = []
    for _ in range(draw(st.integers(0, 8))):
        path, kind = draw(text), draw(st.sampled_from(CHANGE_KINDS))
        renamed_from = [t for t in pool if t and t != path] or [path + "~"]
        old_path = draw(st.sampled_from(renamed_from)) if kind == "Rename" else None
        changes.append((draw(rev), FileChangeRecord(path, kind, draw(st.integers(0, 3)),
                                                    draw(st.sampled_from([0, 1, 2**40])),
                                                    draw(text), old_path)))
    ratio = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1]) | st.floats(
        min_value=0, allow_nan=False, allow_infinity=False)
    attributes = {}

    def payload(comment_code_ratio):
        return StaticAttributes(comment_code_ratio,
                                *(draw(st.integers(0, 2**40)) for _ in range(4)),
                                draw(text), draw(st.sampled_from(VISIBILITIES)))

    for _ in range(draw(st.integers(0, 6))):
        key = WarningKey(draw(text), draw(text), draw(text), draw(text), draw(method))
        attrs = payload(draw(ratio))
        attributes.update(((r, key), attrs) for r in draw(revs))
    key = WarningKey(draw(text), draw(text), draw(text), draw(text), draw(method))
    zero = payload(0.0)
    first, second = draw(st.permutations(ids))[:2]
    attributes[(first, key)] = zero
    attributes[(second, key)] = replace(zero, comment_code_ratio=-0.0)
    ordered = tuple(sorted(revisions, key=lambda r: r.order_key))
    return grouped(ordered, observations, changes, attributes)


def _tied_history() -> ProjectHistory:
    """Records that differ only in the last fields of their sort keys."""
    revs = (RevisionMeta("r0", 0),)
    keys = [WarningKey("P", "F.java", "p", "C", method) for method in (None, "")]
    observations = [("r0", WarningObservation(key, "X", priority, 7))
                    for priority in (1, 2, 3) for key in keys]
    changes = [("r0", FileChangeRecord("F.java", "Modify", added, 0, author))
               for added in (1, 2) for author in ("", "a")]
    attrs = StaticAttributes(0.5, 0, 0, 0, 0, "()V", "public")
    attributes = {("r0", key): attrs for key in keys}
    return grouped(revs, observations, changes, attributes)


@given(_histories())
@example(_tied_history())
@settings(max_examples=200, deadline=None)
def test_emit_matches_reference_and_round_trips(history):
    """Byte equality with the json.dumps reference on hand-built histories,
    so emit's memo formats each recurring body and payload right and its
    rank order is the total order; the same bytes whatever order the records
    were collected in; and every emitted ledger ingests back to an equal
    history."""
    lines = list(emit_ledger(history))
    assert lines == list(reference_emit(history))
    # Each group's records handed over in the reverse order (tuples, which
    # keep it) sort to the same lines only if no two records tie on the
    # whole sort key.
    backwards = replace(
        history,
        warnings_at=tuple(tuple(reversed(list(group))) for group in history.warnings_at),
        changes_at=tuple(tuple(reversed(list(group))) for group in history.changes_at),
        attrs_at=tuple(dict(reversed(group.items())) for group in history.attrs_at))
    assert list(emit_ledger(backwards)) == lines
    again = ingest_ledger(lines)
    assert again == history
    assert again.attrs_at == history.attrs_at


# ---------------------------------------------------------------------------
# The line-end table: a line whose prefix is in the memo and whose end (the
# text after its last revision member) is in the table joins its revision's
# group after one partition and two dict probes. Every other line takes the
# full decode, and enters its prefix and end only if the end is one JSON
# string equal to its revision, then ``}`` and whitespace. Emitted ledgers
# rewritten line by line parse as the reference does
# ---------------------------------------------------------------------------

_MEMBER = ', "revision": "'
_LINE_FORMS = ("plain", "pad", "lead", "crlf", "escaped", "blank", "duplicate")
# Revision id prefixes: a rename that keeps the revisions' order, into ids
# that need escapes or hold the revision member's text.
_ID_PREFIXES = ("", 'x, "revision": "', "é", "\\", "r\t")


def _escape_revision(line: str) -> str:
    """An emitted record line with every code unit of its revision id escaped."""
    head, member, end = line.rpartition(_MEMBER)
    if not member:  # a revision record
        return line
    return head + member[:-1] + _escaped(json.loads('"' + end[:-1])) + "}"


def _relabeled(history: ProjectHistory, prefix: str) -> ProjectHistory:
    def rename(rev_id):
        return None if rev_id is None else prefix + rev_id
    return replace(history, revisions=tuple(replace(rev, id=rename(rev.id),
                                                    parent=rename(rev.parent))
                                            for rev in history.revisions))


def _corrupt(line: str, how: str) -> str:
    """One record line broken at its end, its revision or its kind."""
    if how == "bad-close":
        return line[:-1] + "]"
    if how == "trailing":
        return line + " x"
    if how == "truncated":
        return line[:-1]
    if how == "bad-escape":
        return line.rpartition(_MEMBER)[0] + _MEMBER + '\\x"}'
    if how == "unknown-revision":
        return line.rpartition(_MEMBER)[0] + _MEMBER + 'zz"}'
    return line.replace('"kind": "', '"kind": "x', 1)  # an unknown record kind


_CORRUPTIONS = ("bad-close", "trailing", "truncated", "bad-escape", "unknown-revision", "kind")


@st.composite
def _raw_ledgers(draw, lines: list[str]) -> list[str]:
    """Emitted ``lines`` as the lines of a file, each in a drawn form: padded
    before its newline or at its start, ended by CRLF, its revision id
    escaped, after a blank line, or written twice. Optionally each record
    prefix is first seen under an escaped id, the last line has no newline,
    and one record line is corrupted."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    forms = draw(st.lists(st.sampled_from(_LINE_FORMS), min_size=1, unique=True), label="forms")
    escape_first = draw(st.booleans(), label="escape first sightings")
    seen: set[str] = set()
    out = []
    for line in lines:
        head = line.rpartition(_MEMBER)[0]
        if escape_first and head and head not in seen:
            line = _escape_revision(line)
        seen.add(head)
        form = rng.choice(forms)
        if form == "blank":
            out.append(rng.choice(["\n", " \n", "\t\r\n"]))
        raw = {"pad": line + rng.choice([" ", "\t", " \t"]) + "\n",
               "lead": rng.choice([" ", "\t"]) + line + "\n",
               "crlf": line + "\r\n",
               "escaped": _escape_revision(line) + "\n"}.get(form, line + "\n")
        out.append(raw)
        if form == "duplicate" and head:
            out.append(raw)
    if out and not draw(st.booleans(), label="final newline"):
        out[-1] = out[-1].rstrip("\n")
    how = draw(st.none() | st.sampled_from(_CORRUPTIONS), label="corruption")
    records = [i for i, raw in enumerate(out) if _MEMBER in raw]
    if how is not None and records:
        i = rng.choice(records)
        text = out[i].rstrip()
        out[i] = out[i][:len(out[i]) - len(out[i].lstrip())] + _corrupt(
            text.lstrip(), how) + out[i][len(text):]
    return out


@functools.lru_cache(maxsize=None)
def _synth_history(seed: int) -> ProjectHistory:
    return generate(SynthConfig(seed=seed, n_files=8, n_revisions=10, warnings_per_revision=4,
                                incidental_close_rate=0.2, file_delete_rate=0.1)).history


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_line_forms_match_reference_on_synth(data):
    """Synth ledgers under every line form parse to the reference's history,
    or fail with its error class on its line."""
    history = _relabeled(_synth_history(data.draw(st.integers(0, 3), label="synth seed")),
                         data.draw(st.sampled_from(_ID_PREFIXES), label="id prefix"))
    raw = data.draw(_raw_ledgers(list(emit_ledger(history))))
    assert _outcome(ingest_ledger, raw) == _outcome(reference_ingest, raw)


@given(history=_histories(), prefix=st.sampled_from(_ID_PREFIXES), data=st.data())
@settings(max_examples=200, deadline=None)
def test_line_forms_match_reference_on_drawn_histories(history, prefix, data):
    """Ledgers of histories whose strings draw from tricky texts, under
    every line form, parse to the reference's history, or fail with its
    error class on its line."""
    raw = data.draw(_raw_ledgers(list(emit_ledger(_relabeled(history, prefix)))))
    assert _outcome(ingest_ledger, raw) == _outcome(reference_ingest, raw)


@pytest.mark.parametrize("form", ["plain", "pad", "crlf", "escaped"])
def test_a_repeated_line_under_a_known_end_decodes_nothing(form):
    """On an emitted ledger, also with a space before each newline, CRLF ends
    or escaped revision ids, only revision lines and the first sighting of
    each record prefix or line end take a full decode; every other record
    line is served by the memo and the line-end table."""
    n_files, n_revisions, per_revision = BENCH_SHAPES["paper-audit"]
    emitted = emit_ledger(generate(SynthConfig(
        seed=1, n_files=n_files, n_revisions=n_revisions, warnings_per_revision=per_revision,
        incidental_close_rate=0.2, file_delete_rate=0.1)).history)
    lines = [{"plain": line + "\n", "pad": line + " \n", "crlf": line + "\r\n",
              "escaped": _escape_revision(line) + "\n"}[form] for line in emitted]
    parts = [line.rpartition(_MEMBER) for line in lines]
    bound = sum(not member for _, member, _ in parts) + len(
        {head for head, member, _ in parts if member}) + len(
        {end for _, member, end in parts if member})
    with patch("warnlab.history._decode_json", wraps=history_module._decode_json) as decode:
        assert ingest_ledger(lines) == reference_ingest(lines)
    assert decode.call_count <= bound < len(lines) / 8


def test_a_tab_led_line_with_no_revision_member_ingests():
    """A record whose revision comes first holds no ``, "revision": "``, so
    no string scan of its end can tell the line-end table anything: a scan
    from its leading tab, which JSON strings refuse, once had to be caught."""
    record = json.loads(change_line("r1", "src/a/Foo.java", "Add", lines_added=3))
    line = json.dumps({"revision": record.pop("revision"), **record})
    lines = [rev_line("r1", 0) + "\n", "\t" + line + "\n", "\t" + line + "\n"]
    assert ingest_ledger(lines) == reference_ingest(lines)
    assert ingest_ledger(lines).changes_at[0] == {FileChangeRecord("src/a/Foo.java", "Add", 3, 0,
                                                                  "alice")}
