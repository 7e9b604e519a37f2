"""Project-history data model and the line-delimited ledger behind it.

A ledger is newline-delimited JSON: one record per line, tagged with a
``kind`` field in {revision, warning, change, attrs}. Every revision listed
in the ledger is treated as an analysis snapshot of the whole project, so a
warning is "present" at a revision exactly when the ledger carries an
observation for it there, and "absent" otherwise. File identity survives
renames: change records of kind Rename connect the old path to the new one,
and :func:`build_universe` bridges warnings across that chain.

The live-range rule: a Delete of a path, or a Rename away from it, ends the
live range of the file at that path (``ProjectHistory.range_ends``). A later
Add of the path, or a later observation at it, starts a new, unrelated file.
The other records at a range end's index (an Add, or a Rename into the path)
belong to that new file. A warning whose range ends at a Delete is not
closed by it, and it never merges with a warning of a later file at the same
path.

A ``ProjectHistory`` holds its records by revision index: next to the
sorted ``revisions`` it keeps, per index, the set of warning observations
(``warnings_at``), the set of change records (``changes_at``) and the attrs
of each key (``attrs_at``). A record says what was seen, never when: it
carries no revision. Ingest builds one record per distinct record prefix,
and synth one observation per planted warning, shared by every group that
holds it. Every derived index reads the groups by their index. A cut
(:func:`truncate_history`) is a prefix of those four tuples, so it shares
every record, group and attrs dict with its parent.

The warning universe (:func:`build_universe`) holds one entry per warning:
the observations of one live range, merged across the rename chain. A
history caches its universe (``ProjectHistory.universe``); each call of
:func:`truncate_history` makes a new cut, with its own indexes and universe.

Record schema, as :func:`ingest_ledger` checks it and :func:`emit_ledger`
writes it. Each type names a field kind of ``errors`` (its module docstring
says what JSON each kind accepts): "string" is ``string``, "string or null"
``optional_string``, "integer" ``int64`` (signed 64-bit), an integer
">= 0" ``count`` and "number" ``finite``. An optional field may be absent
or ``null`` where its type allows null; other fields are ignored.

``revision``

    ===================  ==============  ===========  ================================
    field                type            required     constraint
    ===================  ==============  ===========  ================================
    id                   string          yes          unique among revisions
    timestamp            integer         yes          not earlier than the parent's
    parent               string or null  no (null)    id of another revision
    branch               string          no ("main")
    ===================  ==============  ===========  ================================

``warning`` (one observation; identical lines collapse into one)

    ===================  ==============  ===========  ================================
    revision             string          yes          id of a ledger revision
    file_path            string          yes          non-empty
    bug_pattern          string          yes          one bug_category per pattern
    bug_category         string          yes
    priority             integer         yes          1, 2 or 3
    entity               object          yes          see ``entity``
    line                 integer         yes          >= 1
    ===================  ==============  ===========  ================================

``change`` (the change kind rides in ``change_kind``)

    ===================  ==============  ===========  ================================
    revision             string          yes          id of a ledger revision
    file_path            string          yes
    change_kind          string          yes          Add, Modify, Delete or Rename
    old_path             string or null  for Rename   non-empty, not equal to file_path;
                                                      null or absent on other kinds
    lines_added          integer         no (0)       >= 0
    lines_deleted        integer         no (0)       >= 0
    author               string          no ("")
    ===================  ==============  ===========  ================================

``attrs`` (static metrics of one warning key at one revision; the last
line for a (revision, key) pair wins)

    ===================  ==============  ===========  ================================
    revision             string          yes          id of a ledger revision
    bug_pattern          string          yes
    file_path            string          yes
    entity               object          yes          see ``entity``
    comment_code_ratio   number          yes          finite, >= 0
    method_depth         integer         yes          >= 0
    file_depth           integer         yes          >= 0
    methods_in_file      integer         yes          >= 0
    classes_in_package   integer         yes          >= 0
    parameter_signature  string          yes
    method_visibility    string          yes          public, protected, package, private
    ===================  ==============  ===========  ================================

``entity`` (inside warning and attrs records)

    ===================  ==============  ===========  ================================
    package              string          yes
    class                string          yes
    method               string or null  no (null)    null: a class-level warning
    ===================  ==============  ===========  ================================

Wire form, as :func:`emit_ledger` writes it: each line is what
``json.dumps(record, sort_keys=True)`` writes. Keys are sorted, with ``", "``
and ``": "`` separators; strings go through
``json.encoder.encode_basestring_ascii`` (non-ASCII and control characters
as ``\\uXXXX`` escapes); integers are ``int.__repr__`` and
``comment_code_ratio`` is ``float.__repr__``; an absent method or parent is
``null``, and an absent ``old_path`` is left out. Line order is total, so
the bytes depend on the history alone, not on the hash seed:

- revisions by (timestamp, id), then warnings by (revision index,
  bug_pattern, file_path, package, class, method or "", line, priority,
  bug_category, method is not null);
- then changes by (revision index, file_path, change_kind, author,
  lines_added, lines_deleted, old_path or "");
- then attrs by (revision index, bug_pattern, file_path, package, class,
  method or "", method is not null).

So every warning, change and attrs line ends in ``, "revision": "<id>"}``,
and most lines repeat an earlier line up to that member: the same record at
another revision. Both directions of the codec pay per distinct record, not
per line. :func:`emit_ledger` formats each distinct observation, and each
distinct attrs payload of a key, once; a line is that text plus the quoted
revision id and ``}``. :func:`ingest_ledger` splits each line at its last
revision member into a prefix and an end, such as ``r0007"}`` and the
newline. A line whose prefix is in its memo and whose end is in its table
is the memo's record at the table's revision: it joins that revision's group
after one ``rpartition`` and two dict probes. Every other line takes the
full decode, which interns the record by value, so lines that hold one
record in another key order share it too. A decoded line whose end, but for
trailing whitespace, is one JSON string equal to its revision followed by
``}`` enters its prefix in the memo and its end in the table. No other line
enters either (revision records, a line without the member or with another
member after it, a line whose decode fails), so errors and their line
numbers are those of a line-by-line decode.

A ``WarningKey`` travels in two shapes. As a JSON object (ledger warning
and attrs records, annotation files, ``truth.json``) it is ``bug_pattern``,
``file_path`` and an ``entity`` object: :func:`key_json` writes it
(``emit_ledger``'s templates in the ledger) and :func:`decode_key` reads it
with the checks above. As a CSV row (``labels.csv`` and the feature
matrices) it is the five ``keys.KEY_COLUMNS``, which ``keys.key_row``
writes and ``keys.key_from_row`` reads; ``keys`` also holds the key itself,
so the CSV readers load none of this module.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote
from json.scanner import make_scanner
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import (IntegrityError, LedgerParseError, count, finite, int64, optional_string,
                     string)
from .keys import WarningKey

CHANGE_KINDS = ("Add", "Modify", "Delete", "Rename")
VISIBILITIES = ("public", "protected", "package", "private")
SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class RevisionMeta:
    id: str
    timestamp: int
    parent: str | None = None
    branch: str = "main"

    @property
    def order_key(self) -> tuple[int, str]:
        return (self.timestamp, self.id)


class WarningObservation(NamedTuple):
    """One warning as seen: the revision that saw it is the index of the
    ``warnings_at`` group that holds it.

    ``key`` is the warning's line-insensitive identity: its bug pattern, file
    path and entity (package, class, optional method). Ingest hands every
    observation of one key the same ``WarningKey`` object, the one that attrs
    records of that key carry too. As a tuple, an observation compares and
    hashes like its four fields in order.
    """

    key: WarningKey
    bug_category: str
    priority: int
    line: int


@dataclass(frozen=True)
class FileChangeRecord:
    file_path: str
    kind: str  # Add | Modify | Delete | Rename
    lines_added: int = 0
    lines_deleted: int = 0
    author: str = ""
    old_path: str | None = None  # Rename only: the pre-rename path


@dataclass(frozen=True)
class StaticAttributes:
    """Per-(revision, warning) code metrics supplied by the ledger."""

    comment_code_ratio: float
    method_depth: int
    file_depth: int
    methods_in_file: int
    classes_in_package: int
    parameter_signature: str
    method_visibility: str


@dataclass
class ProjectHistory:
    """Timeline of revisions, with the records of each revision grouped by
    its index (module docstring).

    ``warnings_at``, ``changes_at`` and ``attrs_at`` run parallel to
    ``revisions``: group ``i`` holds the records whose revision is
    ``revisions[i]``. Treat instances as frozen after construction. Derived
    indexes and the universe are cached lazily on first read, without
    locking, and never participate in equality. File identity reads
    ``path_events`` and ``range_ends``.
    """

    revisions: tuple[RevisionMeta, ...]  # sorted by (timestamp, id)
    warnings_at: tuple[frozenset[WarningObservation], ...]
    changes_at: tuple[frozenset[FileChangeRecord], ...]
    attrs_at: tuple[dict[WarningKey, StaticAttributes], ...]

    @property
    def observations(self) -> tuple[WarningObservation, ...]:
        """Each group's observations in one flat tuple, built anew on each read."""
        return tuple(o for group in self.warnings_at for o in group)

    @property
    def horizon(self) -> str | None:
        """The last revision's id; None for an empty history."""
        return self.revisions[-1].id if self.revisions else None

    # -- revision ordering ------------------------------------------------

    @cached_property
    def _order(self) -> dict[str, int]:
        return {rev.id: i for i, rev in enumerate(self.revisions)}

    def rev_index(self, rev_id: str) -> int:
        try:
            return self._order[rev_id]
        except KeyError:
            raise IntegrityError(f"unknown revision {rev_id!r}") from None

    # -- presence indexes -------------------------------------------------

    @cached_property
    def key_presence(self) -> dict[WarningKey, tuple[int, ...]]:
        """Key -> sorted revision indexes where the exact key is observed."""
        acc: dict[WarningKey, list[int]] = defaultdict(list)
        for idx, group in enumerate(self.warnings_at):
            for key in {o.key for o in group}:
                acc[key].append(idx)
        return {k: tuple(v) for k, v in acc.items()}

    def keys_at(self, rev_id: str) -> tuple[WarningKey, ...]:
        """Distinct warning keys observed at a revision, in sort order."""
        group = self.warnings_at[self.rev_index(rev_id)]
        return tuple(sorted({o.key for o in group}, key=WarningKey.sort_key))

    @cached_property
    def pattern_categories(self) -> dict[str, str]:
        """Bug pattern -> its category (one per pattern, validated at ingest)."""
        return {o.key.bug_pattern: o.bug_category for group in self.warnings_at for o in group}

    @cached_property
    def package_paths(self) -> dict[str, frozenset[str]]:
        """Package -> file paths, attributed through warning observations."""
        acc: dict[str, set[str]] = defaultdict(set)
        for group in self.warnings_at:
            for o in group:
                acc[o.key.package].add(o.key.file_path)
        return {pkg: frozenset(paths) for pkg, paths in acc.items()}

    # -- file identity --------------------------------------------------

    @cached_property
    def path_events(self) -> dict[str, tuple[tuple[int, FileChangeRecord], ...]]:
        """Path -> ``(index, record)`` of every change naming it, as ``file_path``
        or as a Rename's ``old_path``, sorted by (index, kind, file_path,
        old_path, author): at one index a Delete precedes a Rename."""
        acc: dict[str, list[tuple[int, FileChangeRecord]]] = defaultdict(list)
        for idx, group in enumerate(self.changes_at):
            for rec in group:
                event = (idx, rec)
                acc[rec.file_path].append(event)
                if rec.kind == "Rename":
                    acc[rec.old_path].append(event)
        return {
            path: tuple(sorted(events, key=lambda e: (
                e[0], e[1].kind, e[1].file_path, e[1].old_path or "", e[1].author)))
            for path, events in acc.items()
        }

    @cached_property
    def range_ends(self) -> dict[str, tuple[tuple[int, FileChangeRecord], ...]]:
        """Path -> the ``path_events`` that end a live range of the file at it
        (module docstring): each Delete of the path and each Rename away from
        it. Paths whose file never ends are left out."""
        return {path: ends for path, events in self.path_events.items()
                if (ends := tuple((idx, rec) for idx, rec in events if rec.kind == "Delete"
                                  or rec.kind == "Rename" and rec.old_path == path))}

    def resolve_path(self, path: str, start_idx: int, end_idx: int) -> tuple[str, int | None]:
        """Follow a file forward from start to end revision index.

        Applies Rename records strictly after ``start_idx`` and stops at the
        first Delete, returning ``(final_path, deleted_at_index_or_None)``.
        Under the live-range rule (module docstring) a re-added path is a
        different file.
        """
        cur, lo = path, start_idx
        while True:
            for idx, rec in self.range_ends.get(cur, ()):
                if idx <= lo:
                    continue
                if idx > end_idx:
                    return cur, None
                if rec.kind == "Delete":
                    return cur, idx
                cur, lo = rec.file_path, idx
                break
            else:
                return cur, None

    def file_chain(self, path: str, at_idx: int
                   ) -> tuple[int | None, tuple[tuple[int, FileChangeRecord], ...]]:
        """Backward walk of a file's live range up to ``at_idx``, following
        Rename records back through earlier paths, as ``(birth_idx, records)``.

        On each path the walk stops at the latest range end at or before its
        bound, and at the Add that started the range (``birth_idx``, else None).
        """
        records: list[tuple[int, FileChangeRecord]] = []
        cur, hi = path, at_idx  # hi: inclusive upper bound of the current segment
        while True:
            start = max((idx for idx, _ in self.range_ends.get(cur, ()) if idx <= hi), default=-1)
            # Records at the range end's index, but for the ending one, are the new file's.
            segment = [(idx, rec) for idx, rec in self.path_events.get(cur, ())
                       if start <= idx <= hi and rec.file_path == cur and rec.kind != "Delete"]
            add_idx = rename_in = None
            for idx, rec in segment:
                if rec.kind == "Add":
                    add_idx = idx
                elif rec.kind == "Rename":
                    rename_in = (idx, rec.old_path)
            if add_idx is not None and (rename_in is None or add_idx >= rename_in[0]):
                # Live range starts at this Add: stop the walk here.
                records += [(idx, rec) for idx, rec in segment if idx >= add_idx]
                birth_idx = add_idx
                break
            lo = -1 if rename_in is None else rename_in[0]
            records += [(idx, rec) for idx, rec in segment
                        if idx > lo or rec.kind == "Rename" and idx == lo]
            if rename_in is None:
                birth_idx = None
                break
            cur, hi = rename_in[1], lo - 1
        records.sort(key=lambda t: (t[0], t[1].file_path, t[1].kind, t[1].author))
        return birth_idx, tuple(records)

    @cached_property
    def universe(self) -> dict[WarningId, CanonicalWarning]:
        """Every warning as of the horizon (``build_universe``)."""
        return build_universe(self, len(self.revisions) - 1)


# ---------------------------------------------------------------------------
# Ledger ingestion
# ---------------------------------------------------------------------------

# The scanner behind json.loads, called directly: one decode per line without
# loads' wrappers. Like json's own default decoder it keeps no state between
# calls.
_scan_json = make_scanner(json.JSONDecoder())

# Every warning, change and attrs line emit_ledger writes ends in this text,
# the revision id and ``"}`` (module docstring, wire form).
_REVISION_MEMBER = ', "revision": "'


def ingest_ledger(stream: Iterable[str] | IO[str]) -> ProjectHistory:
    """Parse and validate a ledger into a ProjectHistory.

    Raises LedgerParseError (with the 1-based line number) for malformed
    lines, unknown record kinds and fields outside the schema in the module
    docstring, and IntegrityError when records reference unknown revisions
    or contradict each other. Duplicate identical warning lines are
    collapsed with a logged warning.

    Cost contract: a line whose prefix and end (module docstring) both came
    from earlier decoded lines costs one ``rpartition`` and two dict probes.
    Every other line costs one full JSON decode, so a ledger takes at most
    one per revision line, distinct prefix and distinct end. One object per
    distinct record: a full decode interns its observation or change record
    by value, and one ``WarningKey`` per distinct key, shared by
    observations and attrs records, and one ``StaticAttributes`` per
    distinct attrs payload are each validated once, on first sight. The
    checks of revision references and pattern categories read distinct
    values.
    """
    revisions: list[RevisionMeta] = []
    # Records grouped by revision id, each group in line order (observations
    # as the keys of a dict: a set in line order).
    warnings: dict[str, dict[WarningObservation, None]] = defaultdict(dict)
    changes: dict[str, list[FileChangeRecord]] = defaultdict(list)
    attributes: dict[str, dict[WarningKey, StaticAttributes]] = defaultdict(dict)
    keys: dict[tuple, WarningKey] = {}
    payloads: dict[tuple, StaticAttributes] = {}
    categories: dict[tuple[str, str], None] = {}  # (bug_pattern, bug_category) pairs
    memo: dict[str, tuple[str, object]] = {}  # prefix -> (kind, its revision-free record)
    ends: dict[str, str] = {}  # line end -> the revision id it names
    records: dict = {}  # each decoded observation and change record, by value
    warning_lines = 0

    for line_no, raw in enumerate(stream, start=1):
        head, _, end = raw.rpartition(_REVISION_MEMBER)
        rev = ends.get(end)
        hit = None if rev is None else memo.get(head)
        if hit is None:
            line = raw.strip()
            if not line:
                continue
            rec = _decode_json(line, line_no)
            kind = rec.get("kind")
            try:
                if kind == "revision":
                    revisions.append(_decode_revision(rec))
                    continue
                if kind == "warning":
                    rev, record = _decode_warning(rec, keys)
                    record = records.setdefault(record, record)
                    # A table hit repeats a decoded line, so every pair is seen here first.
                    categories[(record.key.bug_pattern, record.bug_category)] = None
                elif kind == "attrs":
                    rev, record = _decode_attrs(rec, keys, payloads)
                elif kind == "change":
                    rev, record = _decode_change(rec)
                    record = records.setdefault(record, record)
                else:
                    raise LedgerParseError(f"unknown record kind {kind!r}", line_no)
            except KeyError as exc:
                raise LedgerParseError(
                    f"bad {kind} record: \"missing field {exc.args[0]!r}\"", line_no
                ) from None
            except (TypeError, ValueError) as exc:
                raise LedgerParseError(f"bad {kind} record: {exc}", line_no) from None
            hit = (kind, record)
            # A line that ends in its own revision member, the closing brace
            # and whitespace serves every later line made of a known prefix
            # and a known end.
            if head:
                # The line decoded as JSON, so its last _REVISION_MEMBER opens a key
                # string, then the value string ``end`` starts in: the decode just
                # accepted it under the same strict rules, so this scan cannot raise.
                tail, stop = scanstring(end, 0)
                if tail == rev and end[stop:].rstrip() == "}":
                    memo[head] = hit
                    ends[end] = rev
        kind, record = hit
        if kind == "warning":
            warnings[rev][record] = None
            warning_lines += 1
        elif kind == "attrs":
            attributes[rev][record[0]] = record[1]
        else:
            changes[rev].append(record)

    duplicate_obs = warning_lines - sum(map(len, warnings.values()))
    if duplicate_obs:
        import logging  # the one log call: a ledger without duplicates never loads logging
        logging.getLogger(__name__).warning(
            "collapsed %d duplicate warning line(s) during ingestion", duplicate_obs)

    ids = [r.id for r in revisions]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise IntegrityError(f"duplicate revision id(s): {', '.join(dupes)}")
    by_id = {r.id: r for r in revisions}
    for rev in revisions:
        if rev.parent is None:
            continue
        if rev.parent == rev.id:
            raise IntegrityError(f"revision {rev.id!r} is its own parent")
        parent = by_id.get(rev.parent)
        if parent is None:
            raise IntegrityError(f"revision {rev.id!r} references unknown parent {rev.parent!r}")
        if rev.timestamp < parent.timestamp:
            raise IntegrityError(
                f"revision {rev.id!r} predates its parent {rev.parent!r}"
            )

    # Each check reads the group keys, distinct revision ids in order of first
    # sight, so it raises where a check of every record in line order would.
    _check_known(by_id, warnings, "warning observation")
    _check_known(by_id, changes, "change record")
    _check_known(by_id, attributes, "attrs record")
    category_of: dict[str, str] = {}
    for pattern, category in categories:
        prev = category_of.setdefault(pattern, category)
        if prev != category:
            raise IntegrityError(
                f"bug pattern {pattern!r} mapped to both {prev!r} and {category!r}")

    revisions.sort(key=lambda r: r.order_key)
    return ProjectHistory(
        revisions=tuple(revisions),
        warnings_at=tuple(frozenset(warnings.get(r.id, ())) for r in revisions),
        changes_at=tuple(frozenset(changes.get(r.id, ())) for r in revisions),
        attrs_at=tuple(attributes.get(r.id, {}) for r in revisions),
    )


def _check_known(revisions: dict, revision_ids: Iterable[str], what: str) -> None:
    for rev_id in revision_ids:
        if rev_id not in revisions:
            raise IntegrityError(f"{what} references unknown revision {rev_id!r}")


# The decoders below read each field by indexing and check it with a field
# kind of ``errors``; a missing one raises KeyError(field name), which
# ingest_ledger reports as a missing field. The warning, change and attrs
# decoders return the line's revision and its record apart, so
# ingest_ledger's memo shares the record among lines that repeat its prefix.

def _decode_json(line: str, line_no: int) -> dict:
    """The JSON object on a stripped line, with json.loads' error messages."""
    try:
        rec, end = _scan_json(line, 0)
    except StopIteration:  # no JSON value starts the line; json.loads names a BOM
        msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if line[0] == "\ufeff"
               else "Expecting value")
        raise LedgerParseError(f"invalid JSON ({msg})", line_no) from None
    except json.JSONDecodeError as exc:
        raise LedgerParseError(f"invalid JSON ({exc.msg})", line_no) from None
    except (ValueError, RecursionError) as exc:  # integer past the digit limit; deep nesting
        raise LedgerParseError(f"invalid JSON ({exc})", line_no) from None
    if end != len(line):
        raise LedgerParseError("invalid JSON (Extra data)", line_no)
    if type(rec) is not dict:
        raise LedgerParseError("record must be a JSON object", line_no)
    return rec


def _decode_revision(rec: dict) -> RevisionMeta:
    return RevisionMeta(
        id=string(rec["id"], "id"),
        timestamp=int64(rec["timestamp"], "timestamp"),
        parent=optional_string(rec.get("parent"), "parent"),
        branch=string(rec.get("branch", "main"), "branch"),
    )


def _decode_warning(rec: dict, keys: dict[tuple, WarningKey]) -> tuple[str, WarningObservation]:
    """A warning line's revision, and its observation."""
    priority = int64(rec["priority"], "priority")
    if not 1 <= priority <= 3:
        raise ValueError(f"priority must be in 1..3, got {priority}")
    line = int64(rec["line"], "line")
    if line < 1:
        raise ValueError(f"line must be positive, got {line}")
    file_path = string(rec["file_path"], "file_path")
    if not file_path:
        raise ValueError("file_path must be non-empty")
    revision = string(rec["revision"], "revision")
    string(rec["bug_pattern"], "bug_pattern")  # before bug_category, as errors name them
    bug_category = string(rec["bug_category"], "bug_category")
    return revision, WarningObservation(decode_key(rec, keys), bug_category, priority, line)


def _decode_change(rec: dict) -> tuple[str, FileChangeRecord]:
    """A change line's revision, and its change record."""
    # The record tag already uses "kind", so the change kind rides in
    # "change_kind" on the wire (emit_ledger writes it back the same way).
    change_kind = rec["change_kind"]
    if change_kind not in CHANGE_KINDS:
        raise ValueError(f"change_kind must be one of {CHANGE_KINDS}, got {change_kind!r}")
    old_path = optional_string(rec.get("old_path"), "old_path")
    if change_kind == "Rename" and not old_path:
        raise ValueError("Rename record requires old_path")
    if change_kind != "Rename" and old_path is not None:
        raise ValueError(f"{change_kind} record must not carry old_path")
    lines_added = int64(rec.get("lines_added", 0), "lines_added")
    lines_deleted = int64(rec.get("lines_deleted", 0), "lines_deleted")
    if lines_added < 0 or lines_deleted < 0:
        raise ValueError("line counts must be non-negative")
    revision = string(rec["revision"], "revision")
    file_path = string(rec["file_path"], "file_path")
    if change_kind == "Rename" and old_path == file_path:
        raise ValueError(f"Rename old_path equals file_path {file_path!r}")
    return revision, FileChangeRecord(file_path, change_kind, lines_added, lines_deleted,
                                      string(rec.get("author", ""), "author"), old_path)


def _decode_attrs(
    rec: dict,
    keys: dict[tuple, WarningKey],
    payloads: dict[tuple, StaticAttributes],
) -> tuple[str, tuple[WarningKey, StaticAttributes]]:
    key = decode_key(rec, keys)
    visibility = rec["method_visibility"]
    if visibility not in VISIBILITIES:
        raise ValueError(f"method_visibility must be one of {VISIBILITIES}, got {visibility!r}")
    ratio = rec["comment_code_ratio"]
    # The sign is checked before finiteness, so -Infinity is "must be >= 0".
    if type(ratio) in (int, float) and ratio < 0:
        raise ValueError("comment_code_ratio must be >= 0")
    ratio = finite(ratio, "comment_code_ratio")
    payload = (
        ratio,
        count(rec["method_depth"], "method_depth"),
        count(rec["file_depth"], "file_depth"),
        count(rec["methods_in_file"], "methods_in_file"),
        count(rec["classes_in_package"], "classes_in_package"),
        string(rec["parameter_signature"], "parameter_signature"),
        visibility,
    )
    # 0.0 and -0.0 are equal keys but emit differently: key a zero by its text.
    ident = payload if ratio else (repr(ratio), *payload[1:])
    attrs = payloads.get(ident)
    if attrs is None:
        attrs = payloads[ident] = StaticAttributes(*payload)
    return string(rec["revision"], "revision"), (key, attrs)


# ---------------------------------------------------------------------------
# Warning-key JSON codec (the CSV codec is in schema)
# ---------------------------------------------------------------------------

def key_json(key: WarningKey) -> dict:
    """The JSON object of a key; ledger records add their own fields to it."""
    return {"bug_pattern": key.bug_pattern, "file_path": key.file_path,
            "entity": {"package": key.package, "class": key.class_name, "method": key.method}}


def decode_key(value: dict, keys: dict[tuple, WarningKey]) -> WarningKey:
    """The WarningKey of a ``key_json`` object, interned in the caller's table
    and validated on first sight: a missing field raises KeyError(field name)
    and a mistyped one ValueError. Fields outside the key are ignored."""
    entity = value["entity"]
    if type(entity) is not dict:
        raise ValueError("entity must be an object")
    package, class_name, method = entity["package"], entity["class"], entity.get("method")
    ident = (value["bug_pattern"], value["file_path"], package, class_name, method)
    try:
        key = keys.get(ident)
    except TypeError:  # an array or object where a string belongs
        key = None
    if key is None:
        # Only JSON strings (and null for the method) equal a stored
        # identity, so a hit above needs no type check.
        package = string(package, "package")
        class_name = string(class_name, "class")
        method = optional_string(method, "method")
        key = keys[ident] = WarningKey(
            string(ident[0], "bug_pattern"), string(ident[1], "file_path"),
            package, class_name, method,
        )
    return key


# ---------------------------------------------------------------------------
# Ledger emission (round-trips with ingest_ledger)
# ---------------------------------------------------------------------------

def _optional(text: str | None) -> str:
    return "null" if text is None else _quote(text)


def _entity(e: WarningKey) -> str:
    return (f'{{"class": {_quote(e.class_name)}, "method": {_optional(e.method)}, '
            f'"package": {_quote(e.package)}}}')


def emit_ledger(history: ProjectHistory) -> Iterator[str]:
    """Serialize a history back to ledger lines, in the wire form and the
    total order stated in the module docstring: one f-string per record
    kind, with its keys in sorted order, formatted once per distinct
    observation and attrs payload (module docstring). The distinct
    observations are sorted once, and their lines fill one bucket per
    revision index in rank order: the order of a sort of the lines.
    """
    ends = [f"{_quote(r.id)}}}" for r in history.revisions]  # quoted id and "}", by index
    for r in history.revisions:
        yield (f'{{"branch": {_quote(r.branch)}, "id": {_quote(r.id)}, "kind": "revision", '
               f'"parent": {_optional(r.parent)}, "timestamp": {r.timestamp}}}')

    at: dict[WarningObservation, list[int]] = defaultdict(list)  # -> its revision indexes
    for idx, group in enumerate(history.warnings_at):
        for o in group:
            at[o].append(idx)
    buckets: list[list[str]] = [[] for _ in ends]
    for o in sorted(at, key=lambda o: (*o.key.sort_key(), o.line, o.priority, o.bug_category,
                                       o.key.method is not None)):
        text = (f'{{"bug_category": {_quote(o.bug_category)}, '
                f'"bug_pattern": {_quote(o.key.bug_pattern)}, "entity": {_entity(o.key)}, '
                f'"file_path": {_quote(o.key.file_path)}, "kind": "warning", "line": {o.line}, '
                f'"priority": {o.priority}, "revision": ')
        for idx in at[o]:
            buckets[idx].append(text)
    for texts, end in zip(buckets, ends):
        for text in texts:
            yield text + end

    for group, end in zip(history.changes_at, ends):
        for c in sorted(group, key=lambda c: (c.file_path, c.kind, c.author, c.lines_added,
                                              c.lines_deleted, c.old_path or "")):
            old_path = "" if c.old_path is None else f'"old_path": {_quote(c.old_path)}, '
            yield (f'{{"author": {_quote(c.author)}, "change_kind": {_quote(c.kind)}, '
                   f'"file_path": {_quote(c.file_path)}, "kind": "change", '
                   f'"lines_added": {c.lines_added}, "lines_deleted": {c.lines_deleted}, '
                   f'{old_path}"revision": {end}')

    of_key: dict[WarningKey, list[tuple[int, StaticAttributes]]] = defaultdict(list)
    for idx, attrs in enumerate(history.attrs_at):
        for k, a in attrs.items():
            of_key[k].append((idx, a))
    buckets = [[] for _ in ends]
    for k in sorted(of_key, key=lambda k: (*k.sort_key(), k.method is not None)):
        formatted: dict = {}  # payload -> text
        for idx, a in of_key[k]:
            # 0.0 and -0.0 are equal payloads but emit differently: key a zero by its text.
            ratio = a.comment_code_ratio
            payload = a if ratio else (repr(ratio), a)
            text = formatted.get(payload)
            if text is None:
                text = formatted[payload] = (
                    f'{{"bug_pattern": {_quote(k.bug_pattern)}, '
                    f'"classes_in_package": {a.classes_in_package}, '
                    f'"comment_code_ratio": {ratio!r}, "entity": {_entity(k)}, '
                    f'"file_depth": {a.file_depth}, "file_path": {_quote(k.file_path)}, '
                    f'"kind": "attrs", "method_depth": {a.method_depth}, '
                    f'"method_visibility": {_quote(a.method_visibility)}, '
                    f'"methods_in_file": {a.methods_in_file}, '
                    f'"parameter_signature": {_quote(a.parameter_signature)}, '
                    f'"revision": ')
            buckets[idx].append(text)
    for texts, end in zip(buckets, ends):
        for text in texts:
            yield text + end


# ---------------------------------------------------------------------------
# History operations
# ---------------------------------------------------------------------------

def truncate_history(history: ProjectHistory, rev_id: str) -> ProjectHistory:
    """The history up to ``rev_id``, which becomes the horizon.

    This is the time guard of feature extraction: nothing chronologically
    after the cut survives. The cut is a prefix of the history's four
    per-revision tuples, so it shares every record, group and attrs dict
    with ``history`` and costs no work per record. Each call makes a new
    cut, which builds its own indexes and universe when first read; a
    caller that reads one revision's cut more than once keeps it. A cut at
    the last revision is ``history`` itself.
    """
    end = history.rev_index(rev_id) + 1
    if end == len(history.revisions):
        return history
    return ProjectHistory(history.revisions[:end], history.warnings_at[:end],
                          history.changes_at[:end], history.attrs_at[:end])


# ---------------------------------------------------------------------------
# Warning universe: one entry per warning, under the live-range rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalWarning:
    """One physical warning: the observations of one live range, merged
    across the file's rename chain.

    Pattern, path, package and method are read off ``member_key``. A
    warning is closed only by an absence inside its live range.
    """

    member_key: WarningKey  # representative key carrying the resolved path
    category: str
    presence: frozenset[int]
    first_seen_idx: int
    closed_idx: int | None  # first index absent while the file was alive


# A warning's identity: its canonical key and the index of the Delete that
# ended its live range, None while it lives.
WarningId = tuple[WarningKey, int | None]


def build_universe(base: ProjectHistory, at_idx: int) -> dict[WarningId, CanonicalWarning]:
    """Every warning of ``base`` as of ``at_idx``, under the live-range rule.

    Each key's presence is split at the ``range_ends`` of its path, and each
    part is resolved forward from its last observation (``resolve_path``),
    so parts of one rename chain merge. A warning alive at ``at_idx`` is
    ``universe[(key, None)]``, with ``key`` its own key there; one whose
    file was deleted is keyed by that Delete's index.
    """
    presence_of: dict[WarningId, set[int]] = defaultdict(set)
    for key, presence in base.key_presence.items():
        path = key.file_path
        lo = 0
        for end in (*(idx for idx, _ in base.range_ends.get(path, ())), len(base.revisions)):
            hi = bisect_left(presence, end, lo)
            if hi > lo:  # presence[lo:hi]: one live range of the key
                resolved, deleted_idx = base.resolve_path(path, presence[hi - 1], at_idx)
                presence_of[(key.with_path(resolved), deleted_idx)].update(presence[lo:hi])
            lo = hi
    out: dict[WarningId, CanonicalWarning] = {}
    for (canon, deleted_idx), presence in presence_of.items():
        first_idx = min(presence)
        last_alive = at_idx if deleted_idx is None else deleted_idx - 1
        closed_idx = next(
            (idx for idx in range(first_idx + 1, last_alive + 1) if idx not in presence), None)
        out[(canon, deleted_idx)] = CanonicalWarning(
            member_key=canon,
            category=base.pattern_categories[canon.bug_pattern],
            presence=frozenset(presence),
            first_seen_idx=first_idx,
            closed_idx=closed_idx,
        )
    return out
