"""Project-history data model and the line-delimited ledger behind it.

A ledger is newline-delimited JSON: one record per line, tagged with a
``kind`` field in {revision, warning, change, attrs}. Every revision listed
in the ledger is treated as an analysis snapshot of the whole project, so a
warning is "present" at a revision exactly when the ledger carries an
observation for it there, and "absent" otherwise. File identity survives
renames: change records of kind Rename connect the old path to the new one,
and the timeline operations bridge warnings across that chain. A Delete
record ends a path's live range; a later Add of the same path starts a new,
unrelated file.

The record schema is defined by the ``_parse_*`` functions that read each
kind and by :func:`emit_ledger`, which writes it back.
"""

from __future__ import annotations

import bisect
import json
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Iterator

from .errors import IntegrityError, LedgerParseError, ValidationError

log = logging.getLogger(__name__)

CHANGE_KINDS = ("Add", "Modify", "Delete", "Rename")
VISIBILITIES = ("public", "protected", "package", "private")


@dataclass(frozen=True)
class RevisionMeta:
    id: str
    timestamp: int
    parent: str | None = None
    branch: str = "main"

    @property
    def order_key(self) -> tuple[int, str]:
        return (self.timestamp, self.id)


@dataclass(frozen=True)
class Entity:
    """Code entity a warning is attached to: package, class, optional method."""

    package: str
    class_name: str
    method: str | None = None


@dataclass(frozen=True)
class WarningObservation:
    revision: str
    file_path: str
    bug_pattern: str
    bug_category: str
    priority: int
    entity: Entity
    line: int

    @cached_property
    def key(self) -> WarningKey:
        """Line-insensitive identity, built once and shared by every index."""
        return WarningKey(
            bug_pattern=self.bug_pattern,
            file_path=self.file_path,
            package=self.entity.package,
            class_name=self.entity.class_name,
            method=self.entity.method,
        )


@dataclass(frozen=True)
class FileChangeRecord:
    revision: str
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


@dataclass(frozen=True)
class WarningKey:
    """Cross-revision identity of a warning.

    Identity is (bug pattern, file path, entity signature); the line number
    is deliberately excluded so that a warning keeps its key while code moves
    around inside a file. Keys do change across file renames; timeline
    operations bridge those via the rename chain.
    """

    bug_pattern: str
    file_path: str
    package: str
    class_name: str
    method: str | None = None

    def sort_key(self) -> tuple[str, str, str, str, str]:
        return (self.bug_pattern, self.file_path, self.package,
                self.class_name, self.method or "")

    def __lt__(self, other: "WarningKey") -> bool:
        return self.sort_key() < other.sort_key()

    def with_path(self, path: str) -> "WarningKey":
        return WarningKey(self.bug_pattern, path, self.package,
                          self.class_name, self.method)


def warning_key(obs: WarningObservation) -> WarningKey:
    """Line-insensitive identity of an observation."""
    return obs.key


@dataclass(frozen=True)
class WarningTimeline:
    """Lifecycle of one warning key across the history, rename-bridged."""

    key: WarningKey
    first_seen: str
    presence: tuple[tuple[str, bool], ...]  # (revision id, present) from first_seen on
    closed_at: str | None  # first revision analyzed with the file alive and the key absent
    file_deleted_at: str | None
    reopen_count: int  # closures followed by a later reappearance (flicker)


@dataclass
class ProjectHistory:
    """Immutable timeline of revisions, warnings, changes, and attributes.

    Treat instances as frozen after construction: all operations are pure
    reads and may be shared freely across parallel workers. Derived indexes
    are cached lazily and never participate in equality.
    """

    revisions: tuple[RevisionMeta, ...]  # sorted by (timestamp, id)
    observations: frozenset[WarningObservation]
    changes: frozenset[FileChangeRecord]
    attributes: dict[tuple[str, WarningKey], StaticAttributes] = field(default_factory=dict)
    horizon: str | None = None

    # -- revision ordering ------------------------------------------------

    @cached_property
    def _order(self) -> dict[str, int]:
        return {rev.id: i for i, rev in enumerate(self.revisions)}

    def rev_index(self, rev_id: str) -> int:
        try:
            return self._order[rev_id]
        except KeyError:
            raise IntegrityError(f"unknown revision {rev_id!r}") from None

    def rev_at(self, index: int) -> RevisionMeta:
        return self.revisions[index]

    def rev_time(self, rev_id: str) -> int:
        return self.revisions[self.rev_index(rev_id)].timestamp

    # -- presence indexes -------------------------------------------------

    @cached_property
    def present_keys(self) -> tuple[frozenset[WarningKey], ...]:
        """Per revision index, the set of warning keys observed there."""
        per_rev: list[set[WarningKey]] = [set() for _ in self.revisions]
        for obs in self.observations:
            per_rev[self.rev_index(obs.revision)].add(obs.key)
        return tuple(frozenset(s) for s in per_rev)

    @cached_property
    def key_presence(self) -> dict[WarningKey, tuple[int, ...]]:
        """Key -> sorted revision indexes where the exact key is observed."""
        acc: dict[WarningKey, set[int]] = defaultdict(set)
        for obs in self.observations:
            acc[obs.key].add(self.rev_index(obs.revision))
        return {k: tuple(sorted(v)) for k, v in acc.items()}

    @cached_property
    def observations_at(self) -> dict[str, tuple[WarningObservation, ...]]:
        acc: dict[str, list[WarningObservation]] = defaultdict(list)
        for obs in self.observations:
            acc[obs.revision].append(obs)
        return {
            rev: tuple(sorted(v, key=lambda o: (o.key.sort_key(), o.line)))
            for rev, v in acc.items()
        }

    def keys_at(self, rev_id: str) -> tuple[WarningKey, ...]:
        """Distinct warning keys observed at a revision, in sort order."""
        return tuple(sorted(self.present_keys[self.rev_index(rev_id)], key=WarningKey.sort_key))

    @cached_property
    def pattern_categories(self) -> dict[str, str]:
        """Bug pattern -> its category (one per pattern, validated at ingest)."""
        return {obs.bug_pattern: obs.bug_category for obs in self.observations}

    @cached_property
    def package_paths(self) -> dict[str, frozenset[str]]:
        """Package -> file paths, attributed through warning observations."""
        acc: dict[str, set[str]] = defaultdict(set)
        for obs in self.observations:
            acc[obs.entity.package].add(obs.file_path)
        return {pkg: frozenset(paths) for pkg, paths in acc.items()}

    # -- file chain (rename/delete) indexes --------------------------------

    @cached_property
    def _renames_out(self) -> dict[str, list[tuple[int, str]]]:
        acc: dict[str, list[tuple[int, str]]] = defaultdict(list)
        for rec in self.changes:
            if rec.kind == "Rename":
                acc[rec.old_path].append((self.rev_index(rec.revision), rec.file_path))
        return {p: sorted(v) for p, v in acc.items()}

    @cached_property
    def _renames_in(self) -> dict[str, list[tuple[int, str]]]:
        acc: dict[str, list[tuple[int, str]]] = defaultdict(list)
        for rec in self.changes:
            if rec.kind == "Rename":
                acc[rec.file_path].append((self.rev_index(rec.revision), rec.old_path))
        return {p: sorted(v) for p, v in acc.items()}

    @cached_property
    def _deletes(self) -> dict[str, list[int]]:
        acc: dict[str, list[int]] = defaultdict(list)
        for rec in self.changes:
            if rec.kind == "Delete":
                acc[rec.file_path].append(self.rev_index(rec.revision))
        return {p: sorted(v) for p, v in acc.items()}

    @cached_property
    def _adds(self) -> dict[str, list[int]]:
        acc: dict[str, list[int]] = defaultdict(list)
        for rec in self.changes:
            if rec.kind == "Add":
                acc[rec.file_path].append(self.rev_index(rec.revision))
        return {p: sorted(v) for p, v in acc.items()}

    @cached_property
    def changes_by_path(self) -> dict[str, tuple[tuple[int, FileChangeRecord], ...]]:
        acc: dict[str, list[tuple[int, FileChangeRecord]]] = defaultdict(list)
        for rec in self.changes:
            acc[rec.file_path].append((self.rev_index(rec.revision), rec))
        return {
            p: tuple(sorted(v, key=lambda t: (t[0], t[1].kind, t[1].author)))
            for p, v in acc.items()
        }

    def resolve_path(self, path: str, start_idx: int, end_idx: int) -> tuple[str, int | None]:
        """Follow a file forward from start to end revision index.

        Applies Rename records strictly after ``start_idx`` and stops at the
        first Delete, returning ``(final_path, deleted_at_index_or_None)``.
        The warning's live range ends at a Delete even if the same path is
        re-added later; a re-added path is a different file.
        """
        cur, lo = path, start_idx
        while True:
            del_idx = _first_after(self._deletes.get(cur, ()), lo, end_idx)
            ren = _first_rename_after(self._renames_out.get(cur, ()), lo, end_idx)
            if del_idx is None and ren is None:
                return cur, None
            if ren is None or (del_idx is not None and del_idx <= ren[0]):
                return cur, del_idx
            lo, cur = ren

    def file_chain(self, path: str, at_idx: int) -> "FileChain":
        """Backward walk of a file's identity up to ``at_idx``.

        Collects the Add that started the live range (if recorded) and every
        change record belonging to the chain, following Rename records back
        through earlier paths.
        """
        records: list[tuple[int, FileChangeRecord]] = []
        birth_idx: int | None = None
        cur = path
        hi = at_idx  # inclusive upper bound for the current segment
        while True:
            add_idx = _last_at_most(self._adds.get(cur, ()), hi)
            rin = _last_rename_at_most(self._renames_in.get(cur, ()), hi)
            if add_idx is not None and (rin is None or add_idx >= rin[0]):
                # Live range starts at this Add: stop the walk here.
                for idx, rec in self.changes_by_path.get(cur, ()):
                    if add_idx <= idx <= hi:
                        records.append((idx, rec))
                birth_idx = add_idx
                break
            lo = rin[0] if rin is not None else -1
            for idx, rec in self.changes_by_path.get(cur, ()):
                if lo <= idx <= hi and (idx > lo or rin is None or rec.kind == "Rename"):
                    records.append((idx, rec))
            if rin is None:
                break
            cur, hi = rin[1], rin[0] - 1
        records.sort(key=lambda t: (t[0], t[1].file_path, t[1].kind, t[1].author))
        return FileChain(birth_idx=birth_idx, records=tuple(records))


@dataclass(frozen=True)
class FileChain:
    birth_idx: int | None
    records: tuple[tuple[int, FileChangeRecord], ...]

    def authors(self) -> frozenset[str]:
        return frozenset(rec.author for _, rec in self.records if rec.author)


def _first_after(sorted_vals: Iterable[int], lo: int, hi: int) -> int | None:
    vals = list(sorted_vals)
    pos = bisect.bisect_right(vals, lo)
    if pos < len(vals) and vals[pos] <= hi:
        return vals[pos]
    return None


def _first_rename_after(renames: Iterable[tuple[int, str]], lo: int, hi: int) -> tuple[int, str] | None:
    for idx, target in renames:
        if lo < idx <= hi:
            return idx, target
    return None


def _last_at_most(sorted_vals: Iterable[int], hi: int) -> int | None:
    best = None
    for v in sorted_vals:
        if v <= hi:
            best = v
        else:
            break
    return best


def _last_rename_at_most(renames: Iterable[tuple[int, str]], hi: int) -> tuple[int, str] | None:
    best = None
    for idx, src in renames:
        if idx <= hi:
            best = (idx, src)
        else:
            break
    return best


# ---------------------------------------------------------------------------
# Ledger ingestion
# ---------------------------------------------------------------------------

def ingest_ledger(stream: Iterable[str] | IO[str]) -> ProjectHistory:
    """Parse and validate a ledger into a ProjectHistory.

    Raises LedgerParseError (with the 1-based line number) for malformed
    lines or unknown record kinds, and IntegrityError when records reference
    unknown revisions or contradict each other. Duplicate identical warning
    lines are collapsed with a logged warning.
    """
    revisions: list[RevisionMeta] = []
    observations: list[WarningObservation] = []
    changes: list[FileChangeRecord] = []
    attributes: dict[tuple[str, WarningKey], StaticAttributes] = {}
    seen_obs: set[WarningObservation] = set()
    duplicate_obs = 0

    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerParseError(f"invalid JSON ({exc.msg})", line_no) from None
        if not isinstance(rec, dict):
            raise LedgerParseError("record must be a JSON object", line_no)
        kind = rec.get("kind")
        try:
            if kind == "revision":
                revisions.append(_parse_revision(rec))
            elif kind == "warning":
                obs = _parse_warning(rec)
                if obs in seen_obs:
                    duplicate_obs += 1
                else:
                    seen_obs.add(obs)
                    observations.append(obs)
            elif kind == "change":
                changes.append(_parse_change(rec))
            elif kind == "attrs":
                rev, key, attrs = _parse_attrs(rec)
                attributes[(rev, key)] = attrs
            else:
                raise LedgerParseError(f"unknown record kind {kind!r}", line_no)
        except LedgerParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerParseError(f"bad {kind} record: {exc}", line_no) from None

    if duplicate_obs:
        log.warning("collapsed %d duplicate warning line(s) during ingestion", duplicate_obs)

    ids = [r.id for r in revisions]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise IntegrityError(f"duplicate revision id(s): {', '.join(dupes)}")
    by_id = {r.id: r for r in revisions}
    for rev in revisions:
        if rev.parent is None:
            continue
        parent = by_id.get(rev.parent)
        if parent is None:
            raise IntegrityError(f"revision {rev.id!r} references unknown parent {rev.parent!r}")
        if rev.timestamp < parent.timestamp:
            raise IntegrityError(
                f"revision {rev.id!r} predates its parent {rev.parent!r}"
            )

    known = set(by_id)
    for obs in observations:
        if obs.revision not in known:
            raise IntegrityError(
                f"warning observation references unknown revision {obs.revision!r}"
            )
    for rec in changes:
        if rec.revision not in known:
            raise IntegrityError(f"change record references unknown revision {rec.revision!r}")
    for rev_id, _key in attributes:
        if rev_id not in known:
            raise IntegrityError(f"attrs record references unknown revision {rev_id!r}")

    categories: dict[str, str] = {}
    for obs in observations:
        prev = categories.setdefault(obs.bug_pattern, obs.bug_category)
        if prev != obs.bug_category:
            raise IntegrityError(
                f"bug pattern {obs.bug_pattern!r} mapped to both "
                f"{prev!r} and {obs.bug_category!r}"
            )

    ordered = tuple(sorted(revisions, key=lambda r: r.order_key))
    horizon = ordered[-1].id if ordered else None
    return ProjectHistory(
        revisions=ordered,
        observations=frozenset(observations),
        changes=frozenset(changes),
        attributes=attributes,
        horizon=horizon,
    )


def _require(rec: dict, name: str):
    if name not in rec:
        raise KeyError(f"missing field {name!r}")
    return rec[name]


def _parse_revision(rec: dict) -> RevisionMeta:
    return RevisionMeta(
        id=str(_require(rec, "id")),
        timestamp=int(_require(rec, "timestamp")),
        parent=None if rec.get("parent") is None else str(rec["parent"]),
        branch=str(rec.get("branch", "main")),
    )


def _parse_entity(value) -> Entity:
    if not isinstance(value, dict):
        raise ValueError("entity must be an object")
    return Entity(
        package=str(_require(value, "package")),
        class_name=str(_require(value, "class")),
        method=None if value.get("method") is None else str(value["method"]),
    )


def _parse_warning(rec: dict) -> WarningObservation:
    priority = int(_require(rec, "priority"))
    if not 1 <= priority <= 3:
        raise ValueError(f"priority must be in 1..3, got {priority}")
    line = int(_require(rec, "line"))
    if line < 1:
        raise ValueError(f"line must be positive, got {line}")
    file_path = str(_require(rec, "file_path"))
    if not file_path:
        raise ValueError("file_path must be non-empty")
    return WarningObservation(
        revision=str(_require(rec, "revision")),
        file_path=file_path,
        bug_pattern=str(_require(rec, "bug_pattern")),
        bug_category=str(_require(rec, "bug_category")),
        priority=priority,
        entity=_parse_entity(_require(rec, "entity")),
        line=line,
    )


def _parse_change(rec: dict) -> FileChangeRecord:
    # The record tag already uses "kind", so the change kind rides in
    # "change_kind" on the wire (emit_ledger writes it back the same way).
    change_kind = str(_require(rec, "change_kind"))
    if change_kind not in CHANGE_KINDS:
        raise ValueError(f"change_kind must be one of {CHANGE_KINDS}, got {change_kind!r}")
    old_path = rec.get("old_path")
    if change_kind == "Rename" and not old_path:
        raise ValueError("Rename record requires old_path")
    lines_added = int(rec.get("lines_added", 0))
    lines_deleted = int(rec.get("lines_deleted", 0))
    if lines_added < 0 or lines_deleted < 0:
        raise ValueError("line counts must be non-negative")
    return FileChangeRecord(
        revision=str(_require(rec, "revision")),
        file_path=str(_require(rec, "file_path")),
        kind=change_kind,
        lines_added=lines_added,
        lines_deleted=lines_deleted,
        author=str(rec.get("author", "")),
        old_path=None if old_path is None else str(old_path),
    )


def _parse_attrs(rec: dict) -> tuple[str, WarningKey, StaticAttributes]:
    entity = _parse_entity(_require(rec, "entity"))
    key = WarningKey(
        bug_pattern=str(_require(rec, "bug_pattern")),
        file_path=str(_require(rec, "file_path")),
        package=entity.package,
        class_name=entity.class_name,
        method=entity.method,
    )
    visibility = str(_require(rec, "method_visibility"))
    if visibility not in VISIBILITIES:
        raise ValueError(f"method_visibility must be one of {VISIBILITIES}, got {visibility!r}")
    ratio = float(_require(rec, "comment_code_ratio"))
    if ratio < 0:
        raise ValueError("comment_code_ratio must be >= 0")
    attrs = StaticAttributes(
        comment_code_ratio=ratio,
        method_depth=int(_require(rec, "method_depth")),
        file_depth=int(_require(rec, "file_depth")),
        methods_in_file=int(_require(rec, "methods_in_file")),
        classes_in_package=int(_require(rec, "classes_in_package")),
        parameter_signature=str(_require(rec, "parameter_signature")),
        method_visibility=visibility,
    )
    return str(_require(rec, "revision")), key, attrs


# ---------------------------------------------------------------------------
# Ledger emission (round-trips with ingest_ledger)
# ---------------------------------------------------------------------------

def emit_ledger(history: ProjectHistory) -> Iterator[str]:
    """Serialize a history back to ledger lines, deterministically ordered."""
    for rev in history.revisions:
        yield json.dumps(
            {"kind": "revision", "id": rev.id, "timestamp": rev.timestamp,
             "parent": rev.parent, "branch": rev.branch},
            sort_keys=True,
        )
    obs_sorted = sorted(
        history.observations,
        key=lambda o: (history.rev_index(o.revision), o.key.sort_key(), o.line),
    )
    for obs in obs_sorted:
        yield json.dumps(
            {"kind": "warning", "revision": obs.revision, "file_path": obs.file_path,
             "bug_pattern": obs.bug_pattern, "bug_category": obs.bug_category,
             "priority": obs.priority,
             "entity": {"package": obs.entity.package, "class": obs.entity.class_name,
                        "method": obs.entity.method},
             "line": obs.line},
            sort_keys=True,
        )
    chg_sorted = sorted(
        history.changes,
        key=lambda c: (history.rev_index(c.revision), c.file_path, c.kind, c.author),
    )
    for rec in chg_sorted:
        payload = {"kind": "change", "revision": rec.revision, "file_path": rec.file_path,
                   "change_kind": rec.kind, "lines_added": rec.lines_added,
                   "lines_deleted": rec.lines_deleted, "author": rec.author}
        if rec.old_path is not None:
            payload["old_path"] = rec.old_path
        yield json.dumps(payload, sort_keys=True)
    attr_items = sorted(
        history.attributes.items(),
        key=lambda kv: (history.rev_index(kv[0][0]), kv[0][1].sort_key()),
    )
    for (rev_id, key), attrs in attr_items:
        yield json.dumps(
            {"kind": "attrs", "revision": rev_id, "bug_pattern": key.bug_pattern,
             "file_path": key.file_path,
             "entity": {"package": key.package, "class": key.class_name,
                        "method": key.method},
             "comment_code_ratio": attrs.comment_code_ratio,
             "method_depth": attrs.method_depth, "file_depth": attrs.file_depth,
             "methods_in_file": attrs.methods_in_file,
             "classes_in_package": attrs.classes_in_package,
             "parameter_signature": attrs.parameter_signature,
             "method_visibility": attrs.method_visibility},
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# History operations
# ---------------------------------------------------------------------------

def truncate_history(history: ProjectHistory, rev_id: str) -> ProjectHistory:
    """Drop every record after ``rev_id`` and pin the horizon there.

    This is the time-travel guard handed to leak-free feature extraction:
    nothing chronologically after the cut survives. A cut at the last
    revision of a history already pinned there returns ``history`` itself,
    so applying the same cut twice shares the first cut's cached indexes.
    """
    cut = history.rev_index(rev_id)
    if cut == len(history.revisions) - 1 and history.horizon == rev_id:
        return history
    keep = {rev.id for rev in history.revisions[: cut + 1]}
    return ProjectHistory(
        revisions=history.revisions[: cut + 1],
        observations=frozenset(o for o in history.observations if o.revision in keep),
        changes=frozenset(c for c in history.changes if c.revision in keep),
        attributes={
            (rev, key): attrs
            for (rev, key), attrs in history.attributes.items()
            if rev in keep
        },
        horizon=rev_id,
    )


def warning_timeline(history: ProjectHistory, key: WarningKey) -> WarningTimeline:
    """Presence, closure, and deletion lifecycle for one warning key.

    The walk starts at the key's first observation and follows the file's
    rename chain forward, so presence is detected even after the warning's
    own key changes with the path. Closure is the first revision where the
    file is analyzed alive but the warning is not reported; a Delete ends
    the timeline without closing the warning.
    """
    presence_idx = history.key_presence.get(key)
    if not presence_idx:
        raise IntegrityError(f"warning key never observed: {key}")
    first_idx = presence_idx[0]
    cur_path = key.file_path
    closed_at: str | None = None
    deleted_at: str | None = None
    reopen_count = 0
    was_present = True
    rows: list[tuple[str, bool]] = []
    last_idx = len(history.revisions) - 1
    for idx in range(first_idx, last_idx + 1):
        if idx > first_idx:
            # Apply rename/delete events landing exactly at this revision.
            cur_path, del_idx = history.resolve_path(cur_path, idx - 1, idx)
            if del_idx is not None:
                deleted_at = history.rev_at(del_idx).id
                for dead in range(idx, last_idx + 1):
                    rows.append((history.rev_at(dead).id, False))
                break
        present = key.with_path(cur_path) in history.present_keys[idx]
        rows.append((history.rev_at(idx).id, present))
        if not present and closed_at is None and idx > first_idx:
            closed_at = history.rev_at(idx).id
        if present and not was_present:
            reopen_count += 1
        was_present = present
    return WarningTimeline(
        key=key,
        first_seen=history.rev_at(first_idx).id,
        presence=tuple(rows),
        closed_at=closed_at,
        file_deleted_at=deleted_at,
        reopen_count=reopen_count,
    )


def require_nonempty(history: ProjectHistory) -> None:
    if history.horizon is None:
        raise ValidationError("history is empty: no revisions ingested")
