"""Straightforward per-record ledger parse and emit, kept as the references
for ``warnlab.history.ingest_ledger`` and ``emit_ledger``.

Every line goes through ``json.loads`` and builds fresh objects, and every
field is read through ``_require``; nothing is interned or shared. Each
warning and change line parses into an explicit ``(revision id, record)``
pair, the flat layout of ``history_reference``. It
applies the same validation rules as ``ingest_ledger``, so the two must
agree on every input: the same ``ProjectHistory``, or the same error class
with the same line number. ``reference_emit`` writes each record as a dict
through ``json.dumps(sort_keys=True)``; the template emitter must match it
byte for byte.
"""

from __future__ import annotations

import json
import math

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
)

from history_reference import FlatHistory, grouped


def reference_ingest(lines) -> ProjectHistory:
    revisions, observations, changes, attributes = [], [], [], {}
    seen = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise LedgerParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from None
        if not isinstance(rec, dict):
            raise LedgerParseError("record must be a JSON object", line_no)
        kind = rec.get("kind")
        try:
            if kind == "revision":
                revisions.append(_parse_revision(rec))
            elif kind == "warning":
                pair = _parse_warning(rec)
                if pair not in seen:
                    seen.add(pair)
                    observations.append(pair)
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

    ids = [r.id for r in revisions]
    if len(set(ids)) != len(ids):
        raise IntegrityError("duplicate revision id(s)")
    by_id = {r.id: r for r in revisions}
    for rev in revisions:
        if rev.parent is None:
            continue
        if rev.parent == rev.id:
            raise IntegrityError(f"revision {rev.id!r} is its own parent")
        parent = by_id.get(rev.parent)
        if parent is None:
            raise IntegrityError(f"revision {rev.id!r} references unknown parent")
        if rev.timestamp < parent.timestamp:
            raise IntegrityError(f"revision {rev.id!r} predates its parent")
    for rev_id in [rev for rev, _obs in observations] + [rev for rev, _rec in changes] + [
        rev for rev, _key in attributes
    ]:
        if rev_id not in by_id:
            raise IntegrityError(f"record references unknown revision {rev_id!r}")
    categories = {}
    for _rev, obs in observations:
        pattern = obs.key.bug_pattern
        if categories.setdefault(pattern, obs.bug_category) != obs.bug_category:
            raise IntegrityError(f"bug pattern {pattern!r} mapped to two categories")

    return grouped(tuple(sorted(revisions, key=lambda r: r.order_key)),
                   observations, changes, attributes)


def _require(rec: dict, name: str):
    if name not in rec:
        raise KeyError(f"missing field {name!r}")
    return rec[name]


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def _optional_string(value, name: str) -> str | None:
    return None if value is None else _string(value, name)


def _integer(value, name: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if not -(2 ** 63) <= value <= 2 ** 63 - 1:
        raise ValueError(f"{name} must fit in a signed 64-bit integer")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _parse_revision(rec: dict) -> RevisionMeta:
    return RevisionMeta(
        id=_string(_require(rec, "id"), "id"),
        timestamp=_integer(_require(rec, "timestamp"), "timestamp"),
        parent=_optional_string(rec.get("parent"), "parent"),
        branch=_string(rec.get("branch", "main"), "branch"),
    )


def _parse_key(rec: dict) -> WarningKey:
    entity = _require(rec, "entity")
    if not isinstance(entity, dict):
        raise ValueError("entity must be an object")
    return WarningKey(
        bug_pattern=_string(_require(rec, "bug_pattern"), "bug_pattern"),
        file_path=_string(_require(rec, "file_path"), "file_path"),
        package=_string(_require(entity, "package"), "package"),
        class_name=_string(_require(entity, "class"), "class"),
        method=_optional_string(entity.get("method"), "method"),
    )


def _parse_warning(rec: dict) -> tuple[str, WarningObservation]:
    priority = _integer(_require(rec, "priority"), "priority")
    if not 1 <= priority <= 3:
        raise ValueError("priority must be in 1..3")
    line = _integer(_require(rec, "line"), "line", 1)
    file_path = _string(_require(rec, "file_path"), "file_path")
    if not file_path:
        raise ValueError("file_path must be non-empty")
    revision = _string(_require(rec, "revision"), "revision")
    return revision, WarningObservation(
        key=_parse_key(rec),
        bug_category=_string(_require(rec, "bug_category"), "bug_category"),
        priority=priority,
        line=line,
    )


def _parse_change(rec: dict) -> tuple[str, FileChangeRecord]:
    change_kind = _require(rec, "change_kind")
    if change_kind not in CHANGE_KINDS:
        raise ValueError("unknown change_kind")
    old_path = _optional_string(rec.get("old_path"), "old_path")
    if change_kind == "Rename" and not old_path:
        raise ValueError("Rename record requires old_path")
    if change_kind != "Rename" and old_path is not None:
        raise ValueError("only a Rename record carries old_path")
    lines_added = _integer(rec.get("lines_added", 0), "lines_added", 0)
    lines_deleted = _integer(rec.get("lines_deleted", 0), "lines_deleted", 0)
    revision = _string(_require(rec, "revision"), "revision")
    file_path = _string(_require(rec, "file_path"), "file_path")
    if change_kind == "Rename" and old_path == file_path:
        raise ValueError("Rename old_path equals file_path")
    return revision, FileChangeRecord(
        file_path=file_path,
        kind=change_kind,
        lines_added=lines_added,
        lines_deleted=lines_deleted,
        author=_string(rec.get("author", ""), "author"),
        old_path=old_path,
    )


def _parse_attrs(rec: dict) -> tuple[str, WarningKey, StaticAttributes]:
    key = _parse_key(rec)
    visibility = _require(rec, "method_visibility")
    if visibility not in VISIBILITIES:
        raise ValueError("unknown method_visibility")
    ratio = _require(rec, "comment_code_ratio")
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)):
        raise ValueError("comment_code_ratio must be a number")
    try:
        ratio = float(ratio)
    except OverflowError:  # a JSON integer too large for a float
        raise ValueError("comment_code_ratio must be finite") from None
    if ratio < 0 or not math.isfinite(ratio):
        raise ValueError("comment_code_ratio must be finite and >= 0")
    attrs = StaticAttributes(
        comment_code_ratio=ratio,
        method_depth=_integer(_require(rec, "method_depth"), "method_depth", 0),
        file_depth=_integer(_require(rec, "file_depth"), "file_depth", 0),
        methods_in_file=_integer(_require(rec, "methods_in_file"), "methods_in_file", 0),
        classes_in_package=_integer(_require(rec, "classes_in_package"), "classes_in_package", 0),
        parameter_signature=_string(_require(rec, "parameter_signature"), "parameter_signature"),
        method_visibility=visibility,
    )
    return _string(_require(rec, "revision"), "revision"), key, attrs


def reference_emit(history: ProjectHistory):
    """Ledger lines as a dict per record through ``json.dumps(sort_keys=True)``,
    in the emitter's total order, kept as the reference for ``emit_ledger``."""
    order = {rev.id: i for i, rev in enumerate(history.revisions)}
    history = FlatHistory.of(history)

    def key_fields(key: WarningKey) -> dict:
        return {"bug_pattern": key.bug_pattern, "file_path": key.file_path,
                "entity": {"package": key.package, "class": key.class_name,
                           "method": key.method}}

    for rev in history.revisions:
        yield json.dumps({"kind": "revision", "id": rev.id, "timestamp": rev.timestamp,
                          "parent": rev.parent, "branch": rev.branch}, sort_keys=True)
    for rev_id, obs in sorted(history.observations, key=lambda p: (
            order[p[0]], p[1].key.sort_key(), p[1].line, p[1].priority, p[1].bug_category,
            p[1].key.method is not None)):
        yield json.dumps({"kind": "warning", "revision": rev_id, **key_fields(obs.key),
                          "bug_category": obs.bug_category, "priority": obs.priority,
                          "line": obs.line}, sort_keys=True)
    for rev_id, rec in sorted(history.changes, key=lambda p: (
            order[p[0]], p[1].file_path, p[1].kind, p[1].author, p[1].lines_added,
            p[1].lines_deleted, p[1].old_path or "")):
        payload = {"kind": "change", "revision": rev_id, "file_path": rec.file_path,
                   "change_kind": rec.kind, "lines_added": rec.lines_added,
                   "lines_deleted": rec.lines_deleted, "author": rec.author}
        if rec.old_path is not None:
            payload["old_path"] = rec.old_path
        yield json.dumps(payload, sort_keys=True)
    for (rev_id, key), attrs in sorted(history.attributes.items(), key=lambda kv: (
            order[kv[0][0]], kv[0][1].sort_key(), kv[0][1].method is not None)):
        yield json.dumps({"kind": "attrs", "revision": rev_id, **key_fields(key),
                          "comment_code_ratio": attrs.comment_code_ratio,
                          "method_depth": attrs.method_depth, "file_depth": attrs.file_depth,
                          "methods_in_file": attrs.methods_in_file,
                          "classes_in_package": attrs.classes_in_package,
                          "parameter_signature": attrs.parameter_signature,
                          "method_visibility": attrs.method_visibility}, sort_keys=True)
