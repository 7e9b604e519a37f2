"""Brute-force oracle for file identity: one revision at a time.

``ProjectHistory.resolve_path`` and ``file_chain`` must agree with these
walkers for every path, start and end, and ``history.build_universe`` with
``walk_warnings`` at every cut. The walkers read the raw change and
observation sets at each revision and share no index with the code under
test.
"""

from __future__ import annotations

from warnlab.history import WarningKey


def _changes_at(history, idx, path):
    return [rec for rec in history.changes_at[idx] if path in (rec.file_path, rec.old_path)]


def walk_forward(history, path, start_idx, end_idx):
    """``resolve_path``: step through each revision after ``start_idx``; a
    Delete of the current path ends the walk, else a Rename out of it moves
    the file (to the first target in sort order when several compete)."""
    cur = path
    for idx in range(start_idx + 1, end_idx + 1):
        here = _changes_at(history, idx, cur)
        if any(rec.kind == "Delete" and rec.file_path == cur for rec in here):
            return cur, idx
        targets = sorted(rec.file_path for rec in here
                         if rec.kind == "Rename" and rec.old_path == cur)
        if targets:
            cur = targets[0]
    return cur, None


def walk_backward(history, path, at_idx):
    """``file_chain`` as ``(birth_idx, sorted records)``: step back from
    ``at_idx`` collecting the current path's records but its Deletes. An Add
    there is the file's birth and ends the walk; else a Rename into the path
    contributes only its Rename records and moves the walk to the old path
    (the last old path in sort order when several compete); else a Delete of
    the path or a Rename away from it ends the walk, since the file there
    started after it."""
    cur, records = path, []
    for idx in range(at_idx, -1, -1):
        changes = _changes_at(history, idx, cur)
        here = [rec for rec in changes if rec.file_path == cur and rec.kind != "Delete"]
        if any(rec.kind == "Add" for rec in here):
            return idx, _ordered(records + [(idx, rec) for rec in here])
        renames = [rec for rec in here if rec.kind == "Rename"]
        records += [(idx, rec) for rec in (renames or here)]
        if renames:
            cur = max(rec.old_path for rec in renames)
        elif any(rec.kind == "Delete" and rec.file_path == cur
                 or rec.kind == "Rename" and rec.old_path == cur for rec in changes):
            break
    return None, _ordered(records)


def _ordered(records):
    return sorted(records, key=lambda t: (t[0], repr(t[1])))


def walk_warnings(history, cut):
    """``build_universe(truncate_history(history, cut), cut)`` as
    ``{(key, deleted_idx): (presence, first_seen_idx, closed_idx)}``.

    Steps through each revision up to ``cut`` with the live files, each a
    table of warnings, by path. A revision's changes act first, on the paths
    the files had before it: a Delete of a file's path ends the file, else a
    Rename out of it moves the file (to the first target in sort order), and
    files that land on one path merge. Then each observation joins the live
    file at its path, a new file when there is none, as the warning of its
    (pattern, package, class, method). A warning is closed at the first
    revision at which its file was alive and it was not observed.
    """
    files, ended = {}, []  # path -> {identity: (presence, alive)}; (path, idx, table)
    for idx in range(cut + 1):
        moved = {}
        for path, table in files.items():
            here = _changes_at(history, idx, path)
            if any(rec.kind == "Delete" and rec.file_path == path for rec in here):
                ended.append((path, idx, table))
                continue
            targets = sorted(rec.file_path for rec in here
                             if rec.kind == "Rename" and rec.old_path == path)
            into = moved.setdefault(targets[0] if targets else path, {})
            for ident, (presence, alive) in table.items():
                mine = into.setdefault(ident, (set(), set()))
                mine[0].update(presence)
                mine[1].update(alive)
        files = moved
        for obs in history.warnings_at[idx]:
            k = obs.key
            ident = (k.bug_pattern, k.package, k.class_name, k.method)
            files.setdefault(k.file_path, {}).setdefault(ident, (set(), set()))[0].add(idx)
        for table in files.values():
            for _presence, alive in table.values():
                alive.add(idx)
    out = {}
    for path, end, table in [*ended, *((path, None, table) for path, table in files.items())]:
        for (pattern, package, cls, method), (presence, alive) in table.items():
            key = WarningKey(pattern, path, package, cls, method)
            closed = next((i for i in sorted(alive) if i not in presence), None)
            out[(key, end)] = (frozenset(presence), min(presence), closed)
    return out
