"""Brute-force oracle for file identity: one revision at a time.

``ProjectHistory.resolve_path`` and ``file_chain`` must agree with these
walkers for every path, start and end. The walkers read the raw change set
at each revision and share no index with the code under test.
"""

from __future__ import annotations


def _changes_at(history, idx, path):
    rev = history.revisions[idx].id
    return [rec for rec in history.changes
            if rec.revision == rev and path in (rec.file_path, rec.old_path)]


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
    ``at_idx`` collecting the current path's records. An Add there is the
    file's birth and ends the walk; else a Rename into the path contributes
    only its Rename records and moves the walk to the old path (the last
    old path in sort order when several compete)."""
    cur, records = path, []
    for idx in range(at_idx, -1, -1):
        here = [rec for rec in _changes_at(history, idx, cur) if rec.file_path == cur]
        if any(rec.kind == "Add" for rec in here):
            return idx, _ordered(records + [(idx, rec) for rec in here])
        renames = [rec for rec in here if rec.kind == "Rename"]
        records += [(idx, rec) for rec in (renames or here)]
        if renames:
            cur = max(rec.old_path for rec in renames)
    return None, _ordered(records)


def _ordered(records):
    return sorted(records, key=lambda t: (t[0], repr(t[1])))
