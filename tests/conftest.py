"""Shared ledger-building helpers for the test suite."""

from __future__ import annotations

import json

import pytest

from warnlab.history import ingest_ledger

DAY = 86400
EPOCH = 1_400_000_000

# The benchmark's three shapes (files, revisions, warnings per revision).
BENCH_SHAPES = {"paper-audit": (48, 48, 12), "deep-history": (40, 108, 2),
                "wide-snapshot": (120, 18, 52)}


def rev_line(rid: str, day: int, parent: str | None = None, branch: str = "main") -> str:
    return json.dumps({
        "kind": "revision", "id": rid, "timestamp": EPOCH + day * DAY,
        "parent": parent, "branch": branch,
    })


def warn_line(
    rid: str,
    path: str = "src/a/Foo.java",
    pattern: str = "NP_NULL_DEREF",
    category: str = "CORRECTNESS",
    priority: int = 2,
    package: str = "com.a",
    cls: str = "Foo",
    method: str | None = None,
    line: int = 10,
) -> str:
    return json.dumps({
        "kind": "warning", "revision": rid, "file_path": path,
        "bug_pattern": pattern, "bug_category": category, "priority": priority,
        "entity": {"package": package, "class": cls, "method": method},
        "line": line,
    })


def change_line(
    rid: str,
    path: str,
    kind: str,
    lines_added: int = 0,
    lines_deleted: int = 0,
    author: str = "alice",
    old_path: str | None = None,
) -> str:
    payload = {
        "kind": "change", "revision": rid, "file_path": path,
        "change_kind": kind, "lines_added": lines_added,
        "lines_deleted": lines_deleted, "author": author,
    }
    if old_path is not None:
        payload["old_path"] = old_path
    return json.dumps(payload)


def attrs_line(
    rid: str,
    path: str = "src/a/Foo.java",
    pattern: str = "NP_NULL_DEREF",
    package: str = "com.a",
    cls: str = "Foo",
    method: str | None = None,
    comment_code_ratio: float = 0.5,
    method_depth: int = 2,
    file_depth: int = 3,
    methods_in_file: int = 5,
    classes_in_package: int = 4,
    parameter_signature: str = "()V",
    method_visibility: str = "public",
) -> str:
    return json.dumps({
        "kind": "attrs", "revision": rid, "file_path": path, "bug_pattern": pattern,
        "entity": {"package": package, "class": cls, "method": method},
        "comment_code_ratio": comment_code_ratio, "method_depth": method_depth,
        "file_depth": file_depth, "methods_in_file": methods_in_file,
        "classes_in_package": classes_in_package,
        "parameter_signature": parameter_signature,
        "method_visibility": method_visibility,
    })


def make_history(lines):
    return ingest_ledger(lines)


@pytest.fixture
def four_rev_history():
    """Warning open at r1..r3, absent at r4, file alive throughout."""
    lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i > 1 else None)
             for i in range(1, 5)]
    lines.append(change_line("r1", "src/a/Foo.java", "Add", lines_added=100))
    for rid in ("r1", "r2", "r3"):
        lines.append(warn_line(rid))
    return make_history(lines)


@pytest.fixture
def re_added_history():
    """Foo.java added at r0 and warned at r0-r1, deleted at r2, re-added at r3
    and warned at r3-r4, with attrs at each warned revision; r5 is empty."""
    lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None) for i in range(6)]
    lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=40),
              change_line("r2", "src/a/Foo.java", "Delete"),
              change_line("r3", "src/a/Foo.java", "Add", lines_added=20)]
    for rid in ("r0", "r1", "r3", "r4"):
        lines += [warn_line(rid), attrs_line(rid)]
    return make_history(lines)
