"""Warning identity and its labels: the names every layer shares.

This is the bottom module of the package: it imports only the standard
library. The ledger layers (``history``, ``oracle``) and the feature schema
(``schema``) build on these names, so the ledger commands load no feature
vector or matrix codec, and ``fit`` and ``eval`` no ledger code.

A ``WarningKey`` is its field tuple, a ``typing.NamedTuple``: it equals the
tuple of its five fields and hashes like it, in C, so a dict or set of keys
costs no Python call per probe. Only its order is its own.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence


class WarningKey(NamedTuple):
    """Cross-revision identity of a warning.

    Identity is (bug pattern, file path, entity signature); the line number
    is deliberately excluded so that a warning keeps its key while code moves
    around inside a file. Keys do change across file renames;
    ``history.build_universe`` bridges those via the rename chain.

    All four comparisons order keys by ``sort_key``, which reads a missing
    method as "", where plain tuple order would compare None with a string
    and raise.
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

    def __le__(self, other: "WarningKey") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "WarningKey") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "WarningKey") -> bool:
        return self.sort_key() >= other.sort_key()

    def with_path(self, path: str) -> "WarningKey":
        return WarningKey(self.bug_pattern, path, self.package,
                          self.class_name, self.method)


# A key as CSV cells (``labels.csv`` and the feature matrices): the first five
# columns of a row. A CSV cell cannot hold null, so a class-level key's method
# is written as "" and read back as None: a key whose method is the empty
# string is the one key that does not survive the round trip.

KEY_COLUMNS = ("bug_pattern", "file_path", "entity_package", "entity_class", "entity_method")


def key_row(key: WarningKey) -> list[str]:
    """The ``KEY_COLUMNS`` cells of a key."""
    return [key.bug_pattern, key.file_path, key.package, key.class_name, key.method or ""]


def key_from_row(cells: Sequence[str]) -> WarningKey:
    """The key held in a row's first five cells, in ``KEY_COLUMNS`` order."""
    return WarningKey(cells[0], cells[1], cells[2], cells[3], cells[4] or None)


class Label(str, enum.Enum):
    ACTIONABLE = "Actionable"
    FALSE_ALARM = "FalseAlarm"
    UNKNOWN = "Unknown"
