"""Warning identity and its labels: the names every layer shares.

This is the bottom module of the package: it imports only the standard
library. The ledger layers (``history``, ``oracle``) and the feature schema
(``schema``) build on these names, so the ledger commands load no feature
vector or matrix codec, and ``fit`` and ``eval`` no ledger code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


@dataclass(frozen=True)
class WarningKey:
    """Cross-revision identity of a warning.

    Identity is (bug pattern, file path, entity signature); the line number
    is deliberately excluded so that a warning keeps its key while code moves
    around inside a file. Keys do change across file renames;
    ``history.build_universe`` bridges those via the rename chain.

    A key is hashed once: ``__hash__`` reads the cached hash of its five
    fields, the value the generated dataclass hash would compute each time.
    """

    bug_pattern: str
    file_path: str
    package: str
    class_name: str
    method: str | None = None

    @cached_property
    def _hash(self) -> int:
        return hash((self.bug_pattern, self.file_path, self.package,
                     self.class_name, self.method))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple[str, str, str, str, str]:
        return (self.bug_pattern, self.file_path, self.package,
                self.class_name, self.method or "")

    def __lt__(self, other: "WarningKey") -> bool:
        return self.sort_key() < other.sort_key()

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
