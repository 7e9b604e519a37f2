"""The flat-set layout of a project history, kept as the reference for the
revision-indexed ``warnlab.history.ProjectHistory``.

``ProjectHistory`` holds its records grouped by revision index, and every
derived index reads a group by its index. ``FlatHistory`` keeps the layout
it replaced: one set of ``(revision id, observation)`` pairs, one of
``(revision id, change record)`` pairs and one attrs dict keyed by
(revision id, key), with builders of the four derived indexes that map each
pair's revision id back to its index, and a cut that filters the flat pairs
by revision id. File identity (``range_ends``,
``resolve_path``) and the universe run ``ProjectHistory``'s own code over
these indexes, so a grouped history and its cuts must agree with the
reference on every index and every universe.

``grouped`` is the bridge from flat pairs to the grouped layout that
hand-built test histories use; ``FlatHistory.of`` goes the other way.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from warnlab.history import (
    FileChangeRecord,
    ProjectHistory,
    RevisionMeta,
    StaticAttributes,
    WarningKey,
    WarningObservation,
    build_universe,
)


def grouped(revisions, observations=(), changes=(), attributes=None) -> ProjectHistory:
    """The ``ProjectHistory`` of flat ``(revision id, record)`` pairs: each
    record goes to the group of its revision's index in ``revisions``
    (sorted by (timestamp, id))."""
    order = {rev.id: i for i, rev in enumerate(revisions)}
    warnings_at = [set() for _ in revisions]
    changes_at = [set() for _ in revisions]
    attrs_at = [{} for _ in revisions]
    for rev_id, obs in observations:
        warnings_at[order[rev_id]].add(obs)
    for rev_id, rec in changes:
        changes_at[order[rev_id]].add(rec)
    for (rev_id, key), attrs in (attributes or {}).items():
        attrs_at[order[rev_id]][key] = attrs
    return ProjectHistory(tuple(revisions), tuple(map(frozenset, warnings_at)),
                          tuple(map(frozenset, changes_at)), tuple(attrs_at))


@dataclass
class FlatHistory:
    revisions: tuple[RevisionMeta, ...]
    observations: frozenset[tuple[str, WarningObservation]] = frozenset()
    changes: frozenset[tuple[str, FileChangeRecord]] = frozenset()
    attributes: dict[tuple[str, WarningKey], StaticAttributes] = field(default_factory=dict)

    @classmethod
    def of(cls, history: ProjectHistory) -> FlatHistory:
        """The flat pairs of a grouped history."""
        return cls(
            history.revisions,
            frozenset((rev.id, o) for rev, group in zip(history.revisions, history.warnings_at)
                      for o in group),
            frozenset((rev.id, c) for rev, group in zip(history.revisions, history.changes_at)
                      for c in group),
            {(rev.id, key): attrs
             for rev, group in zip(history.revisions, history.attrs_at)
             for key, attrs in group.items()},
        )

    def cut(self, rev_id: str) -> FlatHistory:
        """The set-filter cut: every pair whose revision is at or before
        ``rev_id``'s index."""
        keep = {rev.id for rev in self.revisions[: self.rev_index(rev_id) + 1]}
        return FlatHistory(
            revisions=tuple(r for r in self.revisions if r.id in keep),
            observations=frozenset(p for p in self.observations if p[0] in keep),
            changes=frozenset(p for p in self.changes if p[0] in keep),
            attributes={(rev, key): attrs for (rev, key), attrs in self.attributes.items()
                        if rev in keep},
        )

    @cached_property
    def _order(self) -> dict[str, int]:
        return {rev.id: i for i, rev in enumerate(self.revisions)}

    rev_index = ProjectHistory.rev_index

    # -- the four derived indexes, built from the flat records --------------

    @cached_property
    def key_presence(self) -> dict[WarningKey, tuple[int, ...]]:
        acc: dict[WarningKey, set[int]] = defaultdict(set)
        for rev_id, obs in self.observations:
            acc[obs.key].add(self.rev_index(rev_id))
        return {k: tuple(sorted(v)) for k, v in acc.items()}

    @cached_property
    def pattern_categories(self) -> dict[str, str]:
        return {obs.key.bug_pattern: obs.bug_category for _, obs in self.observations}

    @cached_property
    def package_paths(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = defaultdict(set)
        for _, obs in self.observations:
            acc[obs.key.package].add(obs.key.file_path)
        return {pkg: frozenset(paths) for pkg, paths in acc.items()}

    @cached_property
    def path_events(self) -> dict[str, tuple[tuple[int, FileChangeRecord], ...]]:
        acc: dict[str, list[tuple[int, FileChangeRecord]]] = defaultdict(list)
        for rev_id, rec in self.changes:
            event = (self.rev_index(rev_id), rec)
            acc[rec.file_path].append(event)
            if rec.kind == "Rename":
                acc[rec.old_path].append(event)
        return {
            path: tuple(sorted(events, key=lambda e: (
                e[0], e[1].kind, e[1].file_path, e[1].old_path or "", e[1].author)))
            for path, events in acc.items()
        }

    # -- file identity and the universe: ProjectHistory's code --------------

    range_ends = ProjectHistory.range_ends
    resolve_path = ProjectHistory.resolve_path

    @cached_property
    def universe(self):
        return build_universe(self, len(self.revisions) - 1)


INDEXES = ("key_presence", "pattern_categories", "package_paths", "path_events")
