"""Brute-force oracle for the golden features that depend on whole populations.

Per target warning, independently of every other target, it rebuilds each
population, scans the universe for the lifetime mean and scans the change
records for package LOC. ``extract_golden`` must agree with it bit for bit.
"""

from __future__ import annotations

import math

from warnlab import features as ft
from warnlab.history import SECONDS_PER_DAY as DAY
from warnlab.history import truncate_history

from history_reference import FlatHistory


def reference_golden(history, at_rev, mode, ref_rev, vectors):
    """``vectors`` with every population-derived field and flag recomputed."""
    at_idx = history.rev_index(at_rev)
    base = truncate_history(history, at_rev)
    flat = FlatHistory.of(base)
    universe = ft.build_universe(base, at_idx)
    at_time = base.revisions[at_idx].timestamp
    ref_keys = set(history.keys_at(ref_rev)) if mode.is_leaky else None
    members = []
    for canon in universe.values():
        present = at_idx in canon.presence
        if mode.is_leaky and present:
            ref_idx = history.rev_index(ref_rev)
            path, deleted = history.resolve_path(canon.member_key.file_path, at_idx, ref_idx)
            gone = canon.member_key.with_path(path) not in ref_keys
            members.append((canon, deleted is not None or gone))
        elif not mode.is_leaky and (base.revisions[canon.first_seen_idx].timestamp
                                    >= at_time - mode.window_days * DAY):
            members.append((canon, not present))

    out = {}
    for key, vec in vectors.items():
        canon = universe[(key, None)]
        k = canon.member_key

        def pop(match):  # the population's (closed, total)
            flags = [closed for c, closed in members if match(c)]
            return sum(flags), len(flags)

        file_pop = pop(lambda c: c.member_key.file_path == k.file_path)
        method_pop = file_pop if k.method is None else pop(
            lambda c: (c.member_key.file_path, c.member_key.method) == (k.file_path, k.method))
        type_pop = pop(lambda c: c.category == canon.category)
        pattern_pop = pop(lambda c: c.member_key.bug_pattern == k.bug_pattern)
        per_pattern = {c.member_key.bug_pattern: pop(
                           lambda o, p=c.member_key.bug_pattern: o.member_key.bug_pattern == p)
                       for c, _ in members if c.category == canon.category}
        durations = []
        for o in universe.values():
            if o.category == canon.category and o.closed_idx is not None and o.closed_idx <= at_idx:
                span = (base.revisions[o.closed_idx].timestamp
                        - base.revisions[o.first_seen_idx].timestamp)
                durations.append(span / DAY)
        paths = {o.key.file_path for _, o in flat.observations if o.key.package == k.package}
        loc_pkg = sum(rec.lines_added for rev_id, rec in flat.changes
                      if rec.file_path in paths and base.rev_index(rev_id) <= at_idx
                      and base.revisions[base.rev_index(rev_id)].timestamp > at_time - 90 * DAY)

        raised = {
            ft.FLAG_FILE_CREATION_INFERRED: ft.FLAG_FILE_CREATION_INFERRED in vec.flags,
            ft.FLAG_EMPTY_FILE_POPULATION: not file_pop[1],
            ft.FLAG_METHOD_FILE_FALLBACK: k.method is None,
            ft.FLAG_EMPTY_METHOD_POPULATION: not method_pop[1],
            ft.FLAG_EMPTY_TYPE_POPULATION: not type_pop[1],
            ft.FLAG_EMPTY_PATTERN_POPULATION: not pattern_pop[1],
            ft.FLAG_EMPTY_CATEGORY: not per_pattern,
            ft.FLAG_SINGLE_PATTERN_CATEGORY: len(per_pattern) == 1,
            ft.FLAG_NO_CLOSED_LIFETIME: not durations,
        }
        out[key] = vec._replace(
            warning_context_in_method=ft.warning_context(*method_pop),
            warning_context_in_file=ft.warning_context(*file_pop),
            warning_context_for_warning_type=ft.warning_context(*type_pop),
            defect_likelihood_for_warning_pattern=ft.defect_likelihood(*pattern_pop),
            discretization_of_defect_likelihood=ft.discretized_defect_likelihood(per_pattern),
            average_lifetime_for_warning_type=(
                math.fsum(durations) / len(durations) if durations else 0.0),
            warning_lifetime_revisions=sum(1 for idx in canon.presence if idx <= at_idx),
            loc_added_in_package_past_3_months=loc_pkg,
            flags=frozenset(flag for flag, on in raised.items() if on),
        )
    return out
