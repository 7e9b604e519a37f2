"""Seeded synthetic project histories with planted ground truth.

The generator lays revisions on a fixed 30-day grid and plants warnings
whose true nature (actionable or false alarm) is recorded in a truth
sidecar, independent of what the closed-warning heuristic will later claim.
Actionable warnings close a configurable delay after they appear; false
alarms stay open unless an incidental code change or a file deletion closes
them, which is exactly how the heuristic gets fooled. Warnings opened
before the train anchor create train/test duplication; ``leak_signal``
isolates each warning in its own file so the only class-separating signal
is closure by the reference revision.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from .errors import ValidationError, field_types, read_fields
from .history import (
    SECONDS_PER_DAY,
    FileChangeRecord,
    ProjectHistory,
    RevisionMeta,
    StaticAttributes,
    WarningKey,
    WarningObservation,
    key_json,
)

REVISION_INTERVAL_DAYS = 30
EPOCH_START = 1_400_000_000  # fixed origin so ledgers are reproducible

CATEGORIES = ("STYLE", "CORRECTNESS", "PERFORMANCE", "BAD_PRACTICE")
PATTERNS_PER_CATEGORY = 5
SIGNATURES = ("()V", "(I)V", "(J)Z", "(Ljava/lang/String;)V",
              "(Ljava/lang/Object;)Z", "([B)I", "(II)J", "(D)D")
AUTHORS = tuple(f"dev{i:02d}" for i in range(1, 21))
VISIBILITY_CHOICES = ("public", "protected", "package", "private")

CLOSURE_FIX = "fix"
CLOSURE_INCIDENTAL = "incidental"
CLOSURE_FILE_DELETED = "file_deleted"

# Upper bounds on a config, since generate builds every file and warning up
# front. Each revision plants warnings_per_revision warnings and each lives
# at most n_revisions revisions, so warnings_per_revision * n_revisions**2
# bounds the warning lines; a revision without warnings still writes a
# line, so the bound counts at least one warning per revision.
MAX_FILES = 10 ** 6
MAX_LEDGER_LINES = 10 ** 8


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_files: int = 40
    n_revisions: int = 40
    warnings_per_revision: int = 10
    true_actionable_rate: float = 0.5
    fix_delay_days: tuple[float, float] = (60.0, 400.0)
    incidental_close_rate: float = 0.0
    file_delete_rate: float = 0.0
    duplication_pressure: float = 0.5
    leak_signal: bool = False

    # Direct construction runs these range checks too, so ``from_json`` reads
    # the rates by the plain ``float`` kind, not by ``Rate``.
    def __post_init__(self):
        if self.n_revisions < 2:
            raise ValidationError("need at least 2 revisions")
        if self.n_files < 1:
            raise ValidationError("need at least 1 file")
        if self.warnings_per_revision < 0:
            raise ValidationError("warnings_per_revision must be >= 0")
        if self.n_files > MAX_FILES:
            raise ValidationError(f"n_files must be <= {MAX_FILES}, got {self.n_files}")
        lines = max(self.warnings_per_revision, 1) * self.n_revisions ** 2
        if lines > MAX_LEDGER_LINES:
            raise ValidationError(
                f"max(warnings_per_revision, 1) * n_revisions**2 must be <= "
                f"{MAX_LEDGER_LINES}, got {lines}")
        for name in ("true_actionable_rate", "incidental_close_rate",
                     "file_delete_rate", "duplication_pressure"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        lo, hi = self.fix_delay_days
        if not 0 <= lo <= hi < math.inf:  # also refuses NaN
            raise ValidationError("fix_delay_days must satisfy 0 <= min <= max < inf")

    def to_json(self) -> dict:
        return {**asdict(self), "fix_delay_days": list(self.fix_delay_days)}

    @classmethod
    def from_json(cls, data) -> "SynthConfig":
        """Decode ``to_json`` output; a setting that is unknown, missing,
        ill-kinded or refused by ``__post_init__`` raises ``ValidationError``."""
        read_fields(data, "synth config", {"seed": int})  # an object, with a seed
        settings = read_fields(data, "synth config", {
            name: field_type for name, field_type in field_types(cls).items() if name in data})
        try:
            return cls(**{**data, **settings})
        except TypeError as exc:  # an unknown setting
            raise ValidationError(f"bad synth config: {exc}") from None


@dataclass(frozen=True)
class TruthRecord:
    nature: str  # "actionable" | "false_alarm"
    closure_kind: str | None  # fix | incidental | file_deleted | None (still open)
    closed_day: float | None  # day offset of the closing revision


@dataclass(frozen=True)
class Anchors:
    train: str
    test: str
    reference: str


@dataclass(frozen=True)
class SynthResult:
    history: ProjectHistory
    truth: dict[WarningKey, TruthRecord]
    anchors: Anchors
    config: SynthConfig

    def truth_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "anchors": asdict(self.anchors),
            "warnings": [
                {**key_json(key), "nature": rec.nature, "closure_kind": rec.closure_kind,
                 "closed_day": rec.closed_day}
                for key, rec in sorted(self.truth.items(), key=lambda kv: kv[0].sort_key())
            ],
        }


@dataclass
class _File:
    index: int
    path: str
    package: str
    class_name: str
    created_idx: int | None = None
    deleted_idx: int | None = None
    used_patterns: set[str] = field(default_factory=set)
    authors: tuple[str, ...] = ()


# The train anchor sits early in the timeline on purpose: warnings born
# before it span a narrow band of days, which leaves room for fix delays
# that keep old warnings open through the test anchor yet closed by the
# reference at the end of the timeline.
def train_anchor_index(n_revisions: int) -> int:
    return max(1, n_revisions // 6)


def test_anchor_index(n_revisions: int) -> int:
    return train_anchor_index(n_revisions) + max(1, n_revisions // 20)


def generate(config: SynthConfig) -> SynthResult:
    """Produce a deterministic history, truth map, and anchor revisions.

    Warnings are born up to the test anchor: a ``duplication_pressure``
    share opens at or before the train anchor (the dups), the rest strictly
    between the train and test anchors (the fresh test material). The tail
    of the timeline past the test anchor exists to serve as reference
    lookahead.
    """
    rng = random.Random(config.seed)
    n = config.n_revisions
    train_idx = train_anchor_index(n)
    test_idx = test_anchor_index(n)
    if test_idx >= n - 1:
        raise ValidationError("n_revisions too small to fit train/test/reference anchors")

    revisions = tuple(
        RevisionMeta(
            id=f"r{idx:04d}",
            timestamp=EPOCH_START + idx * REVISION_INTERVAL_DAYS * SECONDS_PER_DAY,
            parent=f"r{idx - 1:04d}" if idx else None,
        )
        for idx in range(n)
    )

    patterns = [
        (f"{cat}_{i:02d}", cat) for cat in CATEGORIES for i in range(PATTERNS_PER_CATEGORY)
    ]

    files: list[_File] = []

    def new_file() -> _File:
        idx = len(files)
        package = f"com.synth.p{idx // 8:03d}"
        f = _File(
            index=idx,
            path=f"src/{package.replace('.', '/')}/Class{idx:04d}.java",
            package=package,
            class_name=f"Class{idx:04d}",
            authors=tuple(rng.sample(AUTHORS, k=rng.randint(1, 3))),
        )
        files.append(f)
        return f

    base_pool = [new_file() for _ in range(config.n_files)]

    total_warnings = config.warnings_per_revision * n
    plan = []  # (file, pattern, category, born_idx, nature, close_day or None, kind)
    last_born: dict[int, int] = {}
    for _ in range(total_warnings):
        born_is_old = rng.random() < config.duplication_pressure
        born_idx = (
            rng.randint(0, train_idx) if born_is_old
            else rng.randint(train_idx + 1, test_idx)
        )
        if config.leak_signal or not born_is_old:
            # Warnings born after the train anchor open in code added after
            # it; with leak_signal every warning gets a file of its own.
            file = new_file()
        else:
            file = rng.choice(base_pool)
            if len(file.used_patterns) >= len(patterns):
                file = new_file()
        available = [p for p in patterns if p[0] not in file.used_patterns]
        pattern, category = rng.choice(available)
        file.used_patterns.add(pattern)
        if file.created_idx is None or born_idx < file.created_idx:
            file.created_idx = born_idx
        last_born[file.index] = max(last_born.get(file.index, 0), born_idx)

        nature = "actionable" if rng.random() < config.true_actionable_rate else "false_alarm"
        close_day: float | None = None
        kind: str | None = None
        born_day = born_idx * REVISION_INTERVAL_DAYS
        if nature == "actionable":
            close_day = born_day + rng.uniform(*config.fix_delay_days)
            kind = CLOSURE_FIX
        elif config.incidental_close_rate and rng.random() < config.incidental_close_rate:
            close_day = rng.uniform(born_day, (n - 1) * REVISION_INTERVAL_DAYS)
            kind = CLOSURE_INCIDENTAL
        plan.append([file, pattern, category, born_idx, nature, close_day, kind])

    # File deletions close everything inside the file. Deletions are only
    # scheduled after the file's last warning birth so the ledger never
    # shows observations in a deleted file.
    for file in files:
        if file.created_idx is None:
            continue
        earliest = max(file.created_idx, last_born.get(file.index, file.created_idx)) + 1
        if earliest <= n - 1 and rng.random() < config.file_delete_rate:
            file.deleted_idx = rng.randint(earliest, n - 1)

    # The history's records, grouped by revision index.
    warnings_at: list[list[WarningObservation]] = [[] for _ in revisions]
    changes_at: list[list[FileChangeRecord]] = [[] for _ in revisions]
    attrs_at: list[dict[WarningKey, StaticAttributes]] = [{} for _ in revisions]
    truth: dict[WarningKey, TruthRecord] = {}
    change_marks: dict[tuple[int, int], None] = {}  # (file index, revision idx)

    for file, pattern, category, born_idx, nature, close_day, kind in plan:
        if close_day is None:
            close_idx = n
        else:
            close_idx = math.ceil(close_day / REVISION_INTERVAL_DAYS)
        if file.deleted_idx is not None and file.deleted_idx <= close_idx:
            close_idx = file.deleted_idx
            if close_idx > born_idx:
                kind = CLOSURE_FILE_DELETED
                close_day = close_idx * REVISION_INTERVAL_DAYS
        if close_idx <= born_idx:
            # Closure scheduled before the warning could ever be observed:
            # shift it to the next revision so the warning exists at all.
            close_idx = born_idx + 1
            close_day = close_idx * REVISION_INTERVAL_DAYS
        last_idx = min(close_idx, n)

        method = f"m{rng.randint(1, 400)}()" if rng.random() < 0.8 else None
        line = rng.randint(10, 500)
        priority = rng.randint(1, 3)
        attrs = StaticAttributes(
            comment_code_ratio=round(rng.uniform(0.0, 1.0), 6),
            method_depth=rng.randint(1, 6),
            file_depth=file.path.count("/"),
            methods_in_file=rng.randint(1, 40),
            classes_in_package=rng.randint(1, 30),
            parameter_signature=rng.choice(SIGNATURES),
            method_visibility=rng.choice(VISIBILITY_CHOICES),
        )
        key = WarningKey(bug_pattern=pattern, file_path=file.path, package=file.package,
                         class_name=file.class_name, method=method)
        observation = WarningObservation(key, category, priority, line)
        for idx in range(born_idx, last_idx):
            warnings_at[idx].append(observation)
            attrs_at[idx][key] = attrs
        change_marks.setdefault((file.index, born_idx), None)
        if close_idx < n and kind != CLOSURE_FILE_DELETED:
            change_marks.setdefault((file.index, close_idx), None)
        recorded_close = close_day if close_idx < n else None
        truth[key] = TruthRecord(
            nature=nature,
            closure_kind=kind if recorded_close is not None else None,
            closed_day=recorded_close,
        )

    def change(file: _File, idx: int, kind: str, lines_added: int, lines_deleted: int) -> None:
        # The author is drawn after both line counts.
        changes_at[idx].append(FileChangeRecord(file.path, kind, lines_added, lines_deleted,
                                                rng.choice(file.authors)))

    for file in files:
        if file.created_idx is None:
            continue
        change(file, file.created_idx, "Add", rng.randint(50, 500), 0)
        if file.deleted_idx is not None:
            change(file, file.deleted_idx, "Delete", 0, rng.randint(50, 500))
    for (file_idx, rev_idx) in sorted(change_marks):
        file = files[file_idx]
        if rev_idx == file.created_idx or rev_idx == file.deleted_idx:
            continue
        change(file, rev_idx, "Modify", rng.randint(1, 200), rng.randint(0, 100))

    history = ProjectHistory(
        revisions=revisions,
        warnings_at=tuple(map(frozenset, warnings_at)),
        changes_at=tuple(map(frozenset, changes_at)),
        attrs_at=tuple(attrs_at),
    )
    anchors = Anchors(
        train=revisions[train_idx].id,
        test=revisions[test_idx].id,
        reference=revisions[-1].id,
    )
    return SynthResult(history=history, truth=truth, anchors=anchors, config=config)


def write_truth(result: SynthResult, fp) -> None:
    fp.write(json.dumps(result.truth_json(), indent=2, sort_keys=True) + "\n")
