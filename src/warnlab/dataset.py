"""Train/test dataset construction with and without deduplication.

The original construction takes every warning present at the training and
testing revisions, so a warning that stays open (or closes only after the
reference cut) lands in both splits with the same label. The corrected
construction keeps only warnings first observed after the training revision
in the test split. Both label via the closed-warning heuristic against the
reference revision and drop (but count) Unknowns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import OrderingError, ValidationError, read_json, typed_reader
from .keys import Label, WarningKey
from .schema import FeatureVector, LeakMode, MatrixRow, read_feature_matrix, write_feature_matrix

# The ledger layers (history, oracle, features) are imported inside the
# functions that build a dataset, so loading a saved one (``fit``, ``eval``)
# loads none of them.
if TYPE_CHECKING:
    from .history import ProjectHistory

# The label values a dataset holds, and so a model learns: Unknown-labeled
# warnings are dropped when a dataset is built.
DATASET_LABELS = frozenset((Label.ACTIONABLE.value, Label.FALSE_ALARM.value))


@dataclass(frozen=True)
class LabeledInstance:
    key: WarningKey
    features: FeatureVector
    label: Label
    origin_rev: str


@dataclass(frozen=True)
class DatasetMeta:
    train_rev: str
    test_rev: str
    ref_rev: str
    mode: LeakMode
    dedup: bool
    dropped_unknown_train: int = 0
    dropped_unknown_test: int = 0
    dedup_removed: int = 0
    notices: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "train_rev": self.train_rev,
            "test_rev": self.test_rev,
            "ref_rev": self.ref_rev,
            "mode": self.mode.mode,
            "window_days": self.mode.window_days,
            "dedup": self.dedup,
            "dropped_unknown_train": self.dropped_unknown_train,
            "dropped_unknown_test": self.dropped_unknown_test,
            "dedup_removed": self.dedup_removed,
            "notices": list(self.notices),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DatasetMeta":
        """Decode ``to_json`` output; a missing or mistyped field raises ``ValidationError``."""
        if not isinstance(data, dict):
            raise ValidationError("dataset metadata must be a JSON object")
        typed = typed_reader(data, "dataset metadata")
        notices = typed("notices", list)
        if not all(isinstance(n, str) for n in notices):
            raise ValidationError("dataset metadata notices must be strings")
        return cls(
            train_rev=typed("train_rev", str),
            test_rev=typed("test_rev", str),
            ref_rev=typed("ref_rev", str),
            mode=LeakMode(typed("mode", str), typed("window_days", (int, float))),
            dedup=typed("dedup", bool),
            dropped_unknown_train=typed("dropped_unknown_train", int),
            dropped_unknown_test=typed("dropped_unknown_test", int),
            dedup_removed=typed("dedup_removed", int),
            notices=tuple(notices),
        )


@dataclass(frozen=True)
class Dataset:
    train: tuple[LabeledInstance, ...]
    test: tuple[LabeledInstance, ...]
    meta: DatasetMeta


@dataclass(frozen=True)
class DuplicationReport:
    test_size: int
    duplicated: int
    rate: float
    duplicated_keys: tuple[WarningKey, ...]
    duplicated_bridged: int = 0  # rename-bridged duplicates, reported alongside

    def to_json(self) -> dict:
        return {
            "test_size": self.test_size,
            "duplicated": self.duplicated,
            "rate": self.rate,
            "duplicated_bridged": self.duplicated_bridged,
            "duplicated_keys": [list(k.sort_key()) for k in self.duplicated_keys],
        }


def build_dataset(
    history: ProjectHistory,
    train_rev: str,
    test_rev: str,
    ref_rev: str,
    mode: LeakMode,
    dedup: bool,
) -> Dataset:
    """Assemble labeled train/test splits from one project history.

    Requires train < test < reference in revision order. With
    ``dedup=False`` the test split holds every warning at the test revision;
    with ``dedup=True`` only warnings first observed after the training
    revision survive (rename chains are bridged, so a renamed old warning
    does not slip back in). Unknown-labeled warnings are dropped from both
    splits and counted in the metadata.
    """
    from .history import truncate_history

    train_idx = history.rev_index(train_rev)
    test_idx = history.rev_index(test_rev)
    ref_idx = history.rev_index(ref_rev)
    if not train_idx < test_idx < ref_idx:
        raise OrderingError(
            "revisions must satisfy train < test < reference "
            f"(got {train_rev!r}, {test_rev!r}, {ref_rev!r})"
        )

    notices: list[str] = []
    ref_for_features = ref_rev if mode.is_leaky else None

    train_instances, dropped_train = _labeled_split(
        history, train_rev, ref_rev, mode, ref_for_features
    )

    keep_test: set[WarningKey] | None = None
    dedup_removed = 0
    if dedup:
        # A test key survives iff its warning, the universe entry of its
        # live range, was first observed strictly after the training revision.
        # The test cut and its universe are the ones the test extraction reads.
        universe = truncate_history(history, test_rev).universe
        test_keys = history.present_keys[test_idx]
        keep_test = {key for key in test_keys if universe[(key, None)].first_seen_idx > train_idx}
        dedup_removed = len(test_keys) - len(keep_test)

    test_instances, dropped_test = _labeled_split(
        history, test_rev, ref_rev, mode, ref_for_features, keep=keep_test,
    )
    if dedup and not test_instances:
        notices.append("test split is empty after deduplication")

    meta = DatasetMeta(
        train_rev=train_rev,
        test_rev=test_rev,
        ref_rev=ref_rev,
        mode=mode,
        dedup=dedup,
        dropped_unknown_train=dropped_train,
        dropped_unknown_test=dropped_test,
        dedup_removed=dedup_removed,
        notices=tuple(notices),
    )
    ds = Dataset(train=tuple(train_instances), test=tuple(test_instances), meta=meta)
    if dedup:
        report = audit_duplication(ds)
        if report.duplicated:
            raise ValidationError(
                f"dedup build left {report.duplicated} duplicated test key(s)"
            )
    return ds


def _labeled_split(
    history: ProjectHistory,
    at_rev: str,
    ref_rev: str,
    mode: LeakMode,
    ref_for_features: str | None,
    keep: set[WarningKey] | None = None,
) -> tuple[list[LabeledInstance], int]:
    from .features import extract_golden
    from .oracle import heuristic_label
    labels = {
        lw.key: lw.label for lw in heuristic_label(history, at_rev, ref_rev)
    }
    vectors = extract_golden(history, at_rev, mode, ref_for_features)
    instances: list[LabeledInstance] = []
    dropped_unknown = 0
    for key in sorted(vectors, key=WarningKey.sort_key):
        if keep is not None and key not in keep:
            continue
        label = labels[key]
        if label is Label.UNKNOWN:
            dropped_unknown += 1
            continue
        instances.append(LabeledInstance(key, vectors[key], label, at_rev))
    return instances, dropped_unknown


def audit_duplication(dataset: Dataset) -> DuplicationReport:
    """Count test instances whose warning key also appears in training."""
    train_keys = {inst.key for inst in dataset.train}
    dup_keys = sorted(
        (inst.key for inst in dataset.test if inst.key in train_keys),
        key=WarningKey.sort_key,
    )
    test_size = len(dataset.test)
    bridged = _bridged_duplicates(dataset, train_keys)
    return DuplicationReport(
        test_size=test_size,
        duplicated=len(dup_keys),
        rate=len(dup_keys) / test_size if test_size else 0.0,
        duplicated_keys=tuple(dup_keys),
        duplicated_bridged=bridged,
    )


def _bridged_duplicates(dataset: Dataset, train_keys: set[WarningKey]) -> int:
    # Path-insensitive comparison: catches a renamed warning whose exact key
    # changed between the two splits.
    def strip(key: WarningKey):
        return (key.bug_pattern, key.package, key.class_name, key.method)

    train_stripped = {strip(k) for k in train_keys}
    return sum(1 for inst in dataset.test if strip(inst.key) in train_stripped)


# ---------------------------------------------------------------------------
# Persistence: feature-matrix CSVs plus a metadata sidecar
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split_name, instances in (("train", dataset.train), ("test", dataset.test)):
        rows = [
            MatrixRow(
                key=inst.key,
                origin_rev=inst.origin_rev,
                label=inst.label.value,
                mode=dataset.meta.mode.mode,
                vector=inst.features,
            )
            for inst in instances
        ]
        with open(out / f"{split_name}.csv", "w", encoding="utf-8", newline="") as fp:
            write_feature_matrix(fp, rows)
    with open(out / "meta.json", "w", encoding="utf-8") as fp:
        json.dump(dataset.meta.to_json(), fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_dataset(in_dir: str | Path) -> Dataset:
    """Read a ``save_dataset`` directory; malformed content, and a row whose
    mode or origin revision contradicts ``meta.json``, raise ``ValidationError``."""
    src = Path(in_dir)
    meta = DatasetMeta.from_json(read_json(src / "meta.json"))
    splits: dict[str, tuple[LabeledInstance, ...]] = {}
    for split_name, origin in (("train", meta.train_rev), ("test", meta.test_rev)):
        with open(src / f"{split_name}.csv", encoding="utf-8", newline="") as fp:
            rows = read_feature_matrix(fp)
        instances = []
        for number, row in enumerate(rows, start=1):
            if row.label not in DATASET_LABELS:
                raise ValidationError(
                    f"{split_name}.csv: label {row.label!r} is not "
                    f"{' or '.join(sorted(DATASET_LABELS))}"
                )
            if (row.origin_rev, row.mode) != (origin, meta.mode.mode):
                raise ValidationError(
                    f"{split_name}.csv row {number}: origin_rev {row.origin_rev!r} and mode "
                    f"{row.mode!r}, but meta.json says {origin!r} and {meta.mode.mode!r}"
                )
            instances.append(LabeledInstance(
                key=row.key,
                features=row.vector,
                label=Label(row.label),
                origin_rev=row.origin_rev,
            ))
        splits[split_name] = tuple(instances)
    return Dataset(train=splits["train"], test=splits["test"], meta=meta)
