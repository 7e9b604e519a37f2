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
from typing import Sequence

from .errors import OrderingError, ValidationError
from .features import (
    FeatureVector,
    LeakMode,
    MatrixRow,
    build_universe,
    extract_golden,
    read_feature_matrix,
    write_feature_matrix,
)
from .history import ProjectHistory, WarningKey, truncate_history
from .oracle import Label, heuristic_label

# The model kinds a dataset can train. They live here, not in models, so the
# CLI parser can offer them without importing numpy.
MODEL_KINDS = ("constant", "repeat", "knn", "linear")


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
        return cls(
            train_rev=data["train_rev"],
            test_rev=data["test_rev"],
            ref_rev=data["ref_rev"],
            mode=LeakMode(data["mode"], data.get("window_days", 365.0)),
            dedup=bool(data["dedup"]),
            dropped_unknown_train=int(data.get("dropped_unknown_train", 0)),
            dropped_unknown_test=int(data.get("dropped_unknown_test", 0)),
            dedup_removed=int(data.get("dedup_removed", 0)),
            notices=tuple(data.get("notices", ())),
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
    *,
    lifetime_unit: str = "days",
) -> Dataset:
    """Assemble labeled train/test splits from one project history.

    Requires train < test < reference in revision order. With
    ``dedup=False`` the test split holds every warning at the test revision;
    with ``dedup=True`` only warnings first observed after the training
    revision survive (rename chains are bridged, so a renamed old warning
    does not slip back in). Unknown-labeled warnings are dropped from both
    splits and counted in the metadata.
    """
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
        history, train_rev, ref_rev, mode, ref_for_features, lifetime_unit
    )

    keep_test: set[WarningKey] | None = None
    dedup_removed = 0
    if dedup:
        # A test key survives iff its rename-bridged first observation
        # happened strictly after the training revision.
        base = truncate_history(history, test_rev)
        universe = build_universe(base, test_idx)
        keep_test = {
            key
            for key in base.present_keys[test_idx]
            if _bridged_first_seen(base, universe, key, test_idx) > train_idx
        }

    test_instances, dropped_test = _labeled_split(
        history, test_rev, ref_rev, mode, ref_for_features, lifetime_unit,
        keep=keep_test,
    )
    if dedup:
        dedup_removed = len(history.keys_at(test_rev)) - len(keep_test or ())
        if not test_instances:
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


def _bridged_first_seen(base, universe, key: WarningKey, at_idx: int) -> int:
    presence = base.key_presence[key]
    path, _ = base.resolve_path(key.file_path, presence[-1], at_idx)
    canon = universe.get(key.with_path(path))
    return canon.first_seen_idx if canon is not None else presence[0]


def _labeled_split(
    history: ProjectHistory,
    at_rev: str,
    ref_rev: str,
    mode: LeakMode,
    ref_for_features: str | None,
    lifetime_unit: str,
    keep: set[WarningKey] | None = None,
) -> tuple[list[LabeledInstance], int]:
    labels = {
        lw.key: lw.label for lw in heuristic_label(history, at_rev, ref_rev)
    }
    vectors = extract_golden(
        history, at_rev, mode, ref_for_features, lifetime_unit=lifetime_unit
    )
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


def actionability_ratio(instances: Sequence[LabeledInstance]) -> float:
    """Actionable share of a labeled split (Unknowns never enter datasets)."""
    if not instances:
        raise ValidationError("actionability ratio of an empty instance list")
    actionable = sum(1 for inst in instances if inst.label is Label.ACTIONABLE)
    return actionable / len(instances)


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
    src = Path(in_dir)
    with open(src / "meta.json", encoding="utf-8") as fp:
        meta = DatasetMeta.from_json(json.load(fp))
    splits: dict[str, tuple[LabeledInstance, ...]] = {}
    for split_name in ("train", "test"):
        with open(src / f"{split_name}.csv", encoding="utf-8", newline="") as fp:
            rows = read_feature_matrix(fp)
        splits[split_name] = tuple(
            LabeledInstance(
                key=row.key,
                features=row.vector,
                label=Label(row.label),
                origin_rev=row.origin_rev,
            )
            for row in rows
        )
    return Dataset(train=splits["train"], test=splits["test"], meta=meta)
