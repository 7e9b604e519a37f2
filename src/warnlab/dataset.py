"""Train/test dataset construction with and without deduplication.

The original construction takes every warning present at the training and
testing revisions, so a warning that stays open (or closes only after the
reference cut) lands in both splits with the same label. The corrected
construction (dedup) keeps a test warning only if both hold:

- its warning, the universe entry of its live range at the test revision,
  was first observed strictly after the training revision (rename chains
  are bridged, so a renamed old warning does not slip back in);
- its exact key is not the key of an instance of the built train split.
  A path renamed away and added again starts a new warning under the old
  key, and the train split may hold that key, labeled through the rename.

So a dedup dataset never holds an exact-key duplicate. Both constructions
label via the closed-warning heuristic against the reference revision and
drop (but count) Unknowns. Each split is cut once at its revision, and its
labels are the build's one read past the cut.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import Count, OrderingError, ValidationError, field_types, read_fields, read_json
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
    """One labeled warning; its split's ``DatasetMeta`` revision is its own."""

    key: WarningKey
    features: FeatureVector
    label: Label


@dataclass(frozen=True)
class DatasetMeta:
    train_rev: str
    test_rev: str
    ref_rev: str
    mode: LeakMode
    dedup: bool
    dropped_unknown_train: Count = 0
    dropped_unknown_test: Count = 0
    dedup_removed: Count = 0
    notices: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """Each field, with the mode's two in its place."""
        return {**asdict(self), **asdict(self.mode), "notices": list(self.notices)}

    @classmethod
    def from_json(cls, data) -> "DatasetMeta":
        """Decode ``to_json`` output: each field it writes, by its kind (the
        mode's two as ``LeakMode`` annotates them); a missing or ill-kinded
        field raises ``ValidationError``."""
        values = read_fields(data, "dataset metadata",
                             {**field_types(cls), **field_types(LeakMode)})
        return cls(mode=LeakMode(values.pop("mode"), values.pop("window_days")), **values)


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
        return {**asdict(self),
                "duplicated_keys": [list(k.sort_key()) for k in self.duplicated_keys]}


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
    with ``dedup=True`` only those the dedup rule keeps (module docstring).
    Unknown-labeled warnings are dropped from both splits and counted in the
    metadata.
    """
    from .history import truncate_history
    from .oracle import heuristic_label

    train_idx = history.rev_index(train_rev)
    test_idx = history.rev_index(test_rev)
    ref_idx = history.rev_index(ref_rev)
    if not train_idx < test_idx < ref_idx:
        raise OrderingError(
            "revisions must satisfy train < test < reference "
            f"(got {train_rev!r}, {test_rev!r}, {ref_rev!r})"
        )

    notices: list[str] = []

    def cut_and_labels(rev: str):
        return (truncate_history(history, rev),
                {lw.key: lw.label for lw in heuristic_label(history, rev, ref_rev)})

    train_cut, train_labels = cut_and_labels(train_rev)
    test_cut, test_labels = cut_and_labels(test_rev)
    train_instances, dropped_train = _labeled_split(train_cut, train_labels, mode)

    keep_test: set[WarningKey] | None = None
    dedup_removed = 0
    if dedup:
        # The dedup rule (module docstring).
        universe, train_keys = test_cut.universe, {inst.key for inst in train_instances}
        keep_test = {key for key in test_labels if key not in train_keys
                     and universe[(key, None)].first_seen_idx > train_idx}
        dedup_removed = len(test_labels) - len(keep_test)

    test_instances, dropped_test = _labeled_split(test_cut, test_labels, mode, keep=keep_test)
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
    return Dataset(train=tuple(train_instances), test=tuple(test_instances), meta=meta)


def _labeled_split(cut: ProjectHistory, labels: dict[WarningKey, Label], mode: LeakMode,
                   keep: set[WarningKey] | None = None) -> tuple[list[LabeledInstance], int]:
    from .features import golden_features
    vectors = golden_features(cut, mode, labels if mode.is_leaky else None)
    instances: list[LabeledInstance] = []
    dropped_unknown = 0
    for key, vector in vectors.items():  # sorted by key
        if keep is not None and key not in keep:
            continue
        label = labels[key]
        if label is Label.UNKNOWN:
            dropped_unknown += 1
            continue
        instances.append(LabeledInstance(key, vector, label))
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
    for split_name, instances, origin in (("train", dataset.train, dataset.meta.train_rev),
                                          ("test", dataset.test, dataset.meta.test_rev)):
        rows = [
            MatrixRow(
                key=inst.key,
                origin_rev=origin,
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


def load_dataset(in_dir: str | Path, splits: tuple[str, ...] = ("train", "test")) -> Dataset:
    """Read ``meta.json`` and the named splits of a ``save_dataset`` directory;
    a split left unnamed is not read and stays empty (``fit`` needs only the
    train split, ``eval`` only the test split). Malformed content, and a row
    whose mode or origin revision contradicts ``meta.json``, raise
    ``ValidationError``."""
    src = Path(in_dir)
    meta = DatasetMeta.from_json(read_json(src / "meta.json"))
    loaded: dict[str, tuple[LabeledInstance, ...]] = {"train": (), "test": ()}
    for split_name in splits:
        origin = getattr(meta, f"{split_name}_rev")
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
            ))
        loaded[split_name] = tuple(instances)
    return Dataset(train=loaded["train"], test=loaded["test"], meta=meta)
