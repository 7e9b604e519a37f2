"""Baseline classifiers and feature encoding.

Four model kinds: a strawman that calls everything actionable, a dummy that
repeats the label of a matching training warning (class name + bug
pattern), k-nearest-neighbors over the encoded features, and a linear
max-margin classifier trained with deterministic seeded stochastic
subgradient descent on the hinge loss. Encoding z-scores numeric columns
and one-hot encodes categoricals using statistics and vocabularies fitted
on the training split only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import MODEL_KINDS, LabeledInstance
from .errors import ModelError
from .features import CATEGORICAL_FIELDS, NUMERIC_FIELDS, vector_as_mapping
from .history import WarningKey
from .oracle import Label

MODEL_FORMAT = "warnlab.model/1"

DEFAULT_REGULARIZATION = 1e-3
DEFAULT_EPOCHS = 50


@dataclass(frozen=True)
class ColumnManifest:
    """Train-fitted encoding recipe: per-column statistics and vocabularies."""

    numeric: tuple[tuple[str, float, float], ...]  # (field, mean, scale)
    categorical: tuple[tuple[str, tuple[str, ...]], ...]  # (field, vocabulary)

    @property
    def dim(self) -> int:
        return len(self.numeric) + sum(len(vocab) for _, vocab in self.categorical)

    def to_json(self) -> dict:
        return {
            "numeric": [[name, mean, scale] for name, mean, scale in self.numeric],
            "categorical": [[name, list(vocab)] for name, vocab in self.categorical],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColumnManifest":
        return cls(
            numeric=tuple((n, float(m), float(s)) for n, m, s in data["numeric"]),
            categorical=tuple((n, tuple(v)) for n, v in data["categorical"]),
        )


@dataclass(frozen=True)
class EncodedMatrix:
    """Numeric matrix plus the per-row identity needed by the dummy models."""

    X: np.ndarray
    manifest: ColumnManifest
    keys: tuple[WarningKey, ...]
    class_names: tuple[str, ...]
    bug_patterns: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.keys)


def fit_manifest(train: Sequence[LabeledInstance]) -> ColumnManifest:
    if not train:
        raise ModelError("cannot fit an encoder on an empty training split")
    numeric = []
    for name in NUMERIC_FIELDS:
        column = np.array([float(getattr(inst.features, name)) for inst in train])
        mean = float(column.mean())
        scale = float(column.std())
        if scale == 0.0:
            scale = 1.0  # constant column guard
        numeric.append((name, mean, scale))
    categorical = []
    for name in CATEGORICAL_FIELDS:
        vocab = tuple(sorted({getattr(inst.features, name) for inst in train}))
        categorical.append((name, vocab))
    return ColumnManifest(numeric=tuple(numeric), categorical=tuple(categorical))


def encode_with(manifest: ColumnManifest, instances: Sequence[LabeledInstance]) -> EncodedMatrix:
    """Encode instances under a fitted manifest; unseen categories map to zeros."""
    n = len(instances)
    X = np.zeros((n, manifest.dim), dtype=np.float64)
    for i, inst in enumerate(instances):
        values = vector_as_mapping(inst.features)
        col = 0
        for name, mean, scale in manifest.numeric:
            if name not in values:
                raise ModelError(f"feature {name!r} missing from instance at encode time")
            X[i, col] = (float(values[name]) - mean) / scale
            col += 1
        for name, vocab in manifest.categorical:
            if name not in values:
                raise ModelError(f"feature {name!r} missing from instance at encode time")
            try:
                X[i, col + vocab.index(values[name])] = 1.0
            except ValueError:
                pass  # unseen category: all-zero block
            col += len(vocab)
    return EncodedMatrix(
        X=X,
        manifest=manifest,
        keys=tuple(inst.key for inst in instances),
        class_names=tuple(inst.key.class_name for inst in instances),
        bug_patterns=tuple(inst.key.bug_pattern for inst in instances),
    )


def encode(
    train: Sequence[LabeledInstance], test: Sequence[LabeledInstance]
) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Fit the encoding on train and apply it to both splits."""
    manifest = fit_manifest(train)
    return encode_with(manifest, train), encode_with(manifest, test)


def labels_of(instances: Sequence[LabeledInstance]) -> list[Label]:
    return [inst.label for inst in instances]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    kind: str
    seed: int
    manifest: ColumnManifest
    params: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")


def fit(
    kind: str,
    train: EncodedMatrix,
    labels: Sequence[Label],
    seed: int = 0,
    *,
    k: int = 1,
    regularization: float = DEFAULT_REGULARIZATION,
    epochs: int = DEFAULT_EPOCHS,
) -> Model:
    """Train a model of the requested kind on an encoded training split."""
    if len(labels) != len(train):
        raise ModelError("label count does not match training matrix")
    if kind == "constant":
        params = {}
    elif kind == "repeat":
        buckets: dict[tuple[str, str], list] = {}
        order = sorted(range(len(train)), key=lambda i: train.keys[i].sort_key())
        for i in order:
            bucket = buckets.setdefault((train.class_names[i], train.bug_patterns[i]), [])
            bucket.append(labels[i].value)
        params = {"buckets": [[cls, pat, vals] for (cls, pat), vals in sorted(buckets.items())]}
    elif kind == "knn":
        if not 1 <= k <= len(train):
            raise ModelError(f"k must be in 1..{len(train)}, got {k}")
        order = sorted(range(len(train)), key=lambda i: train.keys[i].sort_key())
        params = {
            "k": k,
            "X": train.X[order].tolist(),
            "labels": [labels[i].value for i in order],
        }
    elif kind == "linear":
        present = {lab for lab in labels}
        for required in (Label.ACTIONABLE, Label.FALSE_ALARM):
            if required not in present:
                raise ModelError(f"training split has no {required.value} instance")
        w, b = _fit_linear_margin(train.X, labels, seed, regularization, epochs)
        params = {
            "weights": w.tolist(),
            "bias": b,
            "regularization": regularization,
            "epochs": epochs,
        }
    else:
        raise ModelError(f"unknown model kind {kind!r}")
    return Model(kind=kind, seed=seed, manifest=train.manifest, params=params)


def _fit_linear_margin(
    X: np.ndarray, labels: Sequence[Label], seed: int, lam: float, epochs: int
) -> tuple[np.ndarray, float]:
    """Primal subgradient descent on the L2-regularized hinge loss.

    Step size 1/(lam * t) with one pass over a seeded permutation per epoch;
    the bias is updated on margin violations but not regularized.
    """
    y = np.array([1.0 if lab is Label.ACTIONABLE else -1.0 for lab in labels])
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y[i] * X[i]
                b += eta * y[i]
    return w, float(b)


def _check_manifest(model: Model, encoded: EncodedMatrix) -> None:
    if encoded.manifest != model.manifest:
        raise ModelError("encoded matrix was built under a different manifest")


def score(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    """Per-instance real-valued score; higher means more actionable."""
    _check_manifest(model, encoded)
    n = len(encoded)
    if model.kind == "constant":
        return np.ones(n)
    if model.kind == "linear":
        w = np.asarray(model.params["weights"])
        return encoded.X @ w + model.params["bias"]
    if model.kind == "knn":
        return _knn_scores(model, encoded)
    if model.kind == "repeat":
        return np.array(
            [
                1.0 if lab is Label.ACTIONABLE else 0.0
                for lab in _repeat_predictions(model, encoded)
            ]
        )
    raise ModelError(f"unknown model kind {model.kind!r}")


def predict(model: Model, encoded: EncodedMatrix) -> list[Label]:
    _check_manifest(model, encoded)
    if model.kind == "constant":
        return [Label.ACTIONABLE] * len(encoded)
    if model.kind == "repeat":
        return _repeat_predictions(model, encoded)
    if model.kind == "knn":
        # Majority vote with the actionable class winning exact ties.
        return [
            Label.ACTIONABLE if s >= 0.5 else Label.FALSE_ALARM
            for s in _knn_scores(model, encoded)
        ]
    if model.kind == "linear":
        return [
            Label.ACTIONABLE if s >= 0.0 else Label.FALSE_ALARM
            for s in score(model, encoded)
        ]
    raise ModelError(f"unknown model kind {model.kind!r}")


def _knn_scores(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    Xtr = np.asarray(model.params["X"])
    labels = model.params["labels"]
    k = model.params["k"]
    actionable = np.array([1.0 if lab == Label.ACTIONABLE.value else 0.0 for lab in labels])
    out = np.empty(len(encoded))
    for i, x in enumerate(encoded.X):
        d2 = ((Xtr - x) ** 2).sum(axis=1)
        # Stable sort keeps training-key order among exact distance ties
        # (rows were stored sorted by key at fit time).
        nearest = np.argsort(d2, kind="stable")[:k]
        out[i] = actionable[nearest].mean()
    return out


def _repeat_predictions(model: Model, encoded: EncodedMatrix) -> list[Label]:
    buckets = {
        (cls, pat): vals for cls, pat, vals in model.params["buckets"]
    }
    out: list[Label] = []
    for i in range(len(encoded)):
        candidates = buckets.get((encoded.class_names[i], encoded.bug_patterns[i]))
        if not candidates:
            out.append(Label.FALSE_ALARM)  # no identity match: majority class
        elif len(candidates) == 1:
            out.append(Label(candidates[0]))
        else:
            rng = random.Random(_stable_seed(model.seed, encoded.keys[i]))
            out.append(Label(rng.choice(candidates)))
    return out


def _stable_seed(seed: int, key: WarningKey) -> int:
    material = "\x1f".join((str(seed),) + key.sort_key()).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: Model, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "seed": model.seed,
        "manifest": model.manifest.to_json(),
        "params": model.params,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")


def load_model(path: str | Path) -> Model:
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    if payload.get("format") != MODEL_FORMAT:
        raise ModelError(f"unsupported model file format: {payload.get('format')!r}")
    return Model(
        kind=payload["kind"],
        seed=int(payload["seed"]),
        manifest=ColumnManifest.from_json(payload["manifest"]),
        params=payload["params"],
    )
