"""Baseline classifiers and feature encoding.

Four model kinds: a strawman that calls everything actionable, a dummy that
repeats the label of a matching training warning (class name + bug
pattern), k-nearest-neighbors over the encoded features, and a linear
max-margin classifier trained with deterministic seeded stochastic
subgradient descent on the hinge loss. Encoding z-scores numeric columns
and one-hot encodes categoricals using statistics and vocabularies fitted
on the training split only.

Every kind predicts by thresholding its score, so one scoring pass yields
both the scores and the labels. kNN scores test rows in blocks whose
temporaries hold at most ``KNN_BLOCK_ELEMENTS`` float64 values each, so
memory stays bounded whatever the split sizes. Distances are the exact
squared differences summed per row (not the Gram-matrix expansion, whose
rounding would move ties), and a stable sort keeps training-key order
among exact distance ties.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Annotated, NamedTuple, Sequence

import numpy as np

from .dataset import DATASET_LABELS, LabeledInstance
from .errors import (MODEL_KINDS, Count, ModelError, ValidationError, field_types, finite,
                     list_of, read_fields, read_json)
from .keys import Label, WarningKey
from .schema import CATEGORICAL_FIELDS, NUMERIC_FIELDS

MODEL_FORMAT = "warnlab.model/1"

# The linear model's L2 weight and its passes over the training split;
# model.json records both.
REGULARIZATION = 1e-3
EPOCHS = 50

# Upper bound on the float64 values in each temporary of a kNN scoring block
# (512 KiB), whatever the split sizes.
KNN_BLOCK_ELEMENTS = 1 << 16


class ColumnManifest(NamedTuple):
    """Train-fitted encoding recipe: per-column statistics and vocabularies."""

    numeric: tuple[tuple[str, float, float], ...]  # (field, mean, scale)
    categorical: tuple[tuple[str, tuple[str, ...]], ...]  # (field, vocabulary)

    @property
    def dim(self) -> int:
        return len(self.numeric) + sum(len(vocab) for _, vocab in self.categorical)

    def to_json(self) -> dict:
        return self._asdict()


class EncodedMatrix:
    """Numeric matrix plus the per-row identity needed by the dummy models."""

    __slots__ = ("X", "manifest", "keys")

    def __init__(self, X: np.ndarray, manifest: ColumnManifest, keys: tuple[WarningKey, ...]):
        self.X, self.manifest, self.keys = X, manifest, keys

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
    X = np.zeros((len(instances), manifest.dim), dtype=np.float64)
    n_numeric = len(manifest.numeric)
    one_hot: list[tuple[str, dict[str, int]]] = []  # (field, {value: column})
    col = n_numeric
    for name, vocab in manifest.categorical:
        one_hot.append((name, {value: col + j for j, value in enumerate(vocab)}))
        col += len(vocab)
    for i, inst in enumerate(instances):
        vec = inst.features
        X[i, :n_numeric] = [
            (float(getattr(vec, name)) - mean) / scale for name, mean, scale in manifest.numeric
        ]
        for name, columns in one_hot:
            hot = columns.get(getattr(vec, name))
            if hot is not None:  # unseen category: all-zero block
                X[i, hot] = 1.0
    return EncodedMatrix(
        X=X,
        manifest=manifest,
        keys=tuple(inst.key for inst in instances),
    )


def labels_of(instances: Sequence[LabeledInstance]) -> list[Label]:
    return [inst.label for inst in instances]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class _ModelFields(NamedTuple):
    kind: str
    seed: int
    manifest: ColumnManifest
    params: dict


class Model(_ModelFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        return self


_entrywise_matrix = list_of(list_of(finite))
_FLOATS = frozenset([float])


def _finite_matrix(value, name: str) -> tuple[tuple[float, ...], ...]:
    """The ``list_of(list_of(finite))`` kind, with its results and errors,
    at C speed on a matrix of floats alone (``save_model`` writes one): one
    type scan per row, then one finiteness test of the sum of every entry,
    which a NaN or infinite entry makes NaN or infinite. Any other value,
    and a matrix whose finite entries overflow the sum, is read entry by
    entry."""
    if type(value) is list and all(type(row) is list and _FLOATS.issuperset(map(type, row))
                                   for row in value):
        rows = tuple(map(tuple, value))
        if math.isfinite(sum(map(sum, rows))):
            return rows
    return _entrywise_matrix(value, name)


# The params each model kind stores in model.json: name -> field type, whose
# kind (``errors``) reads it.
PARAM_TYPES = {
    "constant": {},
    "repeat": {"buckets": tuple[tuple[str, str, tuple[str, ...]], ...]},
    "knn": {"k": Count, "X": Annotated[tuple[tuple[float, ...], ...], _finite_matrix],
            "labels": tuple[str, ...]},
    "linear": {"weights": tuple[float, ...], "bias": float, "regularization": float,
               "epochs": Count},
}


def fit(
    kind: str,
    train: EncodedMatrix,
    labels: Sequence[Label],
    seed: int = 0,
    *,
    k: int = 1,
) -> Model:
    """Train a model of the requested kind on an encoded training split."""
    if kind == "constant":
        params = {}
    elif kind == "repeat":
        buckets: dict[tuple[str, str], list] = {}
        order = sorted(range(len(train)), key=lambda i: train.keys[i].sort_key())
        for i in order:
            key = train.keys[i]
            buckets.setdefault((key.class_name, key.bug_pattern), []).append(labels[i].value)
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
        w, b = _fit_linear_margin(train.X, labels, seed)
        params = {
            "weights": w.tolist(),
            "bias": b,
            "regularization": REGULARIZATION,
            "epochs": EPOCHS,
        }
    else:
        raise ModelError(f"unknown model kind {kind!r}")
    return Model(kind=kind, seed=seed, manifest=train.manifest, params=params)


def _fit_linear_margin(
    X: np.ndarray, labels: Sequence[Label], seed: int
) -> tuple[np.ndarray, float]:
    """Primal subgradient descent on the L2-regularized hinge loss.

    Step size 1/(REGULARIZATION * t) with one pass over a seeded permutation
    per epoch; the bias is updated on margin violations but not regularized.
    """
    # The arithmetic and its order are those of ``X[i] @ w`` on arrays, with
    # each scalar a Python float: np.dot on a row is the same BLAS ddot call,
    # so the weights are bit-identical and each step skips numpy indexing.
    y = [1.0 if lab is Label.ACTIONABLE else -1.0 for lab in labels]
    rows = list(X)
    w = np.zeros(X.shape[1])
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(EPOCHS):
        for i in rng.permutation(len(rows)).tolist():
            t += 1
            eta = 1.0 / (REGULARIZATION * t)
            yi, row = y[i], rows[i]
            margin = yi * (np.dot(row, w) + b)
            w *= 1.0 - eta * REGULARIZATION
            if margin < 1.0:
                w += eta * yi * row
                b += eta * yi
    return w, b


def _check_manifest(model: Model, encoded: EncodedMatrix) -> None:
    if encoded.manifest != model.manifest:
        raise ModelError("encoded matrix was built under a different manifest")


# Score at or above which each kind predicts actionable. Constant and repeat
# score 1.0 or 0.0; kNN's majority vote lets the actionable class win exact
# ties; the linear margin is signed.
_ACTIONABLE_AT = {"constant": 0.5, "repeat": 0.5, "knn": 0.5, "linear": 0.0}


def score(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    """Per-instance real-valued score; higher means more actionable."""
    _check_manifest(model, encoded)
    if model.kind == "constant":
        return np.ones(len(encoded))
    if model.kind == "linear":
        w = np.asarray(model.params["weights"])
        return encoded.X @ w + model.params["bias"]
    if model.kind == "knn":
        return _knn_scores(model, encoded)
    return _repeat_scores(model, encoded)  # Model refuses any other kind


def predict_from_scores(model: Model, scores: Sequence[float]) -> list[Label]:
    """The labels of scores that ``score`` returned for ``model``."""
    threshold = _ACTIONABLE_AT[model.kind]
    return [Label.ACTIONABLE if s >= threshold else Label.FALSE_ALARM for s in scores]


def _knn_scores(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    Xtr = np.asarray(model.params["X"])
    labels = model.params["labels"]
    k = model.params["k"]
    actionable = np.array([1.0 if lab == Label.ACTIONABLE.value else 0.0 for lab in labels])
    rows = max(1, KNN_BLOCK_ELEMENTS // Xtr.size)
    out = np.empty(len(encoded))
    for start in range(0, len(encoded), rows):
        block = encoded.X[start:start + rows]
        d2 = ((Xtr[None] - block[:, None]) ** 2).sum(axis=2)
        # Stable sort keeps training-key order among exact distance ties
        # (rows were stored sorted by key at fit time).
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start:start + rows] = actionable[nearest].mean(axis=1)
    return out


def _repeat_scores(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    buckets = {
        (cls, pat): vals for cls, pat, vals in model.params["buckets"]
    }
    out = np.zeros(len(encoded))  # no identity match: majority class
    for i in range(len(encoded)):
        key = encoded.keys[i]
        candidates = buckets.get((key.class_name, key.bug_pattern))
        if not candidates:
            continue
        if len(candidates) == 1:
            picked = candidates[0]
        else:
            rng = random.Random(_stable_seed(model.seed, key))
            picked = rng.choice(candidates)
        out[i] = 1.0 if picked == Label.ACTIONABLE.value else 0.0
    return out


def _stable_seed(seed: int, key: WarningKey) -> int:
    import hashlib  # only repeat scoring hashes, so knn and linear eval load no OpenSSL
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
    # json.dumps takes the C encoder (json.dump never does): the same
    # float.__repr__ and key order, so the same bytes.
    text = json.dumps(payload, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def load_model(path: str | Path) -> Model:
    """Read a model file: each field by its kind (``errors``), the params by
    ``PARAM_TYPES`` of the model's kind, then the checks the kinds leave to
    the model (``_check_model``). Any malformed content raises ``ModelError``."""
    what = f"{path}: model file"
    try:
        payload = read_json(path)
        head = read_fields(payload, what, {"format": str, "kind": str})
        if head["format"] != MODEL_FORMAT:
            raise ModelError(f"unsupported model file format: {head['format']!r}")
        params = PARAM_TYPES.get(head["kind"], {})  # Model refuses an unknown kind
        model = Model(**read_fields(payload, what, {**field_types(Model), "params": params}))
    except ValidationError as exc:
        raise ModelError(str(exc)) from None
    _check_model(model)
    return model


def _check_model(model: Model) -> None:
    """Reject a manifest that is not the golden features', and parameters the
    model's scorer cannot use with its manifest."""
    manifest, params = model.manifest, model.params
    if tuple(name for name, *_ in manifest.numeric + manifest.categorical) != (
            NUMERIC_FIELDS + CATEGORICAL_FIELDS):
        raise ModelError("manifest columns are not the golden features in order")
    if any(scale == 0.0 for _, _, scale in manifest.numeric):
        raise ModelError("manifest scales must be nonzero")
    for name, vocab in manifest.categorical:
        if len(set(vocab)) != len(vocab):
            raise ModelError(f"vocabulary of {name!r} must hold distinct strings")
    if model.kind == "knn":
        X, labels, k, dim = params["X"], params["labels"], params["k"], manifest.dim
        ok = (all(len(row) == dim for row in X) and len(labels) == len(X)
              and set(labels) <= DATASET_LABELS and 1 <= k <= len(X))
    elif model.kind == "linear":
        ok = len(params["weights"]) == manifest.dim
    elif model.kind == "repeat":
        ok = all(set(vals) <= DATASET_LABELS for _, _, vals in params["buckets"])
    else:
        ok = True
    if not ok:
        raise ModelError(f"{model.kind} model parameters do not match its manifest")
