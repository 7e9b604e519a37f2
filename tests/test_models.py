from __future__ import annotations

import io
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from warnlab import models
from warnlab.dataset import Dataset, DatasetMeta, LabeledInstance
from warnlab.errors import MODEL_KINDS, ModelError, finite, list_of
from warnlab.evaluation import confusion, evaluate_model
from warnlab.features import FeatureVector, LeakMode
from warnlab.history import WarningKey
from warnlab.models import (
    KNN_BLOCK_ELEMENTS,
    MODEL_FORMAT,
    ColumnManifest,
    EncodedMatrix,
    Model,
    encode_with,
    fit,
    fit_manifest,
    labels_of,
    load_model,
    predict_from_scores,
    save_model,
    score,
)
from warnlab.oracle import Label

from linear_reference import fit_linear_margin


def encode(train, test):
    """Both splits under the manifest fitted on ``train``."""
    manifest = fit_manifest(train)
    return encode_with(manifest, train), encode_with(manifest, test)


def predict(model, encoded):
    return predict_from_scores(model, score(model, encoded))


def make_vector(**overrides) -> FeatureVector:
    defaults = dict(
        warning_context_in_method=0.0,
        warning_context_in_file=0.0,
        warning_context_for_warning_type=0.0,
        defect_likelihood_for_warning_pattern=0.0,
        discretization_of_defect_likelihood=0.0,
        average_lifetime_for_warning_type=0.0,
        comment_code_ratio=0.5,
        method_depth=2,
        file_depth=3,
        methods_in_file=5,
        classes_in_package=4,
        warning_pattern="P1",
        warning_type="CAT",
        warning_priority=2,
        package="com.a",
        file_age_days=100.0,
        file_creation_timestamp=1.4e9,
        developers=2,
        parameter_signature="()V",
        method_visibility="public",
        loc_added_in_file_last_25_revisions=10,
        loc_added_in_package_past_3_months=10,
        warning_lifetime_revisions=3,
    )
    defaults.update(overrides)
    return FeatureVector(**defaults)


def make_instance(i: int, label: Label, cls: str | None = None, pattern: str = "P1",
                  **overrides) -> LabeledInstance:
    cls = cls or f"C{i:03d}"
    key = WarningKey(pattern, f"src/{cls}.java", "com.a", cls, None)
    return LabeledInstance(
        key=key,
        features=make_vector(warning_pattern=pattern, **overrides),
        label=label,
    )


def two_cluster_split(n_per_class=20, seed=5):
    """Linearly separable toy data: the comment ratio carries the classes."""
    rng = random.Random(seed)
    train = []
    for i in range(n_per_class):
        train.append(make_instance(i, Label.ACTIONABLE,
                                   comment_code_ratio=0.8 + 0.1 * rng.random(),
                                   file_age_days=rng.uniform(50, 60)))
        train.append(make_instance(100 + i, Label.FALSE_ALARM,
                                   comment_code_ratio=0.1 * rng.random(),
                                   file_age_days=rng.uniform(50, 60)))
    return train


class TestEncode:
    def test_zscore_uses_train_statistics(self):
        train = [make_instance(0, Label.ACTIONABLE, file_age_days=10.0),
                 make_instance(1, Label.FALSE_ALARM, file_age_days=30.0)]
        test = [make_instance(2, Label.FALSE_ALARM, file_age_days=50.0)]
        enc_train, enc_test = encode(train, test)
        manifest = enc_train.manifest
        col = [name for name, _, _ in manifest.numeric].index("file_age_days")
        mean, scale = manifest.numeric[col][1], manifest.numeric[col][2]
        assert mean == 20.0 and scale == 10.0
        assert enc_test.X[0, col] == (50.0 - 20.0) / 10.0

    def test_constant_column_guarded(self):
        train = [make_instance(i, Label.ACTIONABLE) for i in range(3)]
        manifest = fit_manifest(train)
        by_name = {name: (mean, scale) for name, mean, scale in manifest.numeric}
        assert by_name["developers"] == (2.0, 1.0)  # zero variance -> scale 1
        encoded = encode_with(manifest, train)
        assert np.isfinite(encoded.X).all()

    def test_unseen_category_encodes_to_zero_block(self):
        train = [make_instance(0, Label.ACTIONABLE, method_visibility="public"),
                 make_instance(1, Label.FALSE_ALARM, method_visibility="private")]
        test = [make_instance(2, Label.FALSE_ALARM, method_visibility="protected")]
        enc_train, enc_test = encode(train, test)
        offset = len(enc_train.manifest.numeric)
        for name, vocab in enc_train.manifest.categorical:
            block = enc_test.X[0, offset:offset + len(vocab)]
            if name == "method_visibility":
                assert block.sum() == 0.0
            offset += len(vocab)

    def test_one_hot_row_sums(self):
        train = [
            make_instance(0, Label.ACTIONABLE, method_visibility="public"),
            make_instance(1, Label.FALSE_ALARM, method_visibility="private"),
            make_instance(2, Label.FALSE_ALARM, method_visibility="package"),
            make_instance(3, Label.ACTIONABLE, method_visibility="public"),
            make_instance(4, Label.FALSE_ALARM, method_visibility="private"),
        ]
        manifest = fit_manifest(train)
        vis = dict(manifest.categorical)["method_visibility"]
        assert len(vis) == 3
        encoded = encode_with(manifest, train)
        offset = len(manifest.numeric)
        for name, vocab in manifest.categorical:
            block = encoded.X[:, offset:offset + len(vocab)]
            assert (block.sum(axis=1) <= 1.0).all()
            offset += len(vocab)

    def test_empty_train_rejected(self):
        with pytest.raises(ModelError):
            fit_manifest([])


class TestFit:
    def test_separable_training_accuracy(self):
        train = two_cluster_split()
        encoded = encode_with(fit_manifest(train), train)
        model = fit("linear", encoded, labels_of(train), seed=1)
        predictions = predict(model, encoded)
        assert predictions == labels_of(train)

    def test_knn_reproduces_training_labels(self):
        train = two_cluster_split()
        encoded = encode_with(fit_manifest(train), train)
        model = fit("knn", encoded, labels_of(train), k=1)
        assert predict(model, encoded) == labels_of(train)

    def test_same_seed_same_weights(self):
        train = two_cluster_split()
        encoded = encode_with(fit_manifest(train), train)
        m1 = fit("linear", encoded, labels_of(train), seed=42)
        m2 = fit("linear", encoded, labels_of(train), seed=42)
        assert m1.params["weights"] == m2.params["weights"]
        assert m1.params["bias"] == m2.params["bias"]

    @given(data=st.data(), seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=80, deadline=None)
    def test_linear_weights_match_array_reference(self, data, seed):
        n = data.draw(st.integers(2, 12), label="rows")
        d = data.draw(st.integers(1, 6), label="columns")
        # Mostly encoder-scale values, so that margins fall near 1 and a
        # reordered step changes which rows update the weights.
        elements = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
                             st.floats(-1e6, 1e6))
        X = data.draw(arrays(np.float64, (n, d), elements=elements), label="X")
        labels = data.draw(st.lists(st.sampled_from([Label.ACTIONABLE, Label.FALSE_ALARM]),
                                    min_size=n, max_size=n).filter(lambda ls: len(set(ls)) == 2),
                           label="labels")
        keys = tuple(WarningKey("P", f"src/F{i}.java", "com.a", f"F{i}") for i in range(n))
        model = fit("linear", EncodedMatrix(X, ColumnManifest((), ()), keys), labels, seed=seed)
        w, b = fit_linear_margin(X, labels, seed)
        assert np.array(model.params["weights"]).tobytes() == w.tobytes()
        assert struct.pack("<d", model.params["bias"]) == struct.pack("<d", b)

    def test_single_class_linear_rejected(self):
        train = [make_instance(i, Label.FALSE_ALARM) for i in range(5)]
        encoded = encode_with(fit_manifest(train), train)
        with pytest.raises(ModelError, match="Actionable"):
            fit("linear", encoded, labels_of(train))

    def test_unknown_kind_rejected(self):
        train = two_cluster_split(n_per_class=2)
        with pytest.raises(ModelError, match="unknown model kind 'bogus'"):
            fit("bogus", encode_with(fit_manifest(train), train), labels_of(train))

    def test_knn_k_bounds(self):
        train = two_cluster_split(n_per_class=2)
        encoded = encode_with(fit_manifest(train), train)
        with pytest.raises(ModelError):
            fit("knn", encoded, labels_of(train), k=5)


class TestPredict:
    def test_repeat_label_hits_bucket(self):
        train = [make_instance(0, Label.ACTIONABLE, cls="BooleanUtils",
                               pattern="ES_EQ")]
        test = [make_instance(1, Label.FALSE_ALARM, cls="BooleanUtils",
                              pattern="ES_EQ")]
        enc_train, enc_test = encode(train, test)
        model = fit("repeat", enc_train, labels_of(train), seed=0)
        assert predict(model, enc_test) == [Label.ACTIONABLE]

    def test_repeat_label_defaults_to_false_alarm(self):
        train = [make_instance(0, Label.ACTIONABLE, cls="Foo", pattern="P1")]
        test = [make_instance(1, Label.ACTIONABLE, cls="Bar", pattern="P2")]
        enc_train, enc_test = encode(train, test)
        model = fit("repeat", enc_train, labels_of(train), seed=0)
        assert predict(model, enc_test) == [Label.FALSE_ALARM]
        assert list(score(model, enc_test)) == [0.0]

    def test_repeat_label_ambiguous_bucket_is_seeded(self):
        train = [
            make_instance(0, Label.ACTIONABLE, cls="Same", pattern="P1",
                          comment_code_ratio=0.1),
            make_instance(1, Label.FALSE_ALARM, cls="Same", pattern="P1",
                          comment_code_ratio=0.9),
        ]
        test = [make_instance(2, Label.ACTIONABLE, cls="Same", pattern="P1")]
        enc_train, enc_test = encode(train, test)
        model = fit("repeat", enc_train, labels_of(train), seed=7)
        first = predict(model, enc_test)
        assert predict(model, enc_test) == first  # pure given the seed
        other = fit("repeat", enc_train, labels_of(train), seed=8)
        outcomes = {predict(fit("repeat", enc_train, labels_of(train), seed=s),
                            enc_test)[0] for s in range(30)}
        assert outcomes == {Label.ACTIONABLE, Label.FALSE_ALARM}
        assert predict(other, enc_test) in ([Label.ACTIONABLE], [Label.FALSE_ALARM])

    def test_knn_majority_vote(self):
        train = [
            make_instance(0, Label.ACTIONABLE, comment_code_ratio=0.50),
            make_instance(1, Label.ACTIONABLE, comment_code_ratio=0.52),
            make_instance(2, Label.FALSE_ALARM, comment_code_ratio=0.54),
            make_instance(3, Label.FALSE_ALARM, comment_code_ratio=0.95),
        ]
        test = [make_instance(9, Label.ACTIONABLE, comment_code_ratio=0.51)]
        enc_train, enc_test = encode(train, test)
        model = fit("knn", enc_train, labels_of(train), k=3)
        assert list(score(model, enc_test)) == [pytest.approx(2 / 3)]
        assert predict(model, enc_test) == [Label.ACTIONABLE]

    def test_knn_tie_prefers_actionable(self):
        train = [
            make_instance(0, Label.ACTIONABLE, comment_code_ratio=0.40),
            make_instance(1, Label.FALSE_ALARM, comment_code_ratio=0.60),
        ]
        test = [make_instance(9, Label.FALSE_ALARM, comment_code_ratio=0.50)]
        enc_train, enc_test = encode(train, test)
        model = fit("knn", enc_train, labels_of(train), k=2)
        assert predict(model, enc_test) == [Label.ACTIONABLE]

    def test_constant_always_actionable(self):
        train = two_cluster_split(n_per_class=3)
        encoded = encode_with(fit_manifest(train), train)
        model = fit("constant", encoded, labels_of(train))
        assert set(predict(model, encoded)) == {Label.ACTIONABLE}
        assert (score(model, encoded) == 1.0).all()

    def test_manifest_mismatch_rejected(self):
        train = two_cluster_split(n_per_class=3)
        other = [make_instance(i, Label.ACTIONABLE, method_visibility="package")
                 for i in range(4)] + [make_instance(9, Label.FALSE_ALARM)]
        enc_train = encode_with(fit_manifest(train), train)
        enc_other = encode_with(fit_manifest(other), other)
        model = fit("linear", enc_train, labels_of(train), seed=0)
        with pytest.raises(ModelError, match="manifest"):
            predict(model, enc_other)


class TestDuplicationExploit:
    def test_feature_identical_twins_make_knn_perfect(self):
        rng = random.Random(9)
        train = []
        for i in range(40):
            label = Label.ACTIONABLE if rng.random() < 0.5 else Label.FALSE_ALARM
            train.append(make_instance(i, label,
                                       comment_code_ratio=rng.random(),
                                       file_age_days=rng.uniform(1, 900),
                                       warning_lifetime_revisions=rng.randint(1, 40)))
        test = list(train)  # every test instance has an identical twin
        enc_train, enc_test = encode(train, test)
        model = fit("knn", enc_train, labels_of(train), k=1)
        predictions = predict(model, enc_test)
        truth = labels_of(test)
        tp = sum(1 for t, p in zip(truth, predictions)
                 if t is Label.ACTIONABLE and p is Label.ACTIONABLE)
        fp = sum(1 for t, p in zip(truth, predictions)
                 if t is not Label.ACTIONABLE and p is Label.ACTIONABLE)
        fn = sum(1 for t, p in zip(truth, predictions)
                 if t is Label.ACTIONABLE and p is not Label.ACTIONABLE)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall)
        assert f1 == 1.0


class TestAffineInvariance:
    def test_linear_predictions_survive_column_rescaling(self):
        train = two_cluster_split()
        test = [make_instance(500 + i,
                              Label.ACTIONABLE if i % 2 else Label.FALSE_ALARM,
                              comment_code_ratio=0.9 if i % 2 else 0.05,
                              file_age_days=55.0)
                for i in range(10)]

        def rescale(instances, a, b):
            out = []
            for inst in instances:
                vec = inst.features
                out.append(LabeledInstance(
                    key=inst.key,
                    features=vec._replace(comment_code_ratio=a * vec.comment_code_ratio + b),
                    label=inst.label,
                ))
            return out

        enc_train, enc_test = encode(train, test)
        base = fit("linear", enc_train, labels_of(train), seed=3)
        baseline = predict(base, enc_test)
        for a, b in ((4.5, -2.0), (-3.0, 7.0)):
            enc_train2, enc_test2 = encode(rescale(train, a, b), rescale(test, a, b))
            model2 = fit("linear", enc_train2, labels_of(train), seed=3)
            assert predict(model2, enc_test2) == baseline


# JSON values as a kNN matrix entry: mostly floats (NaN, ±Infinity and
# values whose sum overflows among them), else integers (10**400 too) and
# values of other kinds.
_MATRIX_ENTRIES = st.one_of(
    st.floats(), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.integers(), st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1023 * 2]),
    st.none(), st.booleans(), st.text(max_size=2), st.lists(st.floats(), max_size=2),
)


class TestPersistence:
    @pytest.mark.parametrize("kind,kwargs", [
        ("constant", {}), ("repeat", {}), ("knn", {"k": 3}), ("linear", {}),
    ])
    def test_save_load_preserves_predictions(self, tmp_path, kind, kwargs):
        train = two_cluster_split(n_per_class=6)
        encoded = encode_with(fit_manifest(train), train)
        model = fit(kind, encoded, labels_of(train), seed=11, **kwargs)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert predict(loaded, encoded) == predict(model, encoded)
        assert np.allclose(score(loaded, encoded), score(model, encoded))

    @pytest.mark.parametrize("kind", ["knn", "linear"])
    def test_saved_bytes_match_json_dump(self, tmp_path, kind):
        train = two_cluster_split(n_per_class=6)
        model = fit(kind, encode_with(fit_manifest(train), train), labels_of(train),
                    seed=11, k=3)
        special = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
        params = dict(model.params)
        if kind == "knn":
            params["X"] = [special + row[len(special):] for row in params["X"]]
        else:
            params["weights"] = special + params["weights"][len(special):]
            params["bias"] = 0.1 + 0.2
        model = model._replace(params=params)
        path = tmp_path / "model.json"
        save_model(model, path)
        expected = io.StringIO()
        json.dump({"format": MODEL_FORMAT, "kind": model.kind, "seed": model.seed,
                   "manifest": model.manifest.to_json(), "params": params},
                  expected, sort_keys=True)
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert all(repr(v) in expected.getvalue() for v in special)

    @pytest.mark.parametrize("kind,corrupt", [
        ("knn", lambda p: p.pop("kind")),
        ("knn", lambda p: p.update(seed="11")),
        ("knn", lambda p: p["params"]["X"][0].pop()),
        ("knn", lambda p: p["params"]["labels"].__setitem__(0, "Unknown")),
        ("knn", lambda p: p["params"].update(k=0)),
        ("knn", lambda p: p["manifest"]["categorical"][0].__setitem__(1, "P1")),
        ("knn", lambda p: p["manifest"]["numeric"].reverse()),
        ("linear", lambda p: p["params"]["weights"].append(0.0)),
        ("linear", lambda p: p["params"].update(bias=None)),
        ("repeat", lambda p: p["params"]["buckets"][0].__setitem__(2, "Actionable")),
    ])
    def test_malformed_model_file_rejected(self, tmp_path, kind, corrupt):
        train = two_cluster_split(n_per_class=6)
        model = fit(kind, encode_with(fit_manifest(train), train), labels_of(train),
                    seed=11, k=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelError):
            load_model(path)

    @given(st.one_of(st.lists(st.lists(_MATRIX_ENTRIES, max_size=4), max_size=4),
                     st.lists(_MATRIX_ENTRIES, max_size=3), _MATRIX_ENTRIES))
    @settings(max_examples=300, deadline=None)
    def test_knn_matrix_reads_as_entry_by_entry(self, value):
        """The kNN training matrix's kind returns what ``list_of(list_of(finite))``
        returns, or raises its message, whatever JSON value it reads."""
        def outcome(kind):
            try:
                rows = kind(value, "X")
            except ValueError as exc:
                return str(exc)
            return type(rows), [(type(row), [(type(x), repr(x)) for x in row]) for row in rows]

        assert outcome(models._finite_matrix) == outcome(list_of(list_of(finite)))

    def test_scores_are_finite(self):
        train = two_cluster_split(n_per_class=6)
        encoded = encode_with(fit_manifest(train), train)
        for kind in ("constant", "repeat", "knn", "linear"):
            model = fit(kind, encoded, labels_of(train), seed=1)
            assert all(math.isfinite(s) for s in score(model, encoded))


def knn_scores_per_row(model: Model, encoded: EncodedMatrix) -> np.ndarray:
    """Reference kNN scorer: one distance computation and stable sort per test row."""
    Xtr = np.asarray(model.params["X"])
    k = model.params["k"]
    actionable = np.array(
        [1.0 if lab == Label.ACTIONABLE.value else 0.0 for lab in model.params["labels"]]
    )
    out = np.empty(len(encoded))
    for i, x in enumerate(encoded.X):
        d2 = ((Xtr - x) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        out[i] = actionable[nearest].mean()
    return out


class TestBlockedKnnScorer:
    @pytest.mark.parametrize("k", [1, 4, 5])
    def test_matches_per_row_reference(self, k):
        rng = np.random.default_rng(100 + k)
        manifest = fit_manifest(two_cluster_split(n_per_class=3))
        dim, n_numeric = manifest.dim, len(manifest.numeric)
        pool = rng.normal(scale=3.0, size=(4, n_numeric))

        def encoded_like(n):
            # Shared z-scored parts plus random one-hot bits, as encoding
            # makes them: such rows tie exactly at many distances.
            one_hot = rng.integers(0, 2, size=(n, dim - n_numeric))
            return np.hstack([pool[rng.integers(0, len(pool), size=n)], one_hot])

        # Mirror pairs c + d and c - d lie at exactly equal distances from c
        # (every value stays in [4, 8), so the sums and differences are
        # exact). Only exact differences keep such ties in training-key
        # order; the Gram expansion rounds the two distances differently.
        centers = 5.0 + rng.random(size=(20, dim))
        offsets = rng.integers(-2, 3, size=(20, dim)) * 0.25
        distinct = np.vstack([
            centers + offsets, centers - offsets,
            encoded_like(30), rng.normal(size=(10, dim)),
        ])
        Xtr = np.vstack([distinct, distinct[rng.integers(0, len(distinct), size=20)]])
        labels = [
            Label.ACTIONABLE.value if bit else Label.FALSE_ALARM.value
            for bit in rng.integers(0, 2, size=len(Xtr))
        ]
        model = Model("knn", 0, manifest, {"k": k, "X": Xtr.tolist(), "labels": labels})
        rows = KNN_BLOCK_ELEMENTS // Xtr.size
        assert rows > 1
        n_test = 3 * rows + rows // 2 + 1  # several full blocks plus a remainder
        copies = Xtr[rng.integers(0, len(Xtr), size=25)]
        Xte = np.vstack([
            centers, copies, encoded_like(25),
            rng.normal(size=(n_test - len(centers) - len(copies) - 25, dim)),
        ])
        keys = tuple(WarningKey("P1", f"src/T{i}.java", "com.a", f"T{i}", None)
                     for i in range(n_test))
        encoded = EncodedMatrix(X=Xte, manifest=manifest, keys=keys)
        expected = knn_scores_per_row(model, encoded)
        assert np.array_equal(score(model, encoded), expected)
        assert predict(model, encoded) == [
            Label.ACTIONABLE if s >= 0.5 else Label.FALSE_ALARM for s in expected
        ]


def _dataset(train, test) -> Dataset:
    meta = DatasetMeta("r1", "r2", "r3", LeakMode.leakfree(), dedup=False)
    return Dataset(train=tuple(train), test=tuple(test), meta=meta)


class TestSingleScoringPass:
    def test_knn_eval_scores_once(self, monkeypatch):
        train = two_cluster_split(n_per_class=6)
        test = two_cluster_split(n_per_class=4, seed=8)
        model = fit("knn", encode_with(fit_manifest(train), train), labels_of(train), k=3)
        calls = []
        real = models._knn_scores

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(models, "_knn_scores", counting)
        evaluate_model(model, _dataset(train, test))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_eval_counts_match_predict(self, kind):
        train = two_cluster_split(n_per_class=6)
        # Overlapping clusters, so every kind makes some mistakes.
        rng = random.Random(4)
        test = [
            make_instance(i, Label.ACTIONABLE if i % 2 else Label.FALSE_ALARM,
                          pattern="P1" if i % 3 else "P2",
                          comment_code_ratio=rng.random(),
                          file_age_days=rng.uniform(50, 60))
            for i in range(24)
        ]
        model = fit(kind, encode_with(fit_manifest(train), train), labels_of(train),
                    seed=5, k=3)
        report = evaluate_model(model, _dataset(train, test))
        predicted = predict(model, encode_with(model.manifest, test))
        assert report.counts == confusion(labels_of(test), predicted)
