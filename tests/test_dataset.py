from __future__ import annotations

from collections import Counter

import pytest

from warnlab import dataset, features, history
from warnlab.dataset import (
    DatasetMeta,
    audit_duplication,
    build_dataset,
    load_dataset,
    save_dataset,
)
from warnlab.errors import OrderingError, ValidationError
from warnlab.features import LeakMode, audit_time_travel
from warnlab.history import ProjectHistory
from warnlab.oracle import Label
from warnlab.synth import SynthConfig, generate

from conftest import attrs_line, make_history, rev_line, warn_line


def _no_closure_history(n_warnings=6):
    """Warnings open at every revision: nothing ever closes."""
    lines = [rev_line("r0", 0), rev_line("r1", 30), rev_line("r2", 60),
             rev_line("r3", 800)]
    for i in range(n_warnings):
        common = dict(path=f"src/w{i}.java", cls=f"W{i}", pattern=f"P{i % 3}",
                      category="CAT")
        for rid in ("r0", "r1", "r2", "r3"):
            lines.append(warn_line(rid, **common))
        for rid in ("r1", "r2"):
            lines.append(attrs_line(rid, path=f"src/w{i}.java", cls=f"W{i}",
                                    pattern=f"P{i % 3}"))
    return make_history(lines)


def _synth_dataset(dedup, seed=23, **overrides):
    defaults = dict(seed=seed, n_files=12, n_revisions=24, warnings_per_revision=6,
                    true_actionable_rate=0.5, fix_delay_days=(400.0, 600.0),
                    duplication_pressure=0.6)
    defaults.update(overrides)
    result = generate(SynthConfig(**defaults))
    h, a = result.history, result.anchors
    return build_dataset(h, a.train, a.test, a.reference, LeakMode.leakfree(),
                         dedup=dedup)


class TestBuildDataset:
    def test_shared_open_warnings_duplicate_with_same_label(self):
        h = _no_closure_history()
        ds = build_dataset(h, "r1", "r2", "r3", LeakMode.leakfree(), dedup=False)
        train_labels = {inst.key: inst.label for inst in ds.train}
        test_labels = {inst.key: inst.label for inst in ds.test}
        assert set(train_labels) == set(test_labels)
        for key, label in test_labels.items():
            assert label is Label.FALSE_ALARM
            assert train_labels[key] is Label.FALSE_ALARM

    def test_dedup_keeps_only_new_warnings(self):
        h = _no_closure_history()
        ds = build_dataset(h, "r1", "r2", "r3", LeakMode.leakfree(), dedup=True)
        assert ds.test == ()
        assert any("empty" in n for n in ds.meta.notices)
        assert ds.meta.dedup_removed == 6

    def test_dedup_strictly_shrinks_with_shared_warnings(self):
        full = _synth_dataset(dedup=False)
        deduped = _synth_dataset(dedup=True)
        assert audit_duplication(full).duplicated > 0
        assert len(deduped.test) < len(full.test)

    def test_dedup_test_is_subset_of_full_test(self):
        full = _synth_dataset(dedup=False)
        deduped = _synth_dataset(dedup=True)
        assert {i.key for i in deduped.test} <= {i.key for i in full.test}
        assert deduped.train == full.train

    def test_dedup_keeps_a_warning_of_a_re_added_path(self, re_added_history):
        built = build_dataset(re_added_history, "r1", "r4", "r5", LeakMode.leakfree(),
                              dedup=True)
        assert [inst.key for inst in built.test] == list(re_added_history.keys_at("r4"))
        assert built.meta.dedup_removed == 0

    def test_ordering_violation_rejected(self):
        h = _no_closure_history()
        with pytest.raises(OrderingError):
            build_dataset(h, "r2", "r1", "r3", LeakMode.leakfree(), dedup=False)
        with pytest.raises(OrderingError):
            build_dataset(h, "r1", "r3", "r2", LeakMode.leakfree(), dedup=False)

    def test_unknowns_dropped_and_counted(self):
        ds = _synth_dataset(dedup=False, seed=31, file_delete_rate=0.4)
        assert all(inst.label is not Label.UNKNOWN for inst in ds.train + ds.test)
        assert ds.meta.dropped_unknown_train + ds.meta.dropped_unknown_test > 0

    def test_deterministic_build(self):
        a = _synth_dataset(dedup=False)
        b = _synth_dataset(dedup=False)
        assert a == b

    def test_leaky_mode_features_attached(self):
        result = generate(SynthConfig(seed=7, n_files=8, n_revisions=20,
                                      warnings_per_revision=5))
        h, a = result.history, result.anchors
        ds = build_dataset(h, a.train, a.test, a.reference, LeakMode.leaky(),
                           dedup=False)
        assert ds.meta.mode.is_leaky
        assert len(ds.train) > 0 and len(ds.test) > 0


class TestAuditDuplication:
    def test_dedup_dataset_audits_clean(self):
        ds = _synth_dataset(dedup=True)
        report = audit_duplication(ds)
        assert report.duplicated == 0
        assert report.rate == 0.0

    def test_train_equals_test_rate_one(self):
        h = _no_closure_history()
        ds = build_dataset(h, "r1", "r2", "r3", LeakMode.leakfree(), dedup=False)
        # Same keys on both sides (open warnings persist).
        report = audit_duplication(ds)
        assert report.rate == 1.0

    def test_hand_fixture_six_of_ten(self):
        h = _no_closure_history(n_warnings=6)
        base = build_dataset(h, "r1", "r2", "r3", LeakMode.leakfree(), dedup=False)
        extra = generate(SynthConfig(seed=40, n_files=8, n_revisions=24,
                                     warnings_per_revision=4,
                                     duplication_pressure=0.0,
                                     fix_delay_days=(2000.0, 3000.0)))
        ha, aa = extra.history, extra.anchors
        other = build_dataset(ha, aa.train, aa.test, aa.reference,
                              LeakMode.leakfree(), dedup=True)
        padding = [inst for inst in other.test if inst.key not in
                   {i.key for i in other.train}][:4]
        stitched = type(base)(train=base.train, test=base.test + tuple(padding),
                              meta=base.meta)
        report = audit_duplication(stitched)
        assert report.test_size == 10
        assert report.duplicated == 6
        assert report.rate == pytest.approx(0.6)

    def test_empty_test_rate_zero(self):
        h = _no_closure_history()
        ds = build_dataset(h, "r1", "r2", "r3", LeakMode.leakfree(), dedup=True)
        assert audit_duplication(ds).rate == 0.0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        ds = _synth_dataset(dedup=True)
        save_dataset(ds, tmp_path)
        again = load_dataset(tmp_path)
        assert again == ds

    @pytest.mark.parametrize("field", [
        "train_rev", "test_rev", "ref_rev", "mode", "window_days", "dedup",
        "dropped_unknown_train", "dropped_unknown_test", "dedup_removed", "notices",
    ])
    def test_meta_requires_every_field_it_writes(self, field):
        meta = DatasetMeta("r1", "r2", "r3", LeakMode.leakfree(), dedup=True).to_json()
        assert DatasetMeta.from_json(meta).to_json() == meta
        del meta[field]
        with pytest.raises(ValidationError, match=repr(field)):
            DatasetMeta.from_json(meta)


@pytest.fixture
def counted_synth(monkeypatch):
    """A synth result, and per horizon revision id the ``ProjectHistory``
    objects constructed and the universes built after it."""
    result = generate(SynthConfig(seed=5, n_files=8, n_revisions=20, warnings_per_revision=5))
    made = {"histories": Counter(), "universes": Counter()}
    init, build = ProjectHistory.__init__, features.build_universe

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made["histories"][self.horizon] += 1

    def counted_build(base, at_idx):
        made["universes"][base.revisions[at_idx].id] += 1
        return build(base, at_idx)

    monkeypatch.setattr(ProjectHistory, "__init__", counted_init)
    for module in (history, features, dataset):  # wherever a caller may look the name up
        monkeypatch.setattr(module, "build_universe", counted_build, raising=False)
    return result, made


class TestOneCutPerRevision:
    """Each command cuts the history once per revision it reads, and builds
    that cut's universe once: every reader of a cut shares both."""

    @pytest.mark.parametrize("run", [
        lambda h, a: build_dataset(h, a.train, a.test, a.reference, LeakMode.leakfree(),
                                   dedup=True),
        lambda h, a: build_dataset(h, a.train, a.test, a.reference, LeakMode.leaky(),
                                   dedup=False),
        lambda h, a: [audit_time_travel(h, rev, LeakMode.leakfree())
                      for rev in (a.train, a.test)],
    ], ids=["leakfree-dedup-build", "leaky-build", "audit"])
    def test_one_cut_and_one_universe_per_revision(self, run, counted_synth):
        result, counts = counted_synth
        run(result.history, result.anchors)
        revisions = {result.anchors.train, result.anchors.test}
        for kind, made in counts.items():
            assert set(made) == revisions and max(made.values()) == 1, (kind, made)
