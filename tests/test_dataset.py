from __future__ import annotations

from collections import Counter

import pytest

from warnlab import dataset, features, history, oracle
from warnlab.dataset import (
    DatasetMeta,
    audit_duplication,
    build_dataset,
    load_dataset,
    save_dataset,
)
from warnlab.errors import OrderingError, ValidationError
from warnlab.features import LeakMode
from warnlab.history import ProjectHistory
from warnlab.oracle import Label
from warnlab.synth import SynthConfig, generate

from conftest import attrs_line, change_line, make_history, rev_line, warn_line


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

    @pytest.mark.parametrize("mode", [LeakMode.leakfree(), LeakMode.leaky()],
                             ids=["leakfree", "leaky"])
    def test_dedup_drops_a_re_added_key_the_train_split_holds(self, mode):
        """Foo.java renamed away to Bar.java at r2 and added again at r3: the
        r3 warning is a new one, first seen after train, but its exact key is
        the train split's, labeled Actionable through the rename. The build
        once kept it, and then failed on the duplicate it had made."""
        lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None)
                 for i in range(6)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=40),
                  change_line("r2", "src/a/Bar.java", "Rename", old_path="src/a/Foo.java"),
                  change_line("r3", "src/a/Foo.java", "Add", lines_added=20)]
        for rid in ("r0", "r1", "r3", "r4"):
            lines += [warn_line(rid), attrs_line(rid)]
        h = make_history(lines)
        (key,) = h.keys_at("r3")
        assert history.truncate_history(h, "r3").universe[(key, None)].first_seen_idx == 3
        built = build_dataset(h, "r1", "r3", "r5", mode, dedup=True)
        assert [(inst.key, inst.label) for inst in built.train] == [(key, Label.ACTIONABLE)]
        assert built.test == () and built.meta.dedup_removed == 1
        assert audit_duplication(built).duplicated == 0

    @pytest.mark.parametrize("mode", [LeakMode.leakfree(), LeakMode.leaky()],
                             ids=["leakfree", "leaky"])
    def test_dedup_drops_a_warning_renamed_after_train(self, mode):
        """Foo.java is first warned at the train revision r1, renamed to
        Bar.java at the test revision r2, and still warned at the reference r4.
        The Bar.java key is new at test, but its warning was first seen at
        train, so dedup drops it: keeping it would leave a rename-bridged
        duplicate."""
        lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None)
                 for i in range(5)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=40),
                  change_line("r2", "src/a/Bar.java", "Rename", old_path="src/a/Foo.java"),
                  warn_line("r1"), attrs_line("r1")]
        for rid in ("r2", "r3", "r4"):
            lines += [warn_line(rid, path="src/a/Bar.java"),
                      attrs_line(rid, path="src/a/Bar.java")]
        built = build_dataset(make_history(lines), "r1", "r2", "r4", mode, dedup=True)
        assert [(inst.key.file_path, inst.label) for inst in built.train] == [
            ("src/a/Foo.java", Label.FALSE_ALARM)]
        assert built.test == () and built.meta.dedup_removed == 1
        assert audit_duplication(built).duplicated_bridged == 0

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
    objects constructed and the universes built after it, and per labeled
    revision the ``heuristic_label`` calls."""
    result = generate(SynthConfig(seed=5, n_files=8, n_revisions=20, warnings_per_revision=5))
    made = {"histories": Counter(), "universes": Counter(), "labels": Counter()}
    init, build, label = ProjectHistory.__init__, features.build_universe, oracle.heuristic_label

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made["histories"][self.horizon] += 1

    def counted_build(base, at_idx):
        made["universes"][base.revisions[at_idx].id] += 1
        return build(base, at_idx)

    def counted_label(history, at_rev, ref_rev):
        made["labels"][at_rev] += 1
        return label(history, at_rev, ref_rev)

    monkeypatch.setattr(ProjectHistory, "__init__", counted_init)
    for module in (history, features, dataset):  # wherever a caller may look the name up
        monkeypatch.setattr(module, "build_universe", counted_build, raising=False)
    for module in (oracle, features, dataset):
        monkeypatch.setattr(module, "heuristic_label", counted_label, raising=False)
    return result, made


class TestOneCutPerRevision:
    """A build cuts the history once per revision it reads, and builds that
    cut's universe once: every reader of a cut shares both."""

    @pytest.mark.parametrize("run", [
        lambda h, a: build_dataset(h, a.train, a.test, a.reference, LeakMode.leakfree(),
                                   dedup=True),
        lambda h, a: build_dataset(h, a.train, a.test, a.reference, LeakMode.leaky(),
                                   dedup=False),
    ], ids=["leakfree-dedup-build", "leaky-build"])
    def test_one_cut_and_one_universe_per_revision(self, run, counted_synth):
        result, counts = counted_synth
        run(result.history, result.anchors)
        revisions = {result.anchors.train, result.anchors.test}
        for kind in ("histories", "universes"):
            made = counts[kind]
            assert set(made) == revisions and max(made.values()) == 1, (kind, made)

    @pytest.mark.parametrize("mode", [LeakMode.leaky(), LeakMode.leakfree()],
                             ids=["leaky", "leakfree"])
    @pytest.mark.parametrize("dedup", [False, True], ids=["full", "dedup"])
    def test_one_label_pass_per_split(self, mode, dedup, counted_synth):
        """Extraction takes the build's labels: a leaky build once labeled
        each split a second time, for the closure flags."""
        result, counts = counted_synth
        a = result.anchors
        build_dataset(result.history, a.train, a.test, a.reference, mode, dedup=dedup)
        assert counts["labels"] == {a.train: 1, a.test: 1}
