from __future__ import annotations

import pytest

from warnlab.dataset import audit_duplication, build_dataset
from warnlab.errors import ValidationError
from warnlab.features import LeakMode
from warnlab.history import emit_ledger
from warnlab.oracle import Label, heuristic_label, sweep_reference
from warnlab.synth import REVISION_INTERVAL_DAYS, SynthConfig, generate


class TestDeterminism:
    def test_same_seed_bit_identical_ledgers(self):
        config = SynthConfig(seed=14, n_files=10, n_revisions=18,
                             warnings_per_revision=5, file_delete_rate=0.2)
        lines_a = list(emit_ledger(generate(config).history))
        lines_b = list(emit_ledger(generate(config).history))
        assert lines_a == lines_b

    def test_different_seeds_differ(self):
        base = dict(n_files=10, n_revisions=18, warnings_per_revision=5)
        a = generate(SynthConfig(seed=1, **base))
        b = generate(SynthConfig(seed=2, **base))
        assert a.history != b.history


class TestSoundRegime:
    def test_heuristic_matches_truth_without_confounders(self):
        # No incidental closes, no deletions, and every fix lands before the
        # reference revision: the heuristic is a perfect oracle here.
        result = generate(SynthConfig(seed=3, n_files=12, n_revisions=30,
                                      warnings_per_revision=5,
                                      true_actionable_rate=0.5,
                                      fix_delay_days=(100.0, 300.0),
                                      incidental_close_rate=0.0,
                                      file_delete_rate=0.0))
        h, a = result.history, result.anchors
        labels = heuristic_label(h, a.test, a.reference)
        assert labels  # fixture sanity
        for lw in labels:
            truth = result.truth[lw.key]
            expected = (Label.ACTIONABLE if truth.nature == "actionable"
                        else Label.FALSE_ALARM)
            assert lw.label is expected


class TestPlantedDelays:
    @pytest.mark.parametrize("seed", range(4))
    def test_year_scale_delays_raise_ratio_with_interval(self, seed):
        result = generate(SynthConfig(seed=seed, n_files=15, n_revisions=62,
                                      warnings_per_revision=5,
                                      true_actionable_rate=0.8,
                                      fix_delay_days=(365.0, 1460.0)))
        h = result.history
        at = h.revisions[10].id
        table = sweep_reference(h, at, [730.0, 1460.0])
        two_year, four_year = table.rows
        assert not two_year.skipped and not four_year.skipped
        assert two_year.ratio is not None and four_year.ratio is not None
        assert four_year.ratio > two_year.ratio


class TestIncidentalCloses:
    @staticmethod
    def _unconfirmed_share(seed: int, rate: float) -> float:
        result = generate(SynthConfig(seed=seed, n_files=8, n_revisions=20,
                                      warnings_per_revision=4,
                                      true_actionable_rate=0.4,
                                      fix_delay_days=(60.0, 200.0),
                                      incidental_close_rate=rate))
        h, a = result.history, result.anchors
        labels = heuristic_label(h, a.test, a.reference)
        closed = [lw for lw in labels if lw.label is Label.ACTIONABLE]
        if not closed:
            return 0.0
        wrong = sum(1 for lw in closed
                    if result.truth[lw.key].nature != "actionable")
        return wrong / len(closed)

    def test_raising_incidental_rate_raises_unconfirmed_share(self):
        seeds = range(20)
        low = sum(self._unconfirmed_share(s, 0.05) for s in seeds) / 20
        high = sum(self._unconfirmed_share(s, 0.6) for s in seeds) / 20
        assert high > low


class TestDuplicationPressure:
    def test_audit_rate_tracks_pressure(self):
        pressure = 0.8
        result = generate(SynthConfig(seed=77, n_files=60, n_revisions=20,
                                      warnings_per_revision=70,
                                      true_actionable_rate=0.5,
                                      fix_delay_days=(2000.0, 3000.0),
                                      duplication_pressure=pressure))
        h, a = result.history, result.anchors
        ds = build_dataset(h, a.train, a.test, a.reference, LeakMode.leakfree(),
                           dedup=False)
        assert len(ds.test) >= 1000
        report = audit_duplication(ds)
        assert abs(report.rate - pressure) <= 0.05


class TestValidation:
    def test_zero_revisions_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(seed=0, n_revisions=0)

    @pytest.mark.parametrize("settings,message", [
        ({"n_files": 0}, "need at least 1 file"),
        ({"warnings_per_revision": -1}, "warnings_per_revision must be >= 0"),
    ])
    def test_counts_bounded_below(self, settings, message):
        with pytest.raises(ValidationError, match=message):
            SynthConfig(seed=0, **settings)

    def test_rates_bounded(self):
        with pytest.raises(ValidationError):
            SynthConfig(seed=0, true_actionable_rate=1.5)
        with pytest.raises(ValidationError):
            SynthConfig(seed=0, fix_delay_days=(100.0, 50.0))

    def test_anchor_room_required(self):
        with pytest.raises(ValidationError):
            generate(SynthConfig(seed=0, n_revisions=2))


class TestTruthSidecar:
    def test_truth_covers_every_key_and_serializes(self):
        result = generate(SynthConfig(seed=8, n_files=8, n_revisions=16,
                                      warnings_per_revision=4,
                                      file_delete_rate=0.3))
        h = result.history
        observed = {o.key for group in h.warnings_at for o in group}
        assert observed == set(result.truth)
        payload = result.truth_json()
        assert payload["anchors"]["train"] == result.anchors.train
        assert len(payload["warnings"]) == len(result.truth)
        natures = {w["nature"] for w in payload["warnings"]}
        assert natures <= {"actionable", "false_alarm"}


class TestClosureSchedule:
    def test_fix_with_no_delay_closes_at_the_next_revision(self):
        """A fix scheduled at its warning's birth is moved one revision on,
        so the warning is observed once."""
        result = generate(SynthConfig(seed=4, n_files=6, n_revisions=12, warnings_per_revision=2,
                                      true_actionable_rate=1.0, fix_delay_days=(0.0, 0.0)))
        seen: dict = {}
        for idx, group in enumerate(result.history.warnings_at):
            for obs in group:
                seen.setdefault(obs.key, []).append(idx)
        assert seen.keys() == result.truth.keys()
        for key, indexes in seen.items():
            (born,) = indexes
            assert result.truth[key].closed_day == (born + 1) * REVISION_INTERVAL_DAYS


class TestConfigBounds:
    """``from_json`` refuses a config too large to generate, before any
    allocation; ``generate`` is never called on one."""

    @pytest.mark.parametrize("settings,message", [
        ({"n_files": 10 ** 6 + 1}, "n_files must be <= 1000000"),
        ({"n_files": 10 ** 12}, "n_files must be <= 1000000"),
        ({"n_revisions": 10 ** 4 + 1, "warnings_per_revision": 1}, "n_revisions"),
        ({"n_revisions": 10 ** 4 + 1, "warnings_per_revision": 0}, "n_revisions"),
        ({"n_revisions": 100, "warnings_per_revision": 10 ** 4 + 1}, "warnings_per_revision"),
        ({"n_revisions": 2 ** 62, "warnings_per_revision": 2 ** 62}, "warnings_per_revision"),
    ])
    def test_oversized_config_refused(self, settings, message):
        with pytest.raises(ValidationError, match=message):
            SynthConfig.from_json({"seed": 1, **settings})

    @pytest.mark.parametrize("files,revisions,per_revision", [
        (40, 40, 10), (80, 80, 20), (160, 120, 40),  # ROADMAP's S, M and L
        (10 ** 6, 100, 10 ** 4), (1, 10 ** 4, 1),  # at the bounds
    ])
    def test_bounded_config_accepted(self, files, revisions, per_revision):
        config = SynthConfig.from_json({"seed": 1, "n_files": files, "n_revisions": revisions,
                                        "warnings_per_revision": per_revision})
        assert (config.n_files, config.n_revisions, config.warnings_per_revision) == (
            files, revisions, per_revision)
