"""Records are ``typing.NamedTuple``s: each hashes and compares as the tuple
of its fields, as the frozen dataclasses they replaced did, so every set and
dict of records iterates in the same order and every artifact keeps its
bytes. A record that checks its fields refuses in ``__new__`` what it
refused before, and ``ProjectHistory``, which caches its indexes, equals a
history by its four tuples."""

from __future__ import annotations

import math

import pytest

from warnlab.dataset import build_dataset
from warnlab.errors import ModelError, ValidationError
from warnlab.history import ProjectHistory, truncate_history
from warnlab.models import ColumnManifest, Model
from warnlab.oracle import FilterRule
from warnlab.schema import LeakMode
from warnlab.synth import MAX_FILES, SynthConfig, generate

_CONFIG = SynthConfig(seed=5, n_files=8, n_revisions=24, warnings_per_revision=4,
                      incidental_close_rate=0.2, file_delete_rate=0.1)


@pytest.fixture(scope="module")
def synth():
    return generate(_CONFIG)


def _hashed_records(synth) -> dict[str, list]:
    """Instances of each record that a set, a dict key or a Counter holds."""
    h, a = synth.history, synth.anchors
    built = build_dataset(h, a.train, a.test, a.reference, LeakMode.leakfree(), dedup=True)
    return {
        "WarningObservation": [o for group in h.warnings_at for o in group],
        "FileChangeRecord": [c for group in h.changes_at for c in group],
        "StaticAttributes": [s for attrs in h.attrs_at for s in attrs.values()],
        "LabeledInstance": list(built.train + built.test),
        "FeatureVector": [inst.features for inst in built.train + built.test],
    }


@pytest.mark.parametrize("name", ["WarningObservation", "FileChangeRecord", "StaticAttributes",
                                  "LabeledInstance", "FeatureVector"])
def test_hash_is_the_hash_of_its_fields(synth, name):
    """A frozen dataclass hashed the tuple of its fields: equal hashes keep
    each set's order, and with it the artifact bytes."""
    records = _hashed_records(synth)[name]
    assert records
    for record in records:
        fields = tuple(getattr(record, field) for field in record._fields)
        assert record == fields and hash(record) == hash(fields)
    assert list(frozenset(records)) == list(frozenset(map(tuple, records)))


_MANIFEST = ColumnManifest((), ())


@pytest.mark.parametrize("make,error,message", [
    (lambda: LeakMode("bogus"), ValidationError, "mode must be 'leaky' or 'leakfree'"),
    (lambda: LeakMode(mode="leakfree", window_days=0.0), ValidationError, "window_days"),
    (lambda: LeakMode("leakfree", -1.0), ValidationError, "window_days"),
    (lambda: LeakMode("leaky", math.inf), ValidationError, "window_days"),
    (lambda: LeakMode("leaky", math.nan), ValidationError, "window_days"),
    (lambda: Model("bogus", 0, _MANIFEST, {}), ModelError, "unknown model kind 'bogus'"),
    (lambda: Model(kind="", seed=0, manifest=_MANIFEST, params={}), ModelError, "unknown"),
    (lambda: FilterRule("A", False, frozenset()), ValidationError, "at least one bug pattern"),
    (lambda: SynthConfig(seed=0, n_revisions=1), ValidationError, "at least 2 revisions"),
    (lambda: SynthConfig(0, 0), ValidationError, "at least 1 file"),
    (lambda: SynthConfig(seed=0, warnings_per_revision=-1), ValidationError, ">= 0"),
    (lambda: SynthConfig(seed=0, n_files=MAX_FILES + 1), ValidationError, "n_files must be"),
    (lambda: SynthConfig(seed=0, n_revisions=10 ** 5), ValidationError, "n_revisions\\*\\*2"),
    *[(lambda name=name, value=value: SynthConfig(seed=0, **{name: value}), ValidationError,
       f"{name} must lie in \\[0, 1\\]")
      for name in ("true_actionable_rate", "incidental_close_rate", "file_delete_rate",
                   "duplication_pressure")
      for value in (-0.1, 1.5, math.nan)],
    *[(lambda delay=delay: SynthConfig(seed=0, fix_delay_days=delay), ValidationError,
       "fix_delay_days")
      for delay in ((100.0, 50.0), (-1.0, 5.0), (0.0, math.inf), (math.nan, 1.0))],
])
def test_checked_records_refuse_what_they_refused(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_checked_records_keep_their_type_and_fields():
    mode = LeakMode("leakfree", 30.0)
    assert type(mode) is LeakMode and mode == ("leakfree", 30.0) and not mode.is_leaky
    assert repr(mode) == "LeakMode(mode='leakfree', window_days=30.0)"
    assert (LeakMode.leaky(), LeakMode.leakfree()) == (("leaky", 365.0), ("leakfree", 365.0))
    assert SynthConfig.from_json(_CONFIG.to_json()) == _CONFIG
    with pytest.raises(AttributeError):
        mode.window_days = 1.0


def test_history_equals_by_its_four_tuples(synth):
    h = synth.history
    again = ProjectHistory(h.revisions, h.warnings_at, h.changes_at, h.attrs_at)
    assert h.universe  # a cached index takes no part in equality
    assert h == again and not h != again
    assert h != truncate_history(h, h.revisions[-2].id)
    fields = (h.revisions, h.warnings_at, h.changes_at, h.attrs_at)
    assert h.__eq__(fields) is NotImplemented and h != fields
    with pytest.raises(TypeError):
        hash(h)
