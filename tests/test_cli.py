from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import warnlab
from warnlab.cli import UsageError, main, parse_duration_days
from warnlab.features import LeakMode, build_universe, extract_golden
from warnlab.history import emit_ledger, ingest_ledger, truncate_history
from warnlab.keys import KEY_COLUMNS
from warnlab.synth import SynthConfig, generate

from conftest import attrs_line, change_line, rev_line, warn_line


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path) -> Path:
    out = tmp_path / "synth"
    config = {
        "seed": 19, "n_files": 10, "n_revisions": 24, "warnings_per_revision": 6,
        "true_actionable_rate": 0.6, "fix_delay_days": [240.0, 330.0],
        "duplication_pressure": 0.6, "leak_signal": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run("synth", "--config", str(cfg_path), "--out", str(out)) == 0
    return out


def _anchors(synth_dir: Path) -> dict:
    truth = json.loads((synth_dir / "truth.json").read_text(encoding="utf-8"))
    return truth["anchors"]


@pytest.fixture(scope="module")
def fitted_dir(tmp_path_factory) -> Path:
    """A built leak-free dataset (``ds``) and a kNN model fitted on it (``model``)."""
    root = tmp_path_factory.mktemp("fitted")
    out = root / "synth"
    assert run("synth", "--seed", "19", "--out", str(out)) == 0
    anchors = _anchors(out)
    assert run("build", "--ledger", str(out / "ledger.jsonl"), "--train", anchors["train"],
               "--test", anchors["test"], "--ref", anchors["reference"],
               "--mode", "leakfree", "--dedup", "--out", str(root / "ds")) == 0
    assert run("fit", "--dataset", str(root / "ds"), "--model-kind", "knn",
               "--k", "3", "--out", str(root / "model")) == 0
    return root


# A well-formed annotation line, which the contract tests corrupt one field at a time.
_NOTE = {"annotator": "rev1", "bug_pattern": "P", "file_path": "src/A.java",
         "entity": {"package": "com.a", "class": "A", "method": None}, "label": "FalseAlarm"}


class TestDurations:
    def test_units(self):
        assert parse_duration_days("730d") == 730.0
        assert parse_duration_days("2y") == 730.0
        assert parse_duration_days("3m") == 90.0
        assert parse_duration_days("1w") == 7.0
        assert parse_duration_days("42") == 42.0

    @pytest.mark.parametrize("text", ["abc", "", "d", "0d", "-2y", "nan", "inf", "1e400d"])
    def test_not_a_finite_positive_duration(self, text):
        with pytest.raises(UsageError, match="finite number of days above 0"):
            parse_duration_days(text)

    @pytest.mark.parametrize("argv", [
        ["features", "--mode", "leakfree", "--window", "abc"],
        ["features", "--mode", "leakfree", "--window", "nan"],
        ["build", "--mode", "leakfree", "--window", "inf"],
        ["sweep", "--intervals", "abc"],
        ["sweep", "--intervals", "nan,inf"],
    ])
    def test_bad_duration_argument_is_usage_error(self, synth_dir, tmp_path, capsys, argv):
        anchors = _anchors(synth_dir)
        by_command = {
            "features": ["--at", anchors["test"]],
            "build": ["--train", anchors["train"], "--test", anchors["test"],
                      "--ref", anchors["reference"]],
            "sweep": ["--at", anchors["train"]],
        }
        code = run(*argv, "--ledger", str(synth_dir / "ledger.jsonl"), *by_command[argv[0]],
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]: duration must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("intervals", ["", ",", "1y,365d", "90d,2y,90d"])
    def test_empty_or_repeated_intervals_are_usage_error(self, synth_dir, tmp_path, capsys,
                                                         intervals):
        """A sweep once wrote no rows for an empty list, and for a repeated
        interval two rows that report --merge then refused."""
        code = run("sweep", "--ledger", str(synth_dir / "ledger.jsonl"),
                   "--at", _anchors(synth_dir)["train"], "--intervals", intervals,
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[usage]: --intervals needs distinct durations, got {intervals!r}\n")
        assert not (tmp_path / "out").exists()


class TestBasicFlow:
    def test_synth_ingest_label(self, synth_dir, tmp_path, capsys):
        ledger = synth_dir / "ledger.jsonl"
        assert run("ingest", "--ledger", str(ledger)) == 0
        assert "ok:" in capsys.readouterr().out

        anchors = _anchors(synth_dir)
        out = tmp_path / "labels"
        assert run("label", "--ledger", str(ledger), "--at", anchors["test"],
                   "--ref", anchors["reference"], "--out", str(out)) == 0
        summary = json.loads((out / "label_summary.json").read_text())
        assert summary["counts"]["Actionable"] > 0
        assert (out / "labels.csv").exists()

    def test_sweep_and_merged_wilcoxon(self, tmp_path, capsys):
        sweep_files = []
        for seed in range(8):
            sdir = tmp_path / f"s{seed}"
            cfg = tmp_path / f"cfg{seed}.json"
            cfg.write_text(json.dumps({
                "seed": seed, "n_files": 12, "n_revisions": 62,
                "warnings_per_revision": 4, "true_actionable_rate": 0.8,
                "fix_delay_days": [365.0, 1460.0],
            }), encoding="utf-8")
            assert run("synth", "--config", str(cfg), "--out", str(sdir)) == 0
            ledger = sdir / "ledger.jsonl"
            at = "r0010"
            swdir = tmp_path / f"sweep{seed}"
            assert run("sweep", "--ledger", str(ledger), "--at", at,
                       "--intervals", "2y,4y", "--project", f"proj{seed}",
                       "--out", str(swdir)) == 0
            sweep_files.append(str(swdir / "sweep.json"))
        merged = tmp_path / "merged"
        assert run("report", "--merge", *sweep_files,
                   "--wilcoxon", "2y", "4y", "--out", str(merged)) == 0
        payload = json.loads((merged / "merged.json").read_text())
        assert payload["wilcoxon"]["p_value"] < 0.05

    def test_build_fit_eval_audit(self, synth_dir, tmp_path, capsys):
        ledger = synth_dir / "ledger.jsonl"
        anchors = _anchors(synth_dir)
        dsdir = tmp_path / "ds"
        assert run("build", "--ledger", str(ledger), "--train", anchors["train"],
                   "--test", anchors["test"], "--ref", anchors["reference"],
                   "--mode", "leakfree", "--dedup", "--out", str(dsdir)) == 0
        mdir = tmp_path / "model"
        assert run("fit", "--dataset", str(dsdir), "--model-kind", "knn",
                   "--k", "3", "--out", str(mdir)) == 0
        edir = tmp_path / "eval"
        assert run("eval", "--dataset", str(dsdir), "--model",
                   str(mdir / "model.json"), "--project", "demo",
                   "--out", str(edir)) == 0
        report = json.loads((edir / "report.json").read_text())
        assert set(report["counts"]) == {"tp", "fp", "fn", "tn"}
        adir = tmp_path / "audit"
        assert run("audit", "--dataset", str(dsdir), "--ledger", str(ledger),
                   "--out", str(adir)) == 0
        audit = json.loads((adir / "audit.json").read_text())
        assert audit["duplication"]["rate"] == 0.0
        assert audit["leakage_guard"]["checked"] is True
        assert audit["leakage_guard"]["ok"] is True


class TestFilterFile:
    """``label --filter-file`` marks still-open warnings that a FindBugsFilter
    file suppresses; a malformed file ends as error[validation]."""

    def _label(self, synth_dir, tmp_path, *options) -> int:
        anchors = _anchors(synth_dir)
        return run("label", "--ledger", str(synth_dir / "ledger.jsonl"), "--at",
                   anchors["test"], "--ref", anchors["reference"], *options,
                   "--out", str(tmp_path / "out"))

    def test_filter_block_counts_matched_open_warnings(self, synth_dir, tmp_path):
        assert self._label(synth_dir, tmp_path / "plain") == 0
        with open(tmp_path / "plain" / "out" / "labels.csv", encoding="utf-8") as fp:
            still_open = [row for row in csv.DictReader(fp) if row["reason"] == "StillOpen"]
        pattern = still_open[0]["bug_pattern"]
        matched = [row for row in still_open if row["bug_pattern"] == pattern]
        (tmp_path / "filter.xml").write_text(
            '<?xml version="1.0"?>\n<FindBugsFilter>\n'
            f'  <Match><Class name-prefix="com."/><Bug pattern="{pattern}"/></Match>\n'
            '  <Match><Class name="NoSuchClass"/><Bug pattern="NO_SUCH_PATTERN"/></Match>\n'
            '</FindBugsFilter>\n', encoding="utf-8")
        assert self._label(synth_dir, tmp_path, "--filter-file",
                           str(tmp_path / "filter.xml")) == 0
        summary = json.loads((tmp_path / "out" / "label_summary.json").read_text())
        assert summary["filter"] == {"open": len(still_open), "filtered": len(matched),
                                     "filtered_share": len(matched) / len(still_open)}
        with open(tmp_path / "out" / "labels.csv", encoding="utf-8") as fp:
            filtered = [row for row in csv.DictReader(fp) if row["reason"] == "FilterMatched"]
        assert [(row["bug_pattern"], row["label"]) for row in filtered] == [
            (pattern, "FalseAlarm")] * len(matched)

    @pytest.mark.parametrize("text,message", [
        ("<FindBugsFilter><Match>", "invalid filter file XML: "),
        ("<Filter/>", "expected top element FindBugsFilter, got 'Filter'"),
        ('<FindBugsFilter><Match><Bug pattern="P"/></Match></FindBugsFilter>',
         "Match element without a Class element"),
        ('<FindBugsFilter><Match><Class name="A" name-prefix="B"/><Bug pattern="P"/></Match>'
         '</FindBugsFilter>', "Class element needs exactly one of name / name-prefix"),
        ('<?xml version="1.0"?><!DOCTYPE b [<!ENTITY a "aaaaaaaaaa">'
         + "".join(f'<!ENTITY {"a" * (i + 2)} "{("&" + "a" * (i + 1) + ";") * 10}">'
                   for i in range(8))
         + ']><FindBugsFilter><Match><Class name="&aaaaaaaaa;"/></Match></FindBugsFilter>',
         "invalid filter file XML: limit on input amplification factor"),  # 10**10 bytes
    ], ids=["invalid-xml", "wrong-root", "match-without-class", "name-and-prefix", "bomb"])
    def test_malformed_filter_file_is_validation_error(self, synth_dir, tmp_path, capsys,
                                                       text, message):
        (tmp_path / "filter.xml").write_text(text, encoding="utf-8")
        code = self._label(synth_dir, tmp_path, "--filter-file", str(tmp_path / "filter.xml"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[validation]: {message}") and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    def test_annotator_picks_its_labels(self, synth_dir, tmp_path):
        assert self._label(synth_dir, tmp_path / "plain") == 0
        with open(tmp_path / "plain" / "out" / "labels.csv", encoding="utf-8") as fp:
            row = next(row for row in csv.DictReader(fp) if row["label"] == "FalseAlarm")
        key = {"bug_pattern": row["bug_pattern"], "file_path": row["file_path"],
               "entity": {"package": row["entity_package"], "class": row["entity_class"],
                          "method": row["entity_method"] or None}}
        notes = tmp_path / "notes.jsonl"
        notes.write_text("".join(json.dumps({**key, "annotator": who, "label": label}) + "\n"
                                 for who, label in (("rev1", "FalseAlarm"),
                                                    ("rev2", "Actionable"))), encoding="utf-8")
        for who, label, reason in (("rev1", "FalseAlarm", "StillOpen"),
                                   ("rev2", "Actionable", "ManualOverride")):
            assert self._label(synth_dir, tmp_path / who, "--annotations", str(notes),
                               "--annotator", who) == 0
            with open(tmp_path / who / "out" / "labels.csv", encoding="utf-8") as fp:
                (got,) = [r for r in csv.DictReader(fp)
                          if [r[c] for c in KEY_COLUMNS] == [row[c] for c in KEY_COLUMNS]]
            assert (got["label"], got["reason"]) == (label, reason)


class TestLeakageGuard:
    """``audit --ledger`` rebuilds a leak-free dataset from the ledger and
    compares it with the stored one. The guard once extracted twice from the
    same cut and never read the dataset, so each case below read ok."""

    def _guard(self, dsdir: Path, ledger: Path, out: Path) -> dict:
        assert run("audit", "--dataset", str(dsdir), "--ledger", str(ledger),
                   "--out", str(out)) == 0
        return json.loads((out / "audit.json").read_text(encoding="utf-8"))["leakage_guard"]

    def test_other_projects_ledger_is_violated(self, fitted_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run("synth", "--seed", "20", "--out", str(other)) == 0
        guard = self._guard(fitted_dir / "ds", other / "ledger.jsonl", tmp_path / "audit")
        assert guard["checked"] is True and guard["ok"] is False
        assert all(rev["mismatched"] > 0 for rev in guard["revisions"])
        assert capsys.readouterr().out.endswith("leakage guard: VIOLATED\n")

    def test_one_ulp_in_one_test_row_is_one_mismatch(self, fitted_dir, tmp_path):
        dsdir = tmp_path / "ds"
        shutil.copytree(fitted_dir / "ds", dsdir)
        path = dsdir / "test.csv"
        with open(path, encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        col = rows[0].index("comment-code ratio")
        rows[1][col] = repr(math.nextafter(float(rows[1][col]), math.inf))
        with open(path, "w", encoding="utf-8", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)
        guard = self._guard(dsdir, fitted_dir / "synth" / "ledger.jsonl", tmp_path / "audit")
        meta = json.loads((dsdir / "meta.json").read_text(encoding="utf-8"))
        assert guard == {"checked": True, "ok": False, "revisions": [
            {"revision": meta["train_rev"], "ok": True, "mismatched": 0},
            {"revision": meta["test_rev"], "ok": False, "mismatched": 1}]}

    def test_edited_window_is_violated(self, fitted_dir, tmp_path):
        ledger = fitted_dir / "synth" / "ledger.jsonl"
        anchors = _anchors(fitted_dir / "synth")
        dsdir = tmp_path / "ds"
        assert run("build", "--ledger", str(ledger), "--train", anchors["train"],
                   "--test", anchors["test"], "--ref", anchors["reference"],
                   "--mode", "leakfree", "--window", "180d", "--out", str(dsdir)) == 0
        assert self._guard(dsdir, ledger, tmp_path / "before")["ok"] is True
        meta = json.loads((dsdir / "meta.json").read_text(encoding="utf-8"))
        assert meta["window_days"] == 180.0
        (dsdir / "meta.json").write_text(json.dumps({**meta, "window_days": 365.0}),
                                         encoding="utf-8")
        assert self._guard(dsdir, ledger, tmp_path / "after")["ok"] is False

    def test_leaky_dataset_is_skipped_with_a_note(self, fitted_dir, tmp_path, capsys):
        ledger = fitted_dir / "synth" / "ledger.jsonl"
        anchors = _anchors(fitted_dir / "synth")
        dsdir = tmp_path / "ds"
        assert run("build", "--ledger", str(ledger), "--train", anchors["train"],
                   "--test", anchors["test"], "--ref", anchors["reference"],
                   "--mode", "leaky", "--out", str(dsdir)) == 0
        capsys.readouterr()
        note = ("dataset was built in leaky mode; the time-travel guard only applies "
                "to leak-free extraction")
        assert self._guard(dsdir, ledger, tmp_path / "audit") == {"checked": False, "note": note}
        assert capsys.readouterr().out.endswith(f"leakage guard: skipped ({note})\n")


class TestLeakDemoPipeline:
    def test_leaky_mode_beats_leakfree_on_planted_leak_signal(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5, "n_files": 4, "n_revisions": 36, "warnings_per_revision": 8,
            "true_actionable_rate": 0.7, "fix_delay_days": [200.0, 500.0],
            "duplication_pressure": 0.55, "leak_signal": True,
        }), encoding="utf-8")
        sdir = tmp_path / "synth"
        assert run("synth", "--config", str(cfg), "--out", str(sdir)) == 0
        ledger = sdir / "ledger.jsonl"
        anchors = _anchors(sdir)
        f1 = {}
        for mode in ("leaky", "leakfree"):
            dsdir = tmp_path / f"ds-{mode}"
            argv = ["build", "--ledger", str(ledger), "--train", anchors["train"],
                    "--test", anchors["test"], "--ref", anchors["reference"],
                    "--mode", mode, "--dedup", "--out", str(dsdir)]
            assert run(*argv) == 0
            mdir = tmp_path / f"model-{mode}"
            assert run("fit", "--dataset", str(dsdir), "--model-kind", "linear",
                       "--seed", "11", "--out", str(mdir)) == 0
            edir = tmp_path / f"eval-{mode}"
            assert run("eval", "--dataset", str(dsdir), "--model",
                       str(mdir / "model.json"), "--out", str(edir)) == 0
            f1[mode] = json.loads((edir / "report.json").read_text())["f1"]
        assert f1["leaky"] > f1["leakfree"]


class TestContracts:
    def test_leakfree_with_reference_is_usage_error(self, synth_dir, tmp_path, capsys):
        ledger = synth_dir / "ledger.jsonl"
        anchors = _anchors(synth_dir)
        code = run("features", "--ledger", str(ledger), "--at", anchors["test"],
                   "--mode", "leakfree", "--ref", anchors["reference"],
                   "--out", str(tmp_path / "f"))
        assert code == 2
        assert "error[usage]" in capsys.readouterr().err

    def test_leaky_without_reference_is_usage_error(self, synth_dir, tmp_path, capsys):
        ledger = synth_dir / "ledger.jsonl"
        anchors = _anchors(synth_dir)
        code = run("features", "--ledger", str(ledger), "--at", anchors["test"],
                   "--mode", "leaky", "--out", str(tmp_path / "f"))
        assert code == 2

    @pytest.mark.parametrize("where", ["equal", "before"])
    @pytest.mark.parametrize("command", ["label", "features", "build"])
    def test_reference_not_after_is_ordering_error(self, synth_dir, tmp_path, capsys,
                                                   command, where):
        """features --mode leaky once ended as error[validation] here, from a
        check of its own; label and build end as error[ordering]."""
        anchors = _anchors(synth_dir)
        at = anchors["test"]
        ref = at if where == "equal" else anchors["train"]
        revisions = {"label": ["--at", at],
                     "features": ["--at", at, "--mode", "leaky"],
                     "build": ["--train", anchors["train"], "--test", at, "--mode", "leaky"]}
        code = run(command, "--ledger", str(synth_dir / "ledger.jsonl"), *revisions[command],
                   "--ref", ref, "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error[ordering]: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 63), str(2 ** 70)])
    @pytest.mark.parametrize("kind", ["knn", "linear"])
    def test_fit_seed_outside_64_bits_is_usage_error(self, fitted_dir, tmp_path, capsys,
                                                     kind, seed):
        """A linear fit with seed -1 once ended in numpy's ValueError
        traceback, and a seed of 2**70 wrote a model.json eval refused."""
        code = run("fit", "--dataset", str(fitted_dir / "ds"), "--model-kind", kind,
                   "--seed", seed, "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[usage]: --seed must lie in 0..2**63-1, got {seed}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["knn", "linear"])
    def test_largest_fit_seed_round_trips(self, fitted_dir, tmp_path, kind):
        seed = 2 ** 63 - 1
        assert run("fit", "--dataset", str(fitted_dir / "ds"), "--model-kind", kind,
                   "--seed", str(seed), "--out", str(tmp_path / "fit")) == 0
        model = tmp_path / "fit" / "model.json"
        assert json.loads(model.read_text(encoding="utf-8"))["seed"] == seed
        assert run("eval", "--dataset", str(fitted_dir / "ds"), "--model", str(model),
                   "--out", str(tmp_path / "eval")) == 0

    @pytest.mark.parametrize("config", [None, {"seed": 1, "n_files": 4}])
    def test_synth_seed_outside_64_bits_is_validation_error(self, tmp_path, capsys, config):
        """synth --seed 2**70 once wrote a truth.json whose config synth
        --config then refused."""
        argv = ["synth", "--seed", str(2 ** 70), "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: ") and "'seed'" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["features", "build"])
    def test_leaky_with_window_is_usage_error(self, synth_dir, tmp_path, capsys, command):
        """A window shapes leak-free populations only; leaky mode used to
        accept one, exit 0 and write its default 365 days into meta.json."""
        anchors = _anchors(synth_dir)
        revisions = {"features": ["--at", anchors["test"]],
                     "build": ["--train", anchors["train"], "--test", anchors["test"]]}
        code = run(command, "--ledger", str(synth_dir / "ledger.jsonl"), *revisions[command],
                   "--ref", anchors["reference"], "--mode", "leaky", "--window", "30d",
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "error[usage]: --window conflicts with --mode leaky\n"
        assert not (tmp_path / "out").exists()

    def test_leakfree_window_defaults_to_a_year(self, fitted_dir):
        meta = json.loads((fitted_dir / "ds" / "meta.json").read_text(encoding="utf-8"))
        assert (meta["mode"], meta["window_days"]) == ("leakfree", 365.0)

    def test_annotator_without_annotations_is_usage_error(self, synth_dir, tmp_path, capsys):
        anchors = _anchors(synth_dir)
        code = run("label", "--ledger", str(synth_dir / "ledger.jsonl"), "--at", anchors["test"],
                   "--ref", anchors["reference"], "--annotator", "rev1",
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "error[usage]: --annotator requires --annotations\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options,category", [
        (["--annotations", ""], "io"),
        (["--filter-file", ""], "io"),
        (["--annotations", "notes.jsonl", "--annotator", ""], "validation"),
    ], ids=["annotations", "filter-file", "annotator"])
    def test_empty_option_value_is_not_absent(self, synth_dir, tmp_path, capsys, monkeypatch,
                                              options, category):
        """An empty path or annotator once read as an absent option: label
        exited 0 with no override or filter applied."""
        (tmp_path / "notes.jsonl").write_text(json.dumps(_NOTE) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        anchors = _anchors(synth_dir)
        code = run("label", "--ledger", str(synth_dir / "ledger.jsonl"), "--at", anchors["test"],
                   "--ref", anchors["reference"], *options, "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error[{category}]: ")
        assert not (tmp_path / "out").exists()

    def test_parse_error_categorized(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run("ingest", "--ledger", str(bad)) == 1
        assert "error[parse]" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field, value", [
        ("revision", "timestamp", 10 ** 400),
        ("warning", "line", 10 ** 400),
        ("change", "lines_added", 2 ** 63),
        ("attrs", "method_depth", 10 ** 400),
        ("attrs", "file_depth", -(2 ** 63) - 1),
    ])
    @pytest.mark.parametrize("command", [
        ("build", "--train", "r0", "--test", "r1", "--ref", "r2", "--mode", "leakfree"),
        ("features", "--at", "r2", "--mode", "leakfree"),
    ], ids=["build", "features"])
    def test_integer_outside_64_bits_is_parse_error(self, tmp_path, capsys, command, kind,
                                                    field, value):
        """An integer with no float value once passed ingest and ended in an
        OverflowError traceback inside extraction."""
        lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None)
                 for i in range(3)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=10)]
        lines += [line for rid in ("r0", "r1", "r2") for line in (warn_line(rid), attrs_line(rid))]
        number = max(n for n, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        record = json.loads(lines[number])
        record[field] = value
        lines[number] = json.dumps(record)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(command[0], "--ledger", str(ledger), *command[1:], "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[parse]: line {number + 1}: bad {kind} record: {field} ")
        assert "Traceback" not in err

    def test_missing_file_categorized(self, tmp_path, capsys):
        assert run("ingest", "--ledger", str(tmp_path / "nope.jsonl")) == 1
        assert "error[io]" in capsys.readouterr().err

    def test_directory_as_ledger_categorized(self, tmp_path, capsys):
        assert run("ingest", "--ledger", str(tmp_path)) == 1
        assert "error[io]" in capsys.readouterr().err

    def _corrupt_copy(self, fitted_dir, tmp_path) -> tuple[Path, Path]:
        shutil.copytree(fitted_dir / "ds", tmp_path / "ds")
        shutil.copytree(fitted_dir / "model", tmp_path / "model")
        return tmp_path / "ds", tmp_path / "model" / "model.json"

    def _assert_eval_and_audit_fail(self, dsdir, model, category, capsys):
        for argv in (["eval", "--dataset", str(dsdir), "--model", str(model)],
                     ["audit", "--dataset", str(dsdir)]):
            code = run(*argv, "--out", str(dsdir.parent / "out"))
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.startswith(f"error[{category}]"), (argv, err)

    @pytest.mark.parametrize("text", [
        "{bad", "[]", '{"train_rev": "r1"}',
        '{"train_rev": "r1", "test_rev": "r2", "ref_rev": "r3", "mode": "leakfree", '
        '"dedup": "yes"}',
        '{"train_rev": "r1", "test_rev": "r2", "ref_rev": "r3", "mode": "leakfree", '
        '"window_days": Infinity, "dedup": true}',
        # Every field but window_days and dedup_removed: none has a default.
        '{"train_rev": "r1", "test_rev": "r2", "ref_rev": "r3", "mode": "leakfree", '
        '"dedup": true, "dropped_unknown_train": 0, "dropped_unknown_test": 0, "notices": []}',
        '{"train_rev": "r1", "test_rev": "r2", "ref_rev": "r3", "mode": "bogus", '
        '"window_days": 365.0, "dedup": true, "dropped_unknown_train": 0, '
        '"dropped_unknown_test": 0, "dedup_removed": 0, "notices": []}',
    ])
    def test_corrupt_meta_json_categorized(self, fitted_dir, tmp_path, capsys, text):
        dsdir, model = self._corrupt_copy(fitted_dir, tmp_path)
        (dsdir / "meta.json").write_text(text, encoding="utf-8")
        self._assert_eval_and_audit_fail(dsdir, model, "validation", capsys)

    @pytest.mark.parametrize("column,value", [
        ("file age", "abc"), ("developers", "2.5"), ("file age", "nan"),
        ("developers", "9" * 400),  # an integer with no float value
        ("label", "Unknown"), ("flags", None),  # None: drop the cell, a short row
        ("mode", "leaky"), ("origin_rev", "r9999"),  # contradicts meta.json
    ])
    def test_corrupt_test_csv_categorized(self, fitted_dir, tmp_path, capsys, column, value):
        dsdir, model = self._corrupt_copy(fitted_dir, tmp_path)
        path = dsdir / "test.csv"
        with open(path, encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        col = rows[0].index(column)
        if value is None:
            del rows[1][col]  # a short row
        else:
            rows[1][col] = value
        with open(path, "w", encoding="utf-8", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)
        self._assert_eval_and_audit_fail(dsdir, model, "validation", capsys)

    @pytest.mark.parametrize("command,unread", [("fit", "test.csv"), ("eval", "train.csv")])
    def test_model_commands_read_only_their_split(self, fitted_dir, tmp_path, command, unread):
        """fit reads meta.json and train.csv, and eval meta.json and test.csv:
        a corrupt copy of the other split once failed them both."""
        dsdir, model = self._corrupt_copy(fitted_dir, tmp_path)
        (dsdir / unread).write_text("{bad", encoding="utf-8")
        argv = {"fit": ["--model-kind", "knn"], "eval": ["--model", str(model)]}[command]
        assert run(command, "--dataset", str(dsdir), *argv, "--out", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("text", ["{bad", '{"format": "warnlab.model/1"}', "[1]"])
    def test_corrupt_model_json_categorized(self, fitted_dir, tmp_path, capsys, text):
        dsdir, model = self._corrupt_copy(fitted_dir, tmp_path)
        model.write_text(text, encoding="utf-8")
        code = run("eval", "--dataset", str(dsdir), "--model", str(model),
                   "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[model]"), err

    @pytest.mark.parametrize("text", ["{bad", '{"project": "x"}', "5",
                                      '[{"project": "x", "counts": {"tp": true}}]'])
    def test_corrupt_report_merge_input_categorized(self, tmp_path, capsys, text):
        bad = tmp_path / "report.json"
        bad.write_text(text, encoding="utf-8")
        assert run("report", "--merge", str(bad), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith(f"error[validation]: {bad}: ")

    def test_report_without_flags_categorized(self, tmp_path, capsys):
        from warnlab.evaluation import evaluate_predictions
        from warnlab.oracle import Label
        data = evaluate_predictions([Label.ACTIONABLE], [Label.ACTIONABLE], [1.0]).to_json()
        del data["flags"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run("report", "--merge", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith(
            f"error[validation]: {path}: report field 'flags' is missing")

    @pytest.mark.parametrize("text", ["{bad", "[1]", '{"seed": 1, "n_filez": 3}',
                                      '{"n_files": 3}', '{"seed": 1, "n_files": "3"}',
                                      '{"seed": 1, "fix_delay_days": [NaN, 5.0]}',
                                      '{"seed": 1, "fix_delay_days": [1.0, Infinity]}'])
    def test_corrupt_synth_config_categorized(self, tmp_path, capsys, text):
        bad = tmp_path / "cfg.json"
        bad.write_text(text, encoding="utf-8")
        assert run("synth", "--config", str(bad), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("error[validation]: ")

    @pytest.mark.parametrize("text,field", [
        ('{"seed": 1, "n_files": 2.5}', "n_files"),
        ('{"seed": "1"}', "seed"),
        ('{"seed": 1, "n_revisions": true}', "n_revisions"),
        ('{"seed": 1, "file_delete_rate": "0.1"}', "file_delete_rate"),
        ('{"seed": 1, "leak_signal": 1}', "leak_signal"),
        ('{"seed": 1, "fix_delay_days": [1.0]}', "fix_delay_days"),
        ('{"seed": 1, "fix_delay_days": [true, 2.0]}', "fix_delay_days"),
    ])
    def test_mistyped_synth_setting_named(self, tmp_path, capsys, text, field):
        bad = tmp_path / "cfg.json"
        bad.write_text(text, encoding="utf-8")
        assert run("synth", "--config", str(bad), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: ") and repr(field) in err, err

    @pytest.mark.parametrize("rows", [[{}], [5], [{"interval_days": 730.0}],
                                      [{"ratio": 0.5}], [{"interval_days": [1], "ratio": 0.5}]])
    def test_malformed_sweep_row_named(self, tmp_path, capsys, rows):
        paths = []
        for name in ("s1.json", "s2.json"):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps({"project": name, "rows": rows}), encoding="utf-8")
        code = run("report", "--merge", *map(str, paths), "--wilcoxon", "2y", "4y",
                   "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[validation]: {paths[0]}: "), err

    def test_repeated_sweep_interval_is_refused(self, synth_dir, tmp_path, capsys):
        """A sweep holds one row per interval: a 365-day row appended again
        with ratio 0.0 once replaced the first in the Wilcoxon test."""
        anchors = _anchors(synth_dir)
        assert run("sweep", "--ledger", str(synth_dir / "ledger.jsonl"), "--at",
                   anchors["train"], "--intervals", "90d,365d", "--project", "p1",
                   "--out", str(tmp_path / "sweep")) == 0
        payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text(encoding="utf-8"))
        (year,) = [row for row in payload["rows"] if row["interval_days"] == 365.0]
        assert year["ratio"] not in (None, 0.0)
        payload["rows"].append({**year, "ratio": 0.0})
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--merge", str(path), "--wilcoxon", "90d", "365d",
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error[validation]: {path}: sweep for p1 repeats interval 365.0 days\n")

    def test_repeated_sweep_project_is_refused(self, synth_dir, tmp_path, capsys):
        """Each sweep is one project's sample: one sweep merged twice was
        once tested as two projects."""
        assert run("sweep", "--ledger", str(synth_dir / "ledger.jsonl"), "--at",
                   _anchors(synth_dir)["train"], "--intervals", "90d,365d", "--project", "p1",
                   "--out", str(tmp_path / "sweep")) == 0
        sweep, copy = tmp_path / "sweep" / "sweep.json", tmp_path / "copy.json"
        copy.write_text(sweep.read_text(encoding="utf-8"), encoding="utf-8")
        for merge in ([sweep, sweep], [sweep, copy]):
            capsys.readouterr()
            assert run("report", "--merge", *map(str, merge), "--wilcoxon", "90d", "365d",
                       "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err == (
                f"error[validation]: {merge[1]}: sweep for p1 repeats an earlier sweep's project\n")

    @pytest.mark.parametrize("line,named", [
        (json.dumps({**_NOTE, "file_path": [1]}), "file_path"),
        (json.dumps({**_NOTE, "bug_pattern": 5}), "bug_pattern"),
        (json.dumps({**_NOTE, "annotator": 7}), "annotator"),
        (json.dumps({**_NOTE, "entity": {"package": "com.a", "class": None}}), "class"),
        ("[" * 100_000, "recursion"),  # nested too deep to decode
    ])
    def test_malformed_annotation_categorized(self, synth_dir, tmp_path, capsys, line, named):
        notes = tmp_path / "notes.jsonl"
        notes.write_text(line + "\n", encoding="utf-8")
        anchors = _anchors(synth_dir)
        code = run("label", "--ledger", str(synth_dir / "ledger.jsonl"),
                   "--at", anchors["test"], "--ref", anchors["reference"],
                   "--annotations", str(notes), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[validation]: annotation line 1: ") and named in err, err

    def test_unknown_model_kind_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--dataset", str(tmp_path), "--model-kind", "bogus")
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.update(format="warnlab.model/0"),
         "unsupported model file format: 'warnlab.model/0'"),
        (lambda m: m.update(kind="bogus"), "unknown model kind 'bogus'"),
        (lambda m: m["manifest"]["numeric"][0].__setitem__(2, 0.0),
         "manifest scales must be nonzero"),
        (lambda m: m["manifest"]["categorical"][0][1].extend(
            m["manifest"]["categorical"][0][1][:1]),
         "vocabulary of 'warning_pattern' must hold distinct strings"),
    ], ids=["format", "kind", "zero-scale", "repeated-vocabulary"])
    def test_model_json_out_of_contract_is_model_error(self, fitted_dir, tmp_path, capsys,
                                                       edit, message):
        dsdir, model = self._corrupt_copy(fitted_dir, tmp_path)
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = run("eval", "--dataset", str(dsdir), "--model", str(model),
                   "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"error[model]: {message}\n"

    def test_empty_train_split_is_validation_error(self, fitted_dir, tmp_path, capsys):
        dsdir, _ = self._corrupt_copy(fitted_dir, tmp_path)
        header = (dsdir / "train.csv").read_text(encoding="utf-8").splitlines(keepends=True)[0]
        (dsdir / "train.csv").write_text(header, encoding="utf-8")
        assert run("fit", "--dataset", str(dsdir), "--model-kind", "knn",
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            "error[validation]: dataset has an empty training split\n")

    def test_empty_dedup_test_split_is_noticed_and_not_evaluated(self, tmp_path, capsys):
        """Every warning of this ledger opens before the train anchor, so
        dedup keeps no test warning: build says so, and eval refuses the split."""
        (tmp_path / "cfg.json").write_text(json.dumps({
            "seed": 3, "n_files": 10, "n_revisions": 24, "warnings_per_revision": 3,
            "duplication_pressure": 1.0}), encoding="utf-8")
        assert run("synth", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "synth")) == 0
        anchors = _anchors(tmp_path / "synth")
        capsys.readouterr()
        assert run("build", "--ledger", str(tmp_path / "synth" / "ledger.jsonl"),
                   "--train", anchors["train"], "--test", anchors["test"],
                   "--ref", anchors["reference"], "--mode", "leakfree", "--dedup",
                   "--out", str(tmp_path / "ds")) == 0
        out = capsys.readouterr().out
        assert "train=70 test=0 " in out
        assert out.endswith("notice: test split is empty after deduplication\n")
        assert run("fit", "--dataset", str(tmp_path / "ds"), "--model-kind", "linear",
                   "--out", str(tmp_path / "fit")) == 0
        capsys.readouterr()
        assert run("eval", "--dataset", str(tmp_path / "ds"), "--model",
                   str(tmp_path / "fit" / "model.json"), "--out", str(tmp_path / "eval")) == 1
        assert capsys.readouterr().err == "error[validation]: dataset has an empty test split\n"
        assert not (tmp_path / "eval").exists()

    def test_loc_sum_past_64_bits_ends_build(self, tmp_path, capsys):
        """build once wrote this split, which fit and audit then refused:
        'LOC added in file (last 25 revisions)' is '18446744073709551614'."""
        lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None)
                 for i in range(3)]
        lines += [change_line("r0", "src/a/Foo.java", "Add", lines_added=2 ** 63 - 1),
                  change_line("r1", "src/a/Foo.java", "Modify", lines_added=2 ** 63 - 1)]
        lines += [line for rid in ("r0", "r1", "r2") for line in (warn_line(rid), attrs_line(rid))]
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("build", "--ledger", str(ledger), "--train", "r0", "--test", "r1",
                   "--ref", "r2", "--mode", "leaky", "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[extraction]: ") and (
            "loc_added_in_file_last_25_revisions must be a signed 64-bit integer" in err), err
        assert not (tmp_path / "out").exists()

    def test_sweep_prints_a_skipped_interval(self, synth_dir, tmp_path, capsys):
        assert run("sweep", "--ledger", str(synth_dir / "ledger.jsonl"), "--at",
                   _anchors(synth_dir)["train"], "--intervals", "90d,100y",
                   "--out", str(tmp_path / "sweep")) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split() == ["36500d", "skipped", "(no", "revision", "at", "or", "after",
                                "36500", "day(s)", "past", _anchors(synth_dir)["train"] + ")"]

    @staticmethod
    def _sweep(tmp_path, project: str, ratios: dict) -> str:
        path = tmp_path / f"{project}.json"
        rows = [{"interval_days": days, "reference_revision": "r9", "actionable": 1,
                 "false_alarm": 1, "unknown": 0, "ratio": ratio, "notice": None}
                for days, ratio in ratios.items()]
        path.write_text(json.dumps({"project": project, "at": "r1", "rows": rows}),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("wilcoxon,ratio,err", [
        (["2y", "3y"], 0.5, "error[validation]: sweep for p1 lacks interval 2y or 3y\n"),
        (["2y", "4y"], None, "error[validation]: sweep rows without ratios cannot be tested\n"),
    ], ids=["missing-interval", "missing-ratio"])
    def test_wilcoxon_needs_both_ratios_of_each_sweep(self, tmp_path, capsys, wilcoxon, ratio,
                                                      err):
        paths = [self._sweep(tmp_path, "p1", {730.0: 0.5, 1460.0: ratio}),
                 self._sweep(tmp_path, "p2", {730.0: 0.5, 1460.0: 0.25})]
        assert run("report", "--merge", *paths, "--wilcoxon", *wilcoxon,
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == err

    def test_wilcoxon_without_sweeps_is_usage_error(self, fitted_dir, tmp_path, capsys):
        assert run("eval", "--dataset", str(fitted_dir / "ds"), "--model",
                   str(fitted_dir / "model" / "model.json"), "--out", str(tmp_path / "eval")) == 0
        capsys.readouterr()
        assert run("report", "--merge", str(tmp_path / "eval" / "report.json"), "--wilcoxon",
                   "2y", "4y", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error[usage]: --wilcoxon needs sweep JSON inputs\n"


# Corruptions of a file's bytes: cut it short, overwrite a span, or splice in
# bytes (among them invalid UTF-8, NUL and runs of brackets).
_SPLICE = st.one_of(st.binary(max_size=12), st.sampled_from([b"\xff\xfe", b"\x00", b"[" * 5000,
                                                           b"NaN", b"1e999", b'"', b",", b"\n"]))
_CORRUPTION = st.tuples(st.sampled_from(("cut", "overwrite", "insert")), st.floats(0, 1),
                        st.integers(0, 16), _SPLICE)


def _corrupt(data: bytes, corruption) -> bytes:
    how, where, width, splice = corruption
    at = int(where * len(data))
    if how == "cut":
        return data[:at]
    return data[:at] + splice + data[at + width if how == "overwrite" else at:]


class TestCorruptInputFuzz:
    """A command reading a corrupted file either accepts it or ends with exit
    1 or 2 and an ``error[...]`` line; it never raises."""

    @pytest.mark.parametrize("target", ["ds/meta.json", "ds/train.csv", "ds/test.csv",
                                        "model.json", "notes.jsonl"])
    def test_corrupt_input_ends_as_error(self, fitted_dir, target):
        ledger = [rev_line("r0", 0), rev_line("r1", 30), warn_line("r0", path="src/A.java",
                                                                   package="com.a", cls="A")]
        notes = [json.dumps({**_NOTE, "annotator": a}) for a in ("rev1", "rev2")]
        command = {
            "ds/meta.json": ["audit", "--dataset", "ds"],
            "ds/train.csv": ["fit", "--dataset", "ds", "--model-kind", "knn"],
            "ds/test.csv": ["eval", "--dataset", "ds", "--model", "model.json"],
            "model.json": ["eval", "--dataset", "ds", "--model", "model.json"],
            "notes.jsonl": ["label", "--ledger", "ledger.jsonl", "--at", "r0", "--ref", "r1",
                            "--annotations", "notes.jsonl"],
        }[target]

        def run_corrupted(corruption) -> tuple[int, str]:
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                shutil.copytree(fitted_dir / "ds", root / "ds")
                shutil.copy(fitted_dir / "model" / "model.json", root / "model.json")
                (root / "ledger.jsonl").write_text("\n".join(ledger), encoding="utf-8")
                (root / "notes.jsonl").write_text("\n".join(notes), encoding="utf-8")
                if corruption is not None:
                    path = root / target
                    path.write_bytes(_corrupt(path.read_bytes(), corruption))
                # Arguments naming a file or directory under ``root`` become its path.
                argv = [str(root / arg) if (root / arg).exists() else arg for arg in command]
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run(*argv, "--out", str(root / "out"))
                return code, err.getvalue()

        assert run_corrupted(None) == (0, "")

        @given(_CORRUPTION)
        @example(("insert", 0.0, 0, b"\x80"))  # not UTF-8
        @example(("overwrite", 0.0, 10**9, b"[" * 5000))  # nested too deep
        @settings(max_examples=30, deadline=None)
        def check(corruption):
            code, err = run_corrupted(corruption)
            assert code in (0, 1, 2)
            assert code == 0 or err.startswith("error["), err

        check()


# Run in a fresh interpreter: the test process has imported numpy already.
_NO_NUMPY_SCRIPT = """
import json, sys
from warnlab.cli import main
assert "numpy" not in sys.modules, "import warnlab.cli"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
"""


# Prints, as its last line, the modules loaded once the command has run.
_LOADED_SCRIPT = """
import json, sys
from warnlab.cli import main
assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by(argv: list[str]) -> set[str]:
    """The modules a fresh interpreter holds once ``warnlab argv`` has run."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, json.dumps(argv)],
        env=_env_with_src(os.environ), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestImports:
    def test_ledger_commands_never_import_numpy(self, synth_dir, tmp_path):
        ledger = str(synth_dir / "ledger.jsonl")
        anchors = _anchors(synth_dir)
        at, ref = anchors["test"], anchors["reference"]
        dsdir = str(tmp_path / "ds")
        commands = [
            ["ingest", "--ledger", ledger],
            ["label", "--ledger", ledger, "--at", at, "--ref", ref,
             "--out", str(tmp_path / "label")],
            ["sweep", "--ledger", ledger, "--at", anchors["train"], "--intervals", "90d",
             "--out", str(tmp_path / "sweep")],
            ["features", "--ledger", ledger, "--at", at, "--mode", "leakfree",
             "--out", str(tmp_path / "features")],
            ["build", "--ledger", ledger, "--train", anchors["train"], "--test", at,
             "--ref", ref, "--mode", "leakfree", "--dedup", "--out", dsdir],
            ["audit", "--dataset", dsdir, "--ledger", ledger,
             "--out", str(tmp_path / "audit")],
            ["synth", "--seed", "3", "--out", str(tmp_path / "synth")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(commands)],
            env=_env_with_src(os.environ), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv,absent", [
        (["synth", "--config", "{dir}/synth.json", "--out", "{dir}/out"],
         ["warnlab.dataset", "warnlab.features", "warnlab.oracle", "xml.etree"]),
        (["ingest", "--ledger", "{dir}/synth/ledger.jsonl"],
         ["warnlab.dataset", "warnlab.features", "warnlab.synth"]),
        (["label", "--ledger", "{dir}/synth/ledger.jsonl", "--at", "{train}", "--ref",
          "{reference}", "--out", "{dir}/label"],
         ["warnlab.dataset", "warnlab.features", "warnlab.synth", "xml.etree"]),
    ], ids=["synth", "ingest", "label"])
    def test_commands_load_only_the_layers_they_run(self, synth_dir, tmp_path, argv, absent):
        (tmp_path / "synth.json").write_text('{"seed": 3, "n_files": 4}', encoding="utf-8")
        argv = [arg.format(dir=tmp_path, **_anchors(synth_dir)) for arg in argv]
        assert sorted(_loaded_by(argv) & set(absent)) == []

    @pytest.mark.parametrize("argv", [
        ["ingest", "--ledger", "{dir}/synth/ledger.jsonl"],
        ["label", "--ledger", "{dir}/synth/ledger.jsonl", "--at", "{test}", "--ref",
         "{reference}", "--out", "{dir}/label"],
        ["sweep", "--ledger", "{dir}/synth/ledger.jsonl", "--at", "{train}",
         "--intervals", "90d", "--out", "{dir}/sweep"],
        ["synth", "--seed", "3", "--out", "{dir}/out"],
    ], ids=["ingest", "label", "sweep", "synth"])
    def test_ledger_commands_load_no_feature_schema_or_logging(self, synth_dir, tmp_path,
                                                               argv):
        """The ledger layers need only the key module, and ingest logs only
        when it collapses duplicate lines, which these ledgers never hold."""
        argv = [arg.format(dir=tmp_path, **_anchors(synth_dir)) for arg in argv]
        assert sorted(_loaded_by(argv) & {"warnlab.schema", "logging"}) == []

    @pytest.mark.parametrize("argv", [
        ["fit", "--dataset", "{dir}/ds", "--model-kind", "linear", "--out", "{tmp}/fit"],
        ["eval", "--dataset", "{dir}/ds", "--model", "{dir}/model/model.json",
         "--out", "{tmp}/eval"],
    ], ids=["fit", "eval"])
    def test_model_commands_load_no_ledger_layer(self, fitted_dir, tmp_path, argv):
        loaded = _loaded_by([arg.format(dir=fitted_dir, tmp=tmp_path) for arg in argv])
        assert "warnlab.models" in loaded
        assert sorted(loaded & {"warnlab.history", "warnlab.oracle", "warnlab.features"}) == []

    @pytest.mark.parametrize("argv,code", [
        (["synth", "--seed", "3", "--out", "{tmp}/synth"], 0),
        (["ingest", "--ledger", "{tmp}/missing.jsonl"], 1),  # error[io]
        (["synth", "--out", "{tmp}/synth"], 2),  # error[usage]
    ], ids=["ok", "error", "usage"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_gives_the_collector_back(self, tmp_path, argv, code, enabled):
        if not enabled:
            gc.disable()
        try:
            assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
    def test_cli_defaults_to_one_blas_thread(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, warnlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=_env_with_src(env), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def _env_with_src(env) -> dict:
    src = str(Path(warnlab.__file__).parents[1])
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


class TestIdempotency:
    def test_reruns_are_byte_identical_and_inputs_untouched(self, synth_dir, tmp_path):
        ledger = synth_dir / "ledger.jsonl"
        before = ledger.read_bytes()
        anchors = _anchors(synth_dir)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("build", "--ledger", str(ledger), "--train", anchors["train"],
                       "--test", anchors["test"], "--ref", anchors["reference"],
                       "--mode", "leakfree", "--out", str(out)) == 0
        for name in ("train.csv", "test.csv", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert ledger.read_bytes() == before

    def test_env_var_default_out(self, synth_dir, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from-env"
        monkeypatch.setenv("WARNLAB_OUT", str(target))
        anchors = _anchors(synth_dir)
        assert run("label", "--ledger", str(synth_dir / "ledger.jsonl"),
                   "--at", anchors["train"], "--ref", anchors["reference"]) == 0
        assert (target / "labels.csv").exists()


# Probe ledgers whose features.csv bytes once depended on PYTHONHASHSEED, each
# with the revision it is extracted at.

def _named_method(line: str) -> str:
    """Name a null entity method: ``hash(None)`` varies per process before
    Python 3.12, and set order must depend on the hash seed alone."""
    record = json.loads(line)
    if "entity" in record and record["entity"]["method"] is None:
        record["entity"]["method"] = "<init>()"
    return json.dumps(record)


def _fractional_day_ledger() -> tuple[list[str], str]:
    """Synth history with each revision shifted by 0-86399 s: closed lifetimes
    stop being whole days, so their float sum depends on summation order."""
    history = generate(SynthConfig(
        seed=3, n_files=48, n_revisions=48, warnings_per_revision=12,
        incidental_close_rate=0.2, file_delete_rate=0.1)).history
    rng = random.Random(0)
    shifted = tuple(replace(rev, timestamp=rev.timestamp + rng.randrange(86400))
                    for rev in history.revisions)
    lines = emit_ledger(replace(history, revisions=shifted))
    return [_named_method(line) for line in lines], "r0010"


_Q, _P = "src/a/Q.java", "src/a/P.java"


def _redeleted_path_ledger() -> tuple[list[str], str]:
    """A warning renamed Q -> P, whose P is deleted, re-added with the same
    warning, and deleted again: two warnings, ended by the r2 and r4 Deletes.
    A warning in R closed after 30 days shares the category, and S's warning
    at r5 is the extraction target."""
    lines = [rev_line(f"r{i}", day=30 * i, parent=f"r{i - 1}" if i else None)
             for i in range(6)]
    lines += [change_line("r0", path, "Add", lines_added=10)
              for path in (_Q, "src/a/R.java", "src/a/S.java")]
    lines += [
        warn_line("r0", path=_Q, method="m()"),
        warn_line("r0", path="src/a/R.java", pattern="DM_EXIT", cls="R", method="m()"),
        change_line("r1", _P, "Rename", old_path=_Q), warn_line("r1", path=_P, method="m()"),
        change_line("r2", _P, "Delete"),
        change_line("r3", _P, "Add", lines_added=5), warn_line("r3", path=_P, method="m()"),
        change_line("r4", _P, "Delete"),
        warn_line("r5", path="src/a/S.java", pattern="EQ_ALWAYS_TRUE", cls="S", method="m()"),
        attrs_line("r5", path="src/a/S.java", pattern="EQ_ALWAYS_TRUE", cls="S", method="m()"),
    ]
    return lines, "r5"


def _same_line_ledger() -> tuple[list[str], str]:
    """One warning key observed three times at one line, priorities 1, 2, 3."""
    lines = [rev_line("r0", day=0), change_line("r0", "src/a/Foo.java", "Add", lines_added=10)]
    lines += [warn_line("r0", method="m()", priority=priority, line=7) for priority in (1, 2, 3)]
    return lines + [attrs_line("r0", method="m()")], "r0"


class TestHashSeedIndependence:
    # Before the fixes, hash seeds 1 and 3 gave different features.csv bytes
    # on each of the three ledgers.
    SEEDS = ("1", "3")

    @pytest.mark.parametrize("probe", [
        _fractional_day_ledger, _redeleted_path_ledger, _same_line_ledger,
    ], ids=["fsum-lifetimes", "redeleted-path", "lowest-line-priority"])
    def test_features_csv_bytes_do_not_depend_on_hash_seed(self, probe, tmp_path):
        lines, at = probe()
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs = []
        for seed in self.SEEDS:
            out = tmp_path / f"hashseed{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "warnlab.cli", "features", "--ledger", str(ledger),
                 "--at", at, "--mode", "leakfree", "--out", str(out)],
                env=_env_with_src({**os.environ, "PYTHONHASHSEED": seed}),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "features.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_emitted_ledger_does_not_depend_on_hash_seed(self, tmp_path):
        # Sort-key ties once fell back to set order: three priorities at one
        # line of one key, and Modify records differing only in lines_added.
        lines, _at = _same_line_ledger()
        lines += [change_line("r0", "src/a/Foo.java", "Modify", lines_added=n)
                  for n in range(1, 7)]
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        script = ("import sys\n"
                  "from warnlab.history import emit_ledger, ingest_ledger\n"
                  "with open(sys.argv[1], encoding='utf-8') as fp:\n"
                  "    print('\\n'.join(emit_ledger(ingest_ledger(fp))))\n")
        outputs = []
        for seed in self.SEEDS:
            proc = subprocess.run(
                [sys.executable, "-c", script, str(ledger)],
                env=_env_with_src({**os.environ, "PYTHONHASHSEED": seed}),
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_each_live_range_is_its_own_warning(self):
        lines, at = _redeleted_path_ledger()
        history = ingest_ledger(lines)
        universe = build_universe(truncate_history(history, at), history.rev_index(at))
        first_key = next(key for key in history.keys_at("r0") if key.file_path == _Q)
        renamed = universe[(first_key.with_path(_P), 2)]
        re_added = universe[(first_key.with_path(_P), 4)]
        assert (renamed.presence, renamed.closed_idx) == ({0, 1}, None)
        assert (re_added.presence, re_added.closed_idx) == ({3}, None)
        (vec,) = extract_golden(history, at, LeakMode.leakfree()).values()
        assert vec.average_lifetime_for_warning_type == 30.0  # R's closure alone

    def test_same_line_duplicates_take_the_lowest_priority(self):
        lines, at = _same_line_ledger()
        (vec,) = extract_golden(ingest_ledger(lines), at, LeakMode.leakfree()).values()
        assert vec.warning_priority == 1
