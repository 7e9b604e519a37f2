from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import warnlab
from warnlab.cli import main, parse_duration_days


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


class TestDurations:
    def test_units(self):
        assert parse_duration_days("730d") == 730.0
        assert parse_duration_days("2y") == 730.0
        assert parse_duration_days("3m") == 90.0
        assert parse_duration_days("1w") == 7.0
        assert parse_duration_days("42") == 42.0


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

    def test_parse_error_categorized(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run("ingest", "--ledger", str(bad)) == 1
        assert "error[parse]" in capsys.readouterr().err

    def test_missing_file_categorized(self, tmp_path, capsys):
        assert run("ingest", "--ledger", str(tmp_path / "nope.jsonl")) == 1
        assert "error[io]" in capsys.readouterr().err

    def test_directory_as_ledger_categorized(self, tmp_path, capsys):
        assert run("ingest", "--ledger", str(tmp_path)) == 1
        assert "error[io]" in capsys.readouterr().err

    def test_unknown_model_kind_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--dataset", str(tmp_path), "--model-kind", "bogus")
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


# Run in a fresh interpreter: the test process has imported numpy already.
_NO_NUMPY_SCRIPT = """
import json, sys
from warnlab.cli import main
assert "numpy" not in sys.modules, "import warnlab.cli"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
"""


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
        src = str(Path(warnlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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
