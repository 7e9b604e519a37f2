"""Malformed JSON artifacts end as ``error[<category>]``.

Each artifact a tiny synth pipeline writes (the synth config, ``meta.json``,
``model.json`` of every kind, ``report.json``, a sweep file and an annotation
line) is corrupted in one field and handed to the command that reads it:
the command must exit nonzero with an ``error[...]`` line, never a traceback
and never a silent acceptance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab.cli import main
from warnlab.errors import MODEL_KINDS, kind_of

_CONFIG = {"seed": 19, "n_files": 10, "n_revisions": 24, "warnings_per_revision": 6,
           "true_actionable_rate": 0.6, "fix_delay_days": [240.0, 330.0],
           "incidental_close_rate": 0.0, "file_delete_rate": 0.0,
           "duplication_pressure": 0.6, "leak_signal": False}

# Fields whose drop leaves a valid artifact: synth settings have defaults,
# and an entity's method is optional.
_OPTIONAL = {"cfg.json": set(_CONFIG) - {"seed"}, "notes.jsonl": {"method"}}
# Fields under which -1 is a valid value.
_SIGNED = {"seed", "bias", "regularization", "weights", "X", "numeric"}
# Fields whose values lie in [0, 1].
_RATES = {"precision", "recall", "f1", "auc", "actionability", "baseline_f1", "ratio",
          "true_actionable_rate", "incidental_close_rate", "file_delete_rate",
          "duplication_pressure"}


def _run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Path:
    """The artifacts of a tiny pipeline, each readable by its command."""
    root = tmp_path_factory.mktemp("artifacts")
    (root / "cfg.json").write_text(json.dumps(_CONFIG), encoding="utf-8")
    assert _run("synth", "--config", root / "cfg.json", "--out", root / "synth")[0] == 0
    anchors = json.loads((root / "synth" / "truth.json").read_text(encoding="utf-8"))["anchors"]
    ledger = root / "synth" / "ledger.jsonl"
    assert _run("build", "--ledger", ledger, "--train", anchors["train"], "--test",
                anchors["test"], "--ref", anchors["reference"], "--mode", "leakfree",
                "--out", root / "ds")[0] == 0
    shutil.copy(root / "ds" / "meta.json", root / "meta.json")
    for kind in MODEL_KINDS:
        assert _run("fit", "--dataset", root / "ds", "--model-kind", kind, "--k", "3",
                    "--out", root / kind)[0] == 0
        shutil.copy(root / kind / "model.json", root / f"{kind}.json")
    assert _run("eval", "--dataset", root / "ds", "--model", root / "linear.json",
                "--out", root / "eval")[0] == 0
    shutil.copy(root / "eval" / "report.json", root / "report.json")
    assert _run("sweep", "--ledger", ledger, "--at", anchors["train"],
                "--intervals", "90d,300d", "--out", root / "sweep")[0] == 0
    shutil.copy(root / "sweep" / "sweep.json", root / "sweep.json")
    key = json.loads(ledger.read_text(encoding="utf-8").splitlines()[-1])
    note = {name: key[name] for name in ("bug_pattern", "file_path", "entity")}
    (root / "notes.jsonl").write_text(
        json.dumps({**note, "label": "Actionable", "annotator": "rev1"}) + "\n", encoding="utf-8")
    (root / "anchors.json").write_text(json.dumps(anchors), encoding="utf-8")
    return root


def _command(name: str, root: Path, path: Path) -> list:
    """The command that reads artifact ``name``, given as ``path``."""
    anchors = json.loads((root / "anchors.json").read_text(encoding="utf-8"))
    if name == "cfg.json":
        return ["synth", "--config", path]
    if name == "meta.json":
        shutil.copytree(root / "ds", path.parent / "ds")
        shutil.copy(path, path.parent / "ds" / "meta.json")
        return ["fit", "--dataset", path.parent / "ds", "--model-kind", "constant"]
    if name.removesuffix(".json") in MODEL_KINDS:
        return ["eval", "--dataset", root / "ds", "--model", path]
    if name == "report.json":
        return ["report", "--merge", path]
    if name == "sweep.json":
        return ["report", "--merge", path, "--wilcoxon", "90d", "300d"]
    return ["label", "--ledger", root / "synth" / "ledger.jsonl", "--at", anchors["test"],
            "--ref", anchors["reference"], "--annotations", path]


_ARTIFACTS = ["cfg.json", "meta.json", *(f"{kind}.json" for kind in MODEL_KINDS),
              "report.json", "sweep.json", "notes.jsonl"]


def _read(path: Path):
    text = path.read_text(encoding="utf-8")
    return json.loads(text.splitlines()[0] if path.suffix == ".jsonl" else text)


def _write(path: Path, value) -> None:
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")


def _nodes(value, path=()):
    """Paths to every value below the root: each member of an object, and the
    first item of an array (the rest share its kind)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = list(enumerate(value))[:1]
    else:
        return
    for key, item in items:
        yield (*path, key)
        yield from _nodes(item, (*path, key))


def _corruptions(name: str, path: tuple, value) -> list:
    """Each corruption of the node at ``path`` that leaves ``name`` invalid:
    a drop, a value of another JSON type, 10**400, NaN, -1, or 1.5 for a rate."""
    names = {step for step in path if isinstance(step, str)}
    out = [("retype", [] if isinstance(value, dict) else {}), ("huge", 10 ** 400),
           ("nan", math.nan)]
    if isinstance(path[-1], str) and path[-1] not in _OPTIONAL.get(name, ()):
        out.append(("drop", None))
    if not names & _SIGNED:
        out.append(("negative", -1))
    if path[-1] in _RATES:
        out.append(("rate", 1.5))
    return out


def _corrupted(data, path: tuple, how: str, replacement):
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return data


def _assert_refused(code: int, err: str) -> None:
    assert code != 0 and err.startswith("error[") and "Traceback" not in err, (code, err)


def test_every_artifact_is_accepted_as_written(pipeline, tmp_path):
    for name in _ARTIFACTS:
        work = tmp_path / name.replace(".", "_")
        work.mkdir()
        shutil.copy(pipeline / name, work / name)
        assert _run(*_command(name, pipeline, work / name), "--out", work / "out") == (0, "")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_corrupt_field_ends_as_error(pipeline, data):
    name = data.draw(st.sampled_from(_ARTIFACTS), label="artifact")
    value = _read(pipeline / name)
    path = data.draw(st.sampled_from(list(_nodes(value))), label="field")
    node = value
    for step in path:
        node = node[step]
    how, replacement = data.draw(st.sampled_from(_corruptions(name, path, node)),
                                 label="corruption")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / name
        _write(target, _corrupted(value, path, how, replacement))
        _assert_refused(*_run(*_command(name, pipeline, target), "--out", Path(tmp) / "out"))


# The cases that once passed: eval ended in an OverflowError traceback, and
# report --merge, fit and audit --ledger exited 0.

@pytest.mark.parametrize("kind,path", [("linear", ("params", "weights", 0)),
                                       ("knn", ("params", "X", 0, 0)),
                                       ("linear", ("manifest", "numeric", 0, 1))])
def test_model_number_without_a_float_value_is_refused(pipeline, tmp_path, kind, path):
    model = _corrupted(_read(pipeline / f"{kind}.json"), path, "set", 10 ** 400)
    _write(tmp_path / "model.json", model)
    code, err = _run("eval", "--dataset", pipeline / "ds", "--model", tmp_path / "model.json",
                     "--out", tmp_path / "out")
    _assert_refused(code, err)
    assert err.startswith("error[model]: ") and "must be finite, got inf" in err


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_model_whose_scores_overflow_is_refused(pipeline, tmp_path):
    """Finite weights of ±1e308 overflow the linear scores to NaN, on which
    the AUC's rank loop once spun for ever."""
    model = _read(pipeline / "linear.json")
    model["params"]["weights"] = [(-1) ** i * 1e308 for i in range(len(model["params"]["weights"]))]
    _write(tmp_path / "model.json", model)
    code, err = _run("eval", "--dataset", pipeline / "ds", "--model", tmp_path / "model.json",
                     "--out", tmp_path / "out")
    assert code == 1 and "Traceback" not in err
    assert err.splitlines()[-1] == "error[model]: linear model scores are not all finite"


@pytest.mark.parametrize("field,value,message", [
    ("precision", 10 ** 400, "must be finite, got inf"),
    ("recall", 7.5, "must lie in [0, 1], got 7.5"),
    ("auc", math.nan, "must be finite, got nan"),
], ids=["precision", "recall", "auc"])
def test_report_rate_out_of_range_is_refused(pipeline, tmp_path, field, value, message):
    _write(tmp_path / "report.json", {**_read(pipeline / "report.json"), field: value})
    code, err = _run("report", "--merge", tmp_path / "report.json", "--out", tmp_path / "out")
    _assert_refused(code, err)
    assert err.startswith("error[validation]: ") and f"{field!r} {message}" in err


@pytest.mark.parametrize("command", ["fit", "audit"])
def test_negative_meta_count_is_refused(pipeline, tmp_path, command):
    shutil.copytree(pipeline / "ds", tmp_path / "ds")
    _write(tmp_path / "ds" / "meta.json", {**_read(pipeline / "meta.json"), "dedup_removed": -5})
    argv = {"fit": ["fit", "--dataset", tmp_path / "ds", "--model-kind", "constant"],
            "audit": ["audit", "--dataset", tmp_path / "ds",
                      "--ledger", pipeline / "synth" / "ledger.jsonl"]}[command]
    code, err = _run(*argv, "--out", tmp_path / "out")
    _assert_refused(code, err)
    assert err == "error[validation]: dataset metadata field 'dedup_removed' must be >= 0, got -5\n"


def test_a_type_with_no_kind_is_a_developer_error():
    with pytest.raises(TypeError, match="no field kind for <class 'bytes'>"):
        kind_of(bytes)
