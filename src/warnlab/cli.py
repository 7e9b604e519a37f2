"""Command-line front door: ingest, label, sweep, features, build, fit,
eval, audit, synth, and report.

Every subcommand reads its inputs, writes deterministic artifacts into the
output directory (``--out``, or the WARNLAB_OUT environment variable), and
never mutates input files. Success exits 0; contract violations exit
nonzero after printing ``error[<category>]: <message>``.

Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller
has set it. numpy's OpenBLAS starts a pool of threads when it loads, and
that start-up costs more CPU time than the pool can save on warnlab's
matrices (a few hundred rows by about 70 columns). A value already in the
environment wins, so a caller can still ask for more threads.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

# Each handler imports the layers it runs. Ingest loads history over keys,
# label and sweep add oracle, and synth adds synth: none of them loads the
# feature schema. fit and eval load dataset, models and evaluation over
# schema, and no ledger layer (history, oracle, features); only fit, eval and
# report import numpy.
from .errors import (MODEL_KINDS, ValidationError, WarnlabError, kind_of, list_of, read_fields,
                     read_json)
from .keys import KEY_COLUMNS, key_row

if TYPE_CHECKING:
    from .schema import LeakMode

ENV_OUT = "WARNLAB_OUT"

# Set at import, before any handler imports numpy (see the module docstring).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class UsageError(WarnlabError):
    category = "usage"


def main(argv: list[str] | None = None) -> int:
    # A command builds one graph it keeps until it exits, with no reference
    # cycles to reclaim: the cyclic collector stays off while it runs, and the
    # heap is frozen on the way out, so the interpreter's final collection
    # skips it. An in-process caller gets its collector back as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # an input file that is not UTF-8
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 1
    except WarnlabError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warnlab",
        description="Warning-triage laboratory: label, featurize, train, and audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a ledger and print a summary")
    p.add_argument("--ledger", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("label", help="run the closed-warning heuristic")
    p.add_argument("--ledger", required=True)
    p.add_argument("--at", required=True, help="evaluation revision id")
    p.add_argument("--ref", required=True, help="reference revision id")
    p.add_argument("--filter-file", help="developer filter file (confirmed false alarms)")
    p.add_argument("--annotations", help="manual annotation file; overrides the heuristic")
    p.add_argument("--annotator", help="annotator id to apply (default: first in file)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("sweep", help="re-run labeling across reference intervals")
    p.add_argument("--ledger", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--intervals", required=True,
                   help="comma-separated durations, e.g. 2y,3y,4y or 730d")
    p.add_argument("--project", default="project")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("features", help="export the 23-feature matrix for one revision")
    p.add_argument("--ledger", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--mode", choices=("leaky", "leakfree"), required=True)
    p.add_argument("--ref", help="reference revision (leaky mode only)")
    p.add_argument("--window", help="leak-free population window")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("build", help="build a labeled train/test dataset")
    p.add_argument("--ledger", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--mode", choices=("leaky", "leakfree"), required=True)
    p.add_argument("--window")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("fit", help="train a model on a built dataset")
    p.add_argument("--dataset", required=True, help="directory produced by build")
    p.add_argument("--model-kind", choices=MODEL_KINDS, required=True)
    p.add_argument("--k", type=int, default=1, help="neighbors for knn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("eval", help="score a model on a dataset's test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, help="model file from fit")
    p.add_argument("--project", default="project")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("audit", help="duplication and leakage-guard reports")
    p.add_argument("--dataset", required=True)
    p.add_argument("--ledger", help="original ledger (enables the leakage-guard check)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("synth", help="generate a synthetic ledger with planted truth")
    p.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--seed", type=int, help="seed override (or the whole config)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("report", help="merge per-project reports into one table")
    p.add_argument("--merge", nargs="+", required=True, help="report JSON files")
    p.add_argument("--wilcoxon", nargs=2, metavar=("COL_A", "COL_B"),
                   help="paired test over two sweep intervals, e.g. 730d 1460d")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    return parser


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_history(path: str):
    # Only the ledger commands load history (see the imports above); ``main``
    # keeps the collector off, so no collection walks the ledger's objects.
    from .history import ingest_ledger
    with open(path, encoding="utf-8") as fp:
        return ingest_ledger(fp)


def parse_duration_days(text: str) -> float:
    """Durations like 730d, 12w, 6m, 2y (months are 30 days, years 365);
    anything but a finite number of days above 0 raises ``UsageError``."""
    value = text.strip().lower()
    unit = {"d": 1.0, "w": 7.0, "m": 30.0, "y": 365.0}.get(value[-1:])
    try:
        days = float(value[:-1] if unit else value) * (unit or 1.0)
    except ValueError:
        days = math.nan
    if not 0 < days < math.inf:
        raise UsageError(f"duration must be a finite number of days above 0, got {text!r}")
    return days


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    history = _load_history(args.ledger)
    print(
        f"ok: {len(history.revisions)} revision(s), "
        f"{sum(map(len, history.warnings_at))} observation(s), "
        f"{sum(map(len, history.changes_at))} change(s), "
        f"{sum(map(len, history.attrs_at))} attrs record(s), horizon={history.horizon}"
    )
    return 0


def cmd_label(args) -> int:
    if args.annotator is not None and args.annotations is None:
        raise UsageError("--annotator requires --annotations")
    from . import oracle as oc
    history = _load_history(args.ledger)
    labels = oc.heuristic_label(history, args.at, args.ref)
    filter_stats = None
    if args.filter_file is not None:
        with open(args.filter_file, encoding="utf-8") as fp:
            rules = oc.parse_filter_file(fp)
        confirmation = oc.confirm_false_alarms(labels, rules)
        labels = list(confirmation.labels)
        filter_stats = {
            "open": confirmation.open_count,
            "filtered": confirmation.matched_count,
            "filtered_share": confirmation.matched_share,
        }
    if args.annotations is not None:
        with open(args.annotations, encoding="utf-8") as fp:
            sets = oc.read_annotations(fp)
        if not sets:
            raise ValidationError("annotation file holds no annotations")
        chosen = sets[0]
        if args.annotator is not None:
            by_id = {s.annotator: s for s in sets}
            if args.annotator not in by_id:
                raise ValidationError(f"annotator {args.annotator!r} not in file")
            chosen = by_id[args.annotator]
        labels = oc.apply_annotations(labels, chosen)

    out = _out_dir(args)
    with open(out / "labels.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow([*KEY_COLUMNS, "at_revision", "reference_revision", "label", "reason"])
        for lw in sorted(labels, key=lambda w: w.key.sort_key()):
            writer.writerow([*key_row(lw.key), args.at, args.ref, lw.label.value,
                             lw.reason.value])
    summary = {
        "at": args.at,
        "ref": args.ref,
        "counts": oc.label_counts(labels),
        "actionability": oc.actionability_of(labels),
    }
    if filter_stats is not None:
        summary["filter"] = filter_stats
    _write_json(out / "label_summary.json", summary)
    counts = summary["counts"]
    print(
        f"labeled {sum(counts.values())} warning(s): "
        f"{counts['Actionable']} actionable, {counts['FalseAlarm']} false alarm, "
        f"{counts['Unknown']} unknown"
    )
    return 0


def cmd_sweep(args) -> int:
    from . import oracle as oc
    history = _load_history(args.ledger)
    intervals = [parse_duration_days(part) for part in args.intervals.split(",") if part]
    if not intervals or len(set(intervals)) < len(intervals):
        raise UsageError(f"--intervals needs distinct durations, got {args.intervals!r}")
    table = oc.sweep_reference(history, args.at, intervals)
    out = _out_dir(args)
    payload = {
        "project": args.project,
        "at": table.at_revision,
        "rows": [{name: getattr(row, name) for name in oc.SWEEP_FIELDS} for row in table.rows],
    }
    _write_json(out / "sweep.json", payload)
    lines = [f"{'interval':>10} {'reference':>10} {'Act':>6} {'FA':>6} {'Unk':>6} {'ratio':>7}"]
    for row in table.rows:
        if row.skipped:
            lines.append(f"{row.interval_days:>9.0f}d {'skipped':>10}  ({row.notice})")
        else:
            ratio = "n/a" if row.ratio is None else f"{row.ratio:.3f}"
            lines.append(
                f"{row.interval_days:>9.0f}d {row.reference_revision:>10} "
                f"{row.actionable:>6} {row.false_alarm:>6} {row.unknown:>6} {ratio:>7}"
            )
    text = "\n".join(lines) + "\n"
    (out / "sweep.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _mode_from_args(args) -> LeakMode:
    """The ``--mode`` and ``--window`` of features and build; a window
    defaults to 365 days and belongs to leak-free mode only."""
    from .schema import LeakMode
    if args.mode == "leaky":
        if args.window is not None:
            raise UsageError("--window conflicts with --mode leaky")
        return LeakMode.leaky()
    if args.window is None:
        return LeakMode.leakfree()
    return LeakMode.leakfree(parse_duration_days(args.window))


def cmd_features(args) -> int:
    if args.mode == "leakfree" and args.ref:
        raise UsageError("--ref conflicts with --mode leakfree")
    if args.mode == "leaky" and not args.ref:
        raise UsageError("--mode leaky requires --ref")
    mode = _mode_from_args(args)
    from . import features as ft
    from .schema import MatrixRow, write_feature_matrix
    history = _load_history(args.ledger)
    vectors = ft.extract_golden(history, args.at, mode, args.ref)
    out = _out_dir(args)
    rows = [
        MatrixRow(key=key, origin_rev=args.at, label="", mode=args.mode, vector=vec)
        for key, vec in vectors.items()
    ]
    with open(out / "features.csv", "w", encoding="utf-8", newline="") as fp:
        write_feature_matrix(fp, rows)
    print(f"extracted {len(rows)} feature vector(s) -> {out / 'features.csv'}")
    return 0


def cmd_build(args) -> int:
    mode = _mode_from_args(args)
    from . import dataset as ds
    history = _load_history(args.ledger)
    built = ds.build_dataset(history, args.train, args.test, args.ref, mode, dedup=args.dedup)
    out = _out_dir(args)
    ds.save_dataset(built, out)
    meta = built.meta
    print(
        f"built dataset: train={len(built.train)} test={len(built.test)} "
        f"(dropped unknown: {meta.dropped_unknown_train}+{meta.dropped_unknown_test}, "
        f"dedup removed: {meta.dedup_removed})"
    )
    for notice in meta.notices:
        print(f"notice: {notice}")
    return 0


def cmd_fit(args) -> int:
    # model.json stores the seed as a signed 64-bit integer, and the linear
    # fit's numpy generator takes no negative seed.
    if not 0 <= args.seed < 2 ** 63:
        raise UsageError(f"--seed must lie in 0..2**63-1, got {args.seed}")
    from . import dataset as ds
    from . import models as md
    built = ds.load_dataset(args.dataset, ("train",))
    if not built.train:
        raise ValidationError("dataset has an empty training split")
    train_encoded = md.encode_with(md.fit_manifest(built.train), built.train)
    model = md.fit(
        args.model_kind, train_encoded, md.labels_of(built.train),
        seed=args.seed, k=args.k,
    )
    out = _out_dir(args)
    path = out / "model.json"
    md.save_model(model, path)
    print(f"fitted {args.model_kind} model -> {path}")
    return 0


def cmd_eval(args) -> int:
    from . import dataset as ds
    from . import evaluation as ev
    from . import models as md
    built = ds.load_dataset(args.dataset, ("test",))
    model = md.load_model(args.model)
    report = ev.evaluate_model(model, built, project=args.project)
    out = _out_dir(args)
    _write_json(out / "report.json", report.to_json())
    table = ev.render_report_table([report])
    (out / "report.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_audit(args) -> int:
    from . import dataset as ds
    built = ds.load_dataset(args.dataset)
    dup = ds.audit_duplication(built)
    payload: dict = {"duplication": dup.to_json()}
    leak_block: dict = {"checked": False}
    if args.ledger:
        history = _load_history(args.ledger)
        if built.meta.mode.is_leaky:
            leak_block = {
                "checked": False,
                "note": "dataset was built in leaky mode; the time-travel guard "
                        "only applies to leak-free extraction",
            }
        else:
            # Rebuild the dataset from the ledger by its meta.json: a key whose stored
            # and rebuilt instances differ, or that one side holds alone, mismatches.
            meta = built.meta
            rebuilt = ds.build_dataset(history, meta.train_rev, meta.test_rev, meta.ref_rev,
                                       meta.mode, meta.dedup)
            revisions = []
            for rev, stored, fresh in ((meta.train_rev, built.train, rebuilt.train),
                                       (meta.test_rev, built.test, rebuilt.test)):
                stored, fresh = Counter(stored), Counter(fresh)
                mismatched = len({inst.key for inst in (stored - fresh) | (fresh - stored)})
                revisions.append({"revision": rev, "ok": not mismatched, "mismatched": mismatched})
            leak_block = {"checked": True, "ok": all(r["ok"] for r in revisions),
                          "revisions": revisions}
    payload["leakage_guard"] = leak_block
    out = _out_dir(args)
    _write_json(out / "audit.json", payload)
    print(
        f"duplication rate: {dup.rate:.3f} "
        f"({dup.duplicated}/{dup.test_size}; rename-bridged {dup.duplicated_bridged})"
    )
    if leak_block.get("checked"):
        print(f"leakage guard: {'ok' if leak_block['ok'] else 'VIOLATED'}")
    elif "note" in leak_block:
        print(f"leakage guard: skipped ({leak_block['note']})")
    return 0


def cmd_synth(args) -> int:
    from . import synth as sy
    from .history import emit_ledger
    if not args.config and args.seed is None:
        raise UsageError("synth needs --config and/or --seed")
    settings = read_json(args.config) if args.config else {}
    if args.seed is not None and isinstance(settings, dict):
        settings["seed"] = args.seed
    config = sy.SynthConfig.from_json(settings)
    result = sy.generate(config)
    out = _out_dir(args)
    with open(out / "ledger.jsonl", "w", encoding="utf-8") as fp:
        fp.writelines(line + "\n" for line in emit_ledger(result.history))
    with open(out / "truth.json", "w", encoding="utf-8") as fp:
        sy.write_truth(result, fp)
    print(
        f"generated {len(result.truth)} warning(s) over "
        f"{len(result.history.revisions)} revision(s); anchors: "
        f"train={result.anchors.train} test={result.anchors.test} "
        f"ref={result.anchors.reference}"
    )
    return 0


def cmd_report(args) -> int:
    from . import evaluation as ev
    reports = []
    sweeps = []
    for path in args.merge:
        payload = read_json(path)
        try:
            if isinstance(payload, dict) and "rows" in payload:
                from .oracle import SWEEP_FIELDS
                # Each row is read by the kinds of the SweepRow fields sweep writes.
                sweep = read_fields(payload, "sweep", {
                    "project": str, "at": str, "rows": list_of(kind_of(SWEEP_FIELDS))})
                if any(project == sweep["project"] for _, project, _ in sweeps):
                    raise ValidationError(
                        f"sweep for {sweep['project']} repeats an earlier sweep's project")
                ratios: dict[float, float | None] = {}  # interval -> its row's ratio
                for sweep_row in sweep["rows"]:
                    days = sweep_row["interval_days"]
                    if days in ratios:
                        raise ValidationError(
                            f"sweep for {sweep['project']} repeats interval {days!r} days")
                    ratios[days] = sweep_row["ratio"]
                sweeps.append((payload, sweep["project"], ratios))
            elif isinstance(payload, list):
                reports.extend(ev.EvalReport.from_json(item) for item in payload)
            else:
                reports.append(ev.EvalReport.from_json(payload))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    out = _out_dir(args)
    merged: dict = {}
    text_parts: list[str] = []
    if reports:
        merged["reports"] = [rep.to_json() for rep in reports]
        text_parts.append(ev.render_report_table(reports))
    if sweeps:
        merged["sweeps"] = [payload for payload, _, _ in sweeps]
    if args.wilcoxon:
        if not sweeps:
            raise UsageError("--wilcoxon needs sweep JSON inputs")
        col_a = parse_duration_days(args.wilcoxon[0])
        col_b = parse_duration_days(args.wilcoxon[1])
        pairs = []
        for _, project, ratios in sweeps:
            if col_a not in ratios or col_b not in ratios:
                raise ValidationError(
                    f"sweep for {project} lacks interval "
                    f"{args.wilcoxon[0]} or {args.wilcoxon[1]}"
                )
            ra, rb = ratios[col_a], ratios[col_b]
            if ra is None or rb is None:
                raise ValidationError("sweep rows without ratios cannot be tested")
            pairs.append((ra, rb))
        result = ev.wilcoxon_exact(pairs)
        merged["wilcoxon"] = {**asdict(result), "intervals": [col_a, col_b]}
        text_parts.append(
            f"wilcoxon signed-rank over {len(pairs)} project(s): "
            f"statistic={result.statistic:g} p={result.p_value:.5f}\n"
        )
    _write_json(out / "merged.json", merged)
    text = "".join(text_parts)
    (out / "merged.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
