#!/usr/bin/env python3
"""Benchmark of the warnlab pipeline: end to end through the CLI, and per layer.

Run it from the repository root:

    python3 bench/run.py --workload paper-audit --seed 1 --seconds 36 --trace 0

Each run writes the workload's synthetic ledger with ``warnlab synth`` and
then runs the user's command sequence (ingest, label, sweep, two builds,
fit and eval of two models on both datasets, audit) through
``python -m warnlab.cli``, one subprocess at a time. The last line of
standard output is the result JSON; the line before it carries input sizes,
the paper's results, artifact hashes and any problems found.

``--trace 0`` reports end-to-end metrics: set-up time (median of several
synth runs), the median over at least two repetitions of the sequence of
each command's time, and the peak RSS of any command.

Times are the CPU seconds (user + system) of each command's process, read
with ``os.wait4``. The commands are single-threaded and CPU-bound, so on an
idle machine this equals their wall time; on a shared machine it leaves out
the time the process waited for a core, which would otherwise dominate the
run-to-run spread. Wall times are reported in the information line.

``--trace 1`` repeats the sequence's work in-process, alternating a pass
with a span around each public layer function (see ``layers.py``) and an
untraced pass; the median difference of the two is the tracing overhead.
Both passes must write the same datasets and models (at seed 1, the
fingerprinted ones); each pass counts as one attempted operation.

Every command counts as one attempted operation. It fails when it exits
nonzero, writes a traceback, leaves an artifact missing, produces an
artifact that differs between repetitions or from the committed
fingerprint (seed 1 only), or breaks an invariant checked on every seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

DEFAULT_SEED = 1  # the seed whose artifacts are fingerprinted
SETUP_REPEATS = 5
MIN_REPS = 2
IMPORT_REPEATS = 3
KNN_K = 5
WINDOW_DAYS = 365
INTERVAL_DAYS = (365, 730, 1095, 1460)
DATASET_FILES = ("train.csv", "test.csv", "meta.json")
MODES = ("leakfree", "leaky")
MODEL_KINDS = ("knn", "linear")
# The deterministic outputs of an in-process pass, named as in the CLI run.
PASS_ARTIFACTS = ("ledger.jsonl",
                  *(f"{mode}/{name}" for mode in MODES for name in DATASET_FILES),
                  *(f"{mode}-{kind}/model.json" for mode in MODES for kind in MODEL_KINDS))
TRACEBACK = "Traceback (most recent call last)"
INGEST_SUMMARY = re.compile(
    r"ok: (\d+) revision\(s\), (\d+) observation\(s\), (\d+) change\(s\)")
BUILD_SUMMARY = re.compile(r"train=(\d+) test=(\d+)")


@dataclass(frozen=True)
class Workload:
    n_files: int
    n_revisions: int
    warnings_per_revision: int

    def synth_config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "n_files": self.n_files,
            "n_revisions": self.n_revisions,
            "warnings_per_revision": self.warnings_per_revision,
            "incidental_close_rate": 0.2,
            "file_delete_rate": 0.1,
        }


# Each shape stresses different layers; every layer runs in all three. Every
# command pays about 0.35 s of interpreter start-up, and each one that reads
# the ledger also pays its ingest; the shares below are of a command's CPU
# time, measured over ten seeds (bench/README.md has the full table). One
# repetition of the sequence takes 9-14 CPU seconds, so that at least two
# fit one run.
WORKLOADS = {
    # Between ROADMAP's S and M scales: layer work is about 40% of the builds
    # and the audit, 10-20% of label and sweep.
    "paper-audit": Workload(48, 48, 12),
    # Long timelines with few warnings alive: start-up and ledger ingest are
    # most of every command that reads the ledger. Many files with two
    # warnings each keep the input size steady across seeds.
    "deep-history": Workload(40, 108, 2),
    # Many warnings alive at once in a short history: population features and
    # the time-travel audit are most of the builds and the audit, and the
    # splits are the largest for kNN. 18 revisions keep one sweep interval
    # inside the history.
    "wide-snapshot": Workload(120, 18, 52),
}
# Large enough that every command and layer runs; used untimed.
WARM_UP = Workload(10, 20, 5)


@dataclass(frozen=True)
class Step:
    name: str
    metric: str  # the end-to-end metric this command's time adds to
    args: tuple[str, ...]
    artifacts: tuple[str, ...]  # deterministic outputs, relative to the run directory

    def option(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]


def command_sequence(anchors: dict) -> list[Step]:
    train, test, ref = anchors["train"], anchors["test"], anchors["reference"]
    ledger = ("--ledger", "ledger.jsonl")
    intervals = ",".join(f"{days}d" for days in INTERVAL_DAYS)
    steps = [
        Step("ingest", "ingest_s", ("ingest", *ledger), ()),
        Step("label", "label_s",
             ("label", *ledger, "--at", test, "--ref", ref, "--out", "label"),
             ("label/labels.csv", "label/label_summary.json")),
        Step("sweep", "sweep_s",
             ("sweep", *ledger, "--at", test, "--intervals", intervals, "--out", "sweep"),
             ("sweep/sweep.json",)),
        Step("build-leakfree", "build_leakfree_dedup_s",
             ("build", *ledger, "--train", train, "--test", test, "--ref", ref,
              "--mode", "leakfree", "--window", f"{WINDOW_DAYS}d", "--dedup",
              "--out", "leakfree"),
             tuple(f"leakfree/{name}" for name in DATASET_FILES)),
        Step("build-leaky", "build_leaky_s",
             ("build", *ledger, "--train", train, "--test", test, "--ref", ref,
              "--mode", "leaky", "--out", "leaky"),
             tuple(f"leaky/{name}" for name in DATASET_FILES)),
    ]
    for mode in MODES:
        for kind in MODEL_KINDS:
            out = f"{mode}-{kind}"
            k = ("--k", str(KNN_K)) if kind == "knn" else ()
            steps.append(Step(f"fit-{out}", "fit_eval_s",
                              ("fit", "--dataset", mode, "--model-kind", kind, *k, "--out", out),
                              (f"{out}/model.json",)))
            steps.append(Step(f"eval-{out}", "fit_eval_s",
                              ("eval", "--dataset", mode, "--model", f"{out}/model.json",
                               "--out", out),
                              (f"{out}/report.json",)))
    steps.append(Step("audit", "audit_s",
                      ("audit", "--dataset", "leakfree", "--ledger", "ledger.jsonl",
                       "--out", "audit"),
                      ("audit/audit.json",)))
    return steps


SYNTH = Step("synth", "setup_s", ("synth", "--config", "synth.json", "--out", "."),
             ("ledger.jsonl",))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float  # user + system time of the process
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(argv: list[str], cwd: Path, log: Path) -> Outcome:
    """Run one child to completion; its peak RSS comes from ``os.wait4``."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_cli(args: tuple[str, ...], cwd: Path, log: Path) -> Outcome:
    return run_process([sys.executable, "-m", "warnlab.cli", *args], cwd, log)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


class Checker:
    """Counts attempted and failed operations and names every problem found."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.hashes: dict[str, str] = {}  # artifact -> hash from its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {problem}" for problem in problems)

    def command(self, step: Step, outcome: Outcome, run_dir: Path, invariants) -> None:
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if TRACEBACK in outcome.stderr:
            problems.append("traceback on stderr")
        problems.extend(self.artifact_problems(step.artifacts, run_dir))
        if outcome.code == 0 and all((run_dir / rel).is_file() for rel in step.artifacts):
            try:
                problems.extend(invariants())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        self.record(step.name, problems)

    def artifact_problems(self, rels, run_dir: Path) -> list[str]:
        """Missing artifacts, and hashes that differ from an earlier run or the fingerprint."""
        problems = []
        for rel in rels:
            path = run_dir / rel
            if not path.is_file():
                problems.append(f"missing artifact {rel}")
                continue
            digest = sha256(path)
            if self.hashes.setdefault(rel, digest) != digest:
                problems.append(f"{rel} differs between repetitions")
            if self.expected is not None and self.expected.get(rel) != digest:
                problems.append(f"fingerprint mismatch: {rel}")
        return problems


def invariant_problems(step: Step, outcome: Outcome, run_dir: Path, ctx: dict) -> list[str]:
    """Invariants that hold on every seed, for the command ``step`` ran."""
    command = step.args[0]
    if command == "synth":
        return [] if (run_dir / "truth.json").is_file() else ["missing truth.json"]
    anchors = ctx["anchors"]
    if command == "ingest":
        match = INGEST_SUMMARY.search(outcome.stdout)
        if match is None:
            return ["no ingest summary on stdout"]
        if int(match[1]) != ctx["workload"].n_revisions:
            return [f"ingested {match[1]} revisions"]
        return []
    if command == "label":
        rows = read_csv(run_dir / "label/labels.csv")
        summary = read_json(run_dir / "label/label_summary.json")
        problems = []
        if len(rows) != sum(summary["counts"].values()):
            problems.append("labels.csv rows disagree with label_summary.json counts")
        if any(row["at_revision"] != anchors["test"]
               or row["reference_revision"] != anchors["reference"] for row in rows):
            problems.append("a label names the wrong revisions")
        return problems
    if command == "sweep":
        rows = read_json(run_dir / "sweep/sweep.json")["rows"]
        labeled = len(read_csv(run_dir / "label/labels.csv"))
        problems = []
        if len(rows) != len(INTERVAL_DAYS):
            problems.append(f"{len(rows)} sweep rows for {len(INTERVAL_DAYS)} intervals")
        for row in rows:
            if row["reference_revision"] is not None and (
                    row["actionable"] + row["false_alarm"] + row["unknown"] != labeled):
                problems.append(f"sweep row {row['interval_days']}d labels another warning set")
        return problems
    if command == "build":
        out = run_dir / step.option("--out")
        meta = read_json(out / "meta.json")
        problems = []
        if (meta["train_rev"], meta["test_rev"], meta["ref_rev"]) != (
                anchors["train"], anchors["test"], anchors["reference"]):
            problems.append("meta.json names the wrong revisions")
        if meta["mode"] != step.option("--mode") or meta["dedup"] != ("--dedup" in step.args):
            problems.append("meta.json names the wrong mode")
        match = BUILD_SUMMARY.search(outcome.stdout)
        rows = (len(read_csv(out / "train.csv")), len(read_csv(out / "test.csv")))
        if match is None or (int(match[1]), int(match[2])) != rows:
            problems.append("split sizes on stdout disagree with the CSVs")
        if not all(rows):
            problems.append("an empty split")
        return problems
    if command == "fit":
        model = read_json(run_dir / step.option("--out") / "model.json")
        return [] if model["kind"] == step.option("--model-kind") else ["wrong model kind"]
    if command == "eval":
        report = read_json(run_dir / step.option("--out") / "report.json")
        test_rows = len(read_csv(run_dir / step.option("--dataset") / "test.csv"))
        problems = []
        if sum(report["counts"].values()) != test_rows:
            problems.append("confusion counts do not cover the test split")
        if not (0.0 <= report["f1"] <= 1.0 and 0.0 <= report["auc"] <= 1.0):
            problems.append("F1 or AUC outside [0, 1]")
        return problems
    if command == "audit":
        audit = read_json(run_dir / "audit/audit.json")
        problems = []
        if audit["duplication"]["duplicated"] != 0:
            problems.append("deduplicated dataset has train/test duplicates")
        guard = audit["leakage_guard"]
        if not (guard.get("checked") and guard.get("ok")):
            problems.append("leakage guard not ok")
        return problems
    raise ValueError(f"no invariants for command {command!r}")


def run_step(step: Step, run_dir: Path, checker: Checker, ctx: dict) -> Outcome:
    outcome = run_cli(step.args, run_dir, run_dir / "logs" / step.name)
    checker.command(step, outcome, run_dir,
                    lambda: invariant_problems(step, outcome, run_dir, ctx))
    return outcome


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def prepare(name: str, workload: Workload, seed: int) -> Path:
    run_dir = WORK_ROOT / name
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "logs").mkdir(parents=True)
    (run_dir / "synth.json").write_text(json.dumps(workload.synth_config(seed)) + "\n")
    return run_dir


def warm_up(run_dir: Path) -> None:
    """Untimed: compiles the package's bytecode and pages in the interpreter."""
    warm = run_dir / "warmup"
    warm.mkdir()
    (warm / "synth.json").write_text(json.dumps(WARM_UP.synth_config(0)) + "\n")
    outcome = run_cli(SYNTH.args, warm, run_dir / "logs" / "warmup")
    if outcome.code != 0:
        raise SystemExit(f"warm-up failed:\n{outcome.stderr}")


def set_up(run_dir: Path, checker: Checker, ctx: dict,
           repeats: int) -> tuple[list[Outcome], dict]:
    """Write the ledger ``repeats`` times; return their outcomes and the anchors."""
    outcomes = [run_step(SYNTH, run_dir, checker, ctx) for _ in range(repeats)]
    try:
        anchors = read_json(run_dir / "truth.json")["anchors"]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"set-up wrote no usable truth.json: {exc!r}")
    return outcomes, anchors


def measure_pipeline(steps: list[Step], run_dir: Path, checker: Checker, ctx: dict,
                     start: float, seconds: float) -> list[dict]:
    """Repeat the sequence ``MIN_REPS`` times, then while the run fits ``seconds`` from ``start``."""
    reps: list[dict] = []
    first = time.perf_counter()
    while True:
        cpu: dict[str, float] = defaultdict(float)
        wall = peak_rss = 0.0
        for step in steps:
            outcome = run_step(step, run_dir, checker, ctx)
            cpu[step.metric] += outcome.cpu_s
            wall += outcome.wall_s
            peak_rss = max(peak_rss, outcome.rss_mb)
        reps.append(dict(cpu, pipeline_s=sum(cpu.values()), pipeline_wall_s=wall,
                         peak_rss_mb=peak_rss))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - first) / len(reps) - start > seconds:
            return reps


def median_of(reps: list[dict], name: str) -> float:
    return statistics.median(rep[name] for rep in reps)


def sizes_and_results(run_dir: Path) -> dict:
    """Informational: input sizes and the paper's F1/AUC gap, never gated."""
    sizes: dict = {}
    results: dict = {}
    try:
        with open(run_dir / "ledger.jsonl", encoding="utf-8") as fp:
            sizes["ledger_lines"] = sum(1 for _ in fp)
        match = INGEST_SUMMARY.search((run_dir / "logs" / "ingest.out").read_text())
        if match:
            sizes.update(revisions=int(match[1]), observations=int(match[2]),
                         changes=int(match[3]))
        for mode in MODES:
            manifest = read_json(run_dir / f"{mode}-knn" / "model.json")["manifest"]
            sizes[mode] = {
                "train_rows": len(read_csv(run_dir / mode / "train.csv")),
                "test_rows": len(read_csv(run_dir / mode / "test.csv")),
                "encoded_dim": len(manifest["numeric"]) + sum(
                    len(vocab) for _, vocab in manifest["categorical"]),
            }
            for kind in MODEL_KINDS:
                report = read_json(run_dir / f"{mode}-{kind}" / "report.json")
                results[f"{mode}-{kind}"] = {
                    key: report[key] for key in ("f1", "auc", "baseline_f1")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sizes["unavailable"] = repr(exc)
    return {"sizes": sizes, "results": results}


def end_to_end(name: str, workload: Workload, seed: int, seconds: float,
               checker: Checker) -> tuple[dict, dict]:
    start = time.perf_counter()
    run_dir = prepare(name, workload, seed)
    warm_up(run_dir)
    ctx = {"workload": workload}
    setup, ctx["anchors"] = set_up(run_dir, checker, ctx, SETUP_REPEATS)
    reps = measure_pipeline(command_sequence(ctx["anchors"]), run_dir, checker, ctx,
                            start, seconds)
    metrics = {"setup_s": (statistics.median(o.cpu_s for o in setup), "s")}
    for metric in ("pipeline_s", "ingest_s", "label_s", "sweep_s", "build_leakfree_dedup_s",
                   "build_leaky_s", "fit_eval_s", "audit_s"):
        metrics[metric] = (median_of(reps, metric), "s")
    metrics["peak_rss_mb"] = (median_of(reps, "peak_rss_mb"), "MB")
    return metrics, {
        "anchors": ctx["anchors"],
        "repetitions": len(reps),
        "pipeline_s_by_repetition": [rep["pipeline_s"] for rep in reps],
        "setup_wall_s": statistics.median(o.wall_s for o in setup),
        "pipeline_wall_s": median_of(reps, "pipeline_wall_s"),
        **sizes_and_results(run_dir),
    }


def per_layer(name: str, workload: Workload, seed: int, seconds: float,
              checker: Checker) -> tuple[dict, dict]:
    start = time.perf_counter()
    run_dir = prepare(name, workload, seed)
    warm_up(run_dir)
    import_times = [
        run_process([sys.executable, "-c", "import warnlab.cli"], run_dir,
                    run_dir / "logs" / "import").cpu_s
        for _ in range(IMPORT_REPEATS)
    ]

    sys.path.insert(0, str(SRC))
    import layers

    options = dict(knn_k=KNN_K, window_days=float(WINDOW_DAYS),
                   intervals_days=tuple(map(float, INTERVAL_DAYS)))
    # Untimed: a tiny pass runs every code path once, so that lazy imports
    # and first-call costs land in neither side of the overhead.
    layers.layer_pass(layers.no_span, run_dir / "warmup-pass",
                      WARM_UP.synth_config(seed), **options)

    tracer = layers.Tracer()
    pass_dir = run_dir / "pass"

    def one_pass(span) -> tuple[float, int | None, dict]:
        cpu = time.process_time()
        pass_id, counts = layers.layer_pass(span, pass_dir, workload.synth_config(seed),
                                            **options)
        cpu = time.process_time() - cpu
        problems = [] if counts["audit_ok"] else ["time-travel audit failed in-process"]
        problems += checker.artifact_problems(PASS_ARTIFACTS, pass_dir)
        checker.record("traced-pass" if pass_id is not None else "untraced-pass", problems)
        return cpu, pass_id, counts

    # Passes run in pairs, one traced and one untraced, in alternating order,
    # so that drift of the machine's speed and any cost of coming second fall
    # on both sides of the overhead.
    untraced: list[float] = []
    traced: list[tuple[float, dict]] = []
    while True:
        if len(traced) % 2:
            cpu, pass_id, counts = one_pass(tracer.span)
            untraced.append(one_pass(layers.no_span)[0])
        else:
            untraced.append(one_pass(layers.no_span)[0])
            cpu, pass_id, counts = one_pass(tracer.span)
        traced.append((cpu, tracer.pass_totals(pass_id)))
        if time.perf_counter() - start + untraced[-1] + cpu > seconds:
            break
    peak_mb = layers.ingest_peak_mb(pass_dir / "ledger.jsonl")
    tracer.write(run_dir / "spans.jsonl")

    metrics = {"cli.import_s": (statistics.median(import_times), "s")}
    for span_name in sorted(traced[0][1]):
        metrics[f"{span_name}_s"] = (
            statistics.median(totals.get(span_name, 0.0) for _, totals in traced), "s")
    metrics["history.ingest_peak_mb"] = (peak_mb, "MB")
    units = {"history.lines": "count", "history.observations": "count",
             "oracle.unknown_ratio": "ratio", "oracle.sweep_rows": "count",
             "features.vectors": "count", "features.flagged_ratio": "ratio",
             "dataset.dedup_keep_ratio": "ratio", "models.knn_distance_evals": "count"}
    for counter, unit in units.items():
        metrics[counter] = (counts[counter], unit)
    metrics["trace.total_s"] = (statistics.median(cpu for cpu, _ in traced), "s")
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    # Each traced pass is compared with the untraced pass of its pair.
    metrics["trace.overhead_s"] = (statistics.median(
        cpu - plain for (cpu, _), plain in zip(traced, untraced)), "s")
    metrics["trace.span_coverage"] = (
        statistics.median(sum(totals.values()) / cpu for cpu, totals in traced), "ratio")
    return metrics, {"anchors": counts["anchors"], "passes": len(traced)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS,
         fingerprints: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "warnlab" / "cli.py").is_file():
        print(f"error: no warnlab sources under {SRC}", file=sys.stderr)
        return 2
    if fingerprints is None:
        fingerprints = read_json(FINGERPRINTS)
    expected = fingerprints.get(args.workload) if args.seed == DEFAULT_SEED else None
    if args.seed == DEFAULT_SEED and expected is None:
        print(f"error: no fingerprints for workload {args.workload!r}", file=sys.stderr)
        return 2

    checker = Checker(expected)
    measure = per_layer if args.trace else end_to_end
    metrics, info = measure(args.workload, workloads[args.workload], args.seed,
                                     args.seconds, checker)
    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        **info,
        "fingerprints": "checked" if expected is not None else "held-out seed: invariants only",
        "artifacts": dict(sorted(checker.hashes.items())),
        "problems": list(dict.fromkeys(checker.problems)),
    }, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
