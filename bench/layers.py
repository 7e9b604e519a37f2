"""In-process pass over every layer: times each warnlab module's public functions.

The spans are recorded here, around the calls into each layer, so the
program itself carries no instrumentation. One pass repeats in-process the
work of the CLI sequence that ``run.py`` times from outside; ``run.py``
turns the span durations into the per-layer metrics. The same pass run
with ``no_span`` gives the untraced time that the tracing overhead is
measured against.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from warnlab import dataset as ds
from warnlab import evaluation as ev
from warnlab import features as ft
from warnlab import models as md
from warnlab import oracle as oc
from warnlab import synth as sy
from warnlab.history import emit_ledger, ingest_ledger, truncate_history
from warnlab.oracle import Label

PASS_SPAN = "pass"


class Tracer:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(span_id)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield span_id
        finally:
            cpu = time.process_time() - cpu_start
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id].update(start=start, end=end, cpu_s=cpu)

    def pass_totals(self, pass_id: int) -> dict[str, float]:
        """The summed CPU time of each span name directly inside one pass."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] == pass_id:
                totals[span["name"]] += span["cpu_s"]
        return dict(totals)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span, sort_keys=True) + "\n")


def no_span(name: str):
    """The span function of an untraced pass: records nothing."""
    return nullcontext()


def layer_pass(span, out_dir: Path, config: dict, *, knn_k: int, window_days: float,
               intervals_days: tuple[float, ...]) -> tuple[int | None, dict]:
    """Run every layer once, each call inside ``span(name)``.

    ``span`` is ``Tracer.span`` or ``no_span``. Returns the pass span id
    (None when untraced) and the pass's counts. The ledger, datasets and
    models are saved under ``out_dir`` with the same layout as the CLI run,
    so the caller can check them against the CLI run's fingerprints.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict = {}
    with span(PASS_SPAN) as pass_id:
        with span("synth.generate"):
            result = sy.generate(sy.SynthConfig.from_json(config))
        train, test, ref = result.anchors.train, result.anchors.test, result.anchors.reference
        ledger = out_dir / "ledger.jsonl"
        with span("history.emit"):
            with open(ledger, "w", encoding="utf-8") as fp:
                for line in emit_ledger(result.history):
                    fp.write(line + "\n")
        with span("history.ingest"):
            with open(ledger, encoding="utf-8") as fp:
                history = ingest_ledger(fp)
        with span("history.truncate"):
            truncate_history(history, ref)

        with span("oracle.label"):
            labels = oc.heuristic_label(history, test, ref)
        with span("oracle.sweep"):
            table = oc.sweep_reference(history, test, intervals_days)

        leakfree = ft.LeakMode.leakfree(window_days)
        leaky = ft.LeakMode.leaky()
        base = truncate_history(history, test)
        with span("features.universe"):
            ft.build_universe(base, history.rev_index(test))
        with span("features.extract_leakfree"):
            leakfree_vectors = ft.extract_golden(history, test, leakfree)
        with span("features.extract_leaky"):
            leaky_vectors = ft.extract_golden(history, test, leaky, ref)
        with span("features.audit"):
            audits = [ft.audit_time_travel(history, rev, leakfree) for rev in (train, test)]

        with span("dataset.build_leakfree_dedup"):
            built_leakfree = ds.build_dataset(history, train, test, ref, leakfree, dedup=True)
        with span("dataset.build_leaky"):
            built_leaky = ds.build_dataset(history, train, test, ref, leaky, dedup=False)
        built = {"leakfree": built_leakfree, "leaky": built_leaky}
        for name, dataset in built.items():
            with span("dataset.save"):
                ds.save_dataset(dataset, out_dir / name)
        loaded = {}
        for name in built:
            with span("dataset.load"):
                loaded[name] = ds.load_dataset(out_dir / name)

        for name, dataset in loaded.items():
            with span("models.encode"):
                manifest = md.fit_manifest(dataset.train)
                train_x = md.encode_with(manifest, dataset.train)
                test_x = md.encode_with(manifest, dataset.test)
            y = md.labels_of(dataset.train)
            for kind, k in (("knn", knn_k), ("linear", 1)):
                with span(f"models.fit_{kind}"):
                    model = md.fit(kind, train_x, y, seed=0, k=k)
                with span(f"models.score_{kind}"):
                    md.score(model, test_x)
                model_dir = out_dir / f"{name}-{kind}"
                model_dir.mkdir(exist_ok=True)
                with span(f"models.model_io_{kind}"):
                    md.save_model(model, model_dir / "model.json")
                    model = md.load_model(model_dir / "model.json")
                with span("evaluation.evaluate"):
                    ev.evaluate_model(model, dataset)

    vectors = list(leakfree_vectors.values()) + list(leaky_vectors.values())
    keys_at_test = len(history.keys_at(test))
    with open(ledger, encoding="utf-8") as fp:
        counts["history.lines"] = sum(1 for _ in fp)
    counts["history.observations"] = len(history.observations)
    counts["oracle.unknown_ratio"] = (
        sum(1 for lw in labels if lw.label is Label.UNKNOWN) / len(labels))
    counts["oracle.sweep_rows"] = sum(len(row.labels) for row in table.rows)
    counts["features.vectors"] = len(vectors)
    counts["features.flagged_ratio"] = sum(1 for vec in vectors if vec.flags) / len(vectors)
    counts["dataset.dedup_keep_ratio"] = 1 - built_leakfree.meta.dedup_removed / keys_at_test
    counts["models.knn_distance_evals"] = sum(
        len(dataset.test) * len(dataset.train) for dataset in loaded.values())
    counts["audit_ok"] = all(audit.ok for audit in audits)
    counts["anchors"] = {"train": train, "test": test, "reference": ref}
    return pass_id, counts


def ingest_peak_mb(ledger: Path) -> float:
    """Peak Python heap of one ingest, measured apart from the timed passes."""
    tracemalloc.start()
    try:
        with open(ledger, encoding="utf-8") as fp:
            ingest_ledger(fp)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
