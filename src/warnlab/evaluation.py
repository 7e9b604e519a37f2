"""Evaluation metrics and statistics.

Precision/Recall/F1 over the actionable-vs-false-alarm confusion table,
rank-based AUC with half credit for ties (so a constant scorer lands at 0.5
exactly), and an exact two-sided Wilcoxon signed-rank test whose p-value is
computed from the full sign-assignment distribution rather than a normal
approximation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .dataset import Dataset
from .errors import Count, ModelError, Rate, ValidationError, field_types, read_fields
from .keys import Label
from .models import Model, encode_with, labels_of, predict_from_scores, score

FLAG_NO_PREDICTED_POSITIVES = "precision_undefined"
FLAG_NO_ACTUAL_POSITIVES = "recall_undefined"
FLAG_SINGLE_CLASS_AUC = "auc_single_class"


class ConfusionCounts(NamedTuple):
    tp: Count
    fp: Count
    fn: Count
    tn: Count


def confusion(y_true: Sequence[Label], y_pred: Sequence[Label]) -> ConfusionCounts:
    tp = fp = fn = tn = 0
    for truth, pred in zip(y_true, y_pred):
        if truth is Label.ACTIONABLE:
            if pred is Label.ACTIONABLE:
                tp += 1
            else:
                fn += 1
        else:
            if pred is Label.ACTIONABLE:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


class PRF1(NamedTuple):
    precision: float
    recall: float
    f1: float
    flags: frozenset[str] = frozenset()


def prf1(counts: ConfusionCounts) -> PRF1:
    """Precision, recall, and their harmonic mean; degenerate cases yield 0."""
    flags: set[str] = set()
    if counts.tp + counts.fp == 0:
        precision = 0.0
        flags.add(FLAG_NO_PREDICTED_POSITIVES)
    else:
        precision = counts.tp / (counts.tp + counts.fp)
    if counts.tp + counts.fn == 0:
        recall = 0.0
        flags.add(FLAG_NO_ACTUAL_POSITIVES)
    else:
        recall = counts.tp / (counts.tp + counts.fn)
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PRF1(precision, recall, f1, frozenset(flags))


def auc(scored: Sequence[tuple[float, Label]]) -> float:
    """Probability a random actionable outranks a random false alarm.

    Rank formulation with average ranks, equivalent to counting concordant
    pairs with half credit for score ties. Returns 0.5 when either class is
    absent (no ranking is defined).
    """
    n_pos = sum(1 for _, lab in scored if lab is Label.ACTIONABLE)
    n_neg = len(scored) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _average_ranks([s for s, _ in scored])
    rank_sum_pos = sum(r for r, (_, lab) in zip(ranks, scored) if lab is Label.ACTIONABLE)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based rank of each value in ascending order, tied values sharing
    the mean of their ranks. Every rank is a half-integer, exact in float."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i + 1  # a NaN equals nothing, not even itself
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        for pos in range(i, j):
            ranks[order[pos]] = (i + 1 + j) / 2.0  # mean of ranks i+1 .. j
        i = j
    return ranks


# ---------------------------------------------------------------------------
# Exact Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

MAX_EXACT_N = 25


class WilcoxonResult(NamedTuple):
    n: int  # pairs remaining after zero-difference removal
    w_plus: float
    w_minus: float
    statistic: float  # signed: w_plus - w_minus, flips with the column order
    p_value: float


def wilcoxon_exact(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Exact two-sided signed-rank test on paired values.

    Differences are second minus first; zero differences are discarded and
    tied absolute differences receive average ranks. The p-value is exact
    over all 2^n equally likely sign assignments:
    p = min(1, 2 * min(P(W+ <= w+), P(W- <= w-))).
    """
    diffs = [b - a for a, b in pairs]
    nonzero = [d for d in diffs if d != 0.0]
    if not nonzero:
        raise ValidationError("all differences are zero: no information")
    n = len(nonzero)
    if n > MAX_EXACT_N:
        raise ValidationError(
            f"exact enumeration supports at most {MAX_EXACT_N} nonzero pairs, got {n}"
        )
    from fractions import Fraction  # only ``report --wilcoxon`` loads it, and decimal with it
    ranks = _average_ranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)

    # Distribution of 2*W+ over all sign assignments. Doubling makes every
    # (possibly half-integer) rank an exact integer weight, so the
    # convolution below enumerates the same counts as walking all 2^n
    # assignments explicitly.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for weight in doubled:
        for s in range(total - weight, -1, -1):
            if counts[s]:
                counts[s + weight] += counts[s]
    denom = 1 << n

    def cdf(threshold: float) -> Fraction:
        limit = int(round(2 * threshold))
        return Fraction(sum(counts[: limit + 1]), denom)

    p_low = cdf(w_plus)
    p_high = cdf(w_minus)  # symmetry: P(W+ >= w+) = P(W- <= w-)
    p = min(Fraction(1), 2 * min(p_low, p_high))
    return WilcoxonResult(
        n=n,
        w_plus=w_plus,
        w_minus=w_minus,
        statistic=w_plus - w_minus,
        p_value=float(p),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class EvalReport(NamedTuple):
    project: str
    counts: ConfusionCounts
    precision: Rate
    recall: Rate
    f1: Rate
    auc: Rate
    actionability: Rate
    baseline_f1: Rate  # all-actionable strawman on the same test split
    flags: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {**self._asdict(), "counts": self.counts._asdict(), "flags": sorted(self.flags)}

    @classmethod
    def from_json(cls, data) -> "EvalReport":
        """Decode ``to_json`` output: each field it writes, by its kind; a
        missing or ill-kinded field raises ``ValidationError``."""
        return cls(**read_fields(data, "report", field_types(cls)))


def evaluate_predictions(
    y_true: Sequence[Label],
    y_pred: Sequence[Label],
    scores: Sequence[float],
    project: str = "project",
) -> EvalReport:
    counts = confusion(y_true, y_pred)
    quality = prf1(counts)
    flags = set(quality.flags)
    scored = list(zip(scores, y_true))
    if not any(lab is Label.ACTIONABLE for lab in y_true) or not any(
        lab is not Label.ACTIONABLE for lab in y_true
    ):
        flags.add(FLAG_SINGLE_CLASS_AUC)
    actionable = sum(1 for lab in y_true if lab is Label.ACTIONABLE)
    ratio = actionable / len(y_true) if y_true else 0.0
    return EvalReport(
        project=project,
        counts=counts,
        precision=quality.precision,
        recall=quality.recall,
        f1=quality.f1,
        auc=auc(scored),
        actionability=ratio,
        baseline_f1=strawman_f1(ratio),
        flags=frozenset(flags),
    )


def evaluate_model(model: Model, dataset: Dataset, project: str = "project") -> EvalReport:
    """Score a fitted model on a dataset's test split.

    The model scores the split once; the predicted labels are those scores
    thresholded by ``predict_from_scores``.
    """
    if not dataset.test:
        raise ValidationError("dataset has an empty test split")
    encoded = encode_with(model.manifest, dataset.test)
    scores = list(score(model, encoded))
    if not all(map(math.isfinite, scores)):  # finite weights can still overflow
        raise ModelError(f"{model.kind} model scores are not all finite")
    return evaluate_predictions(
        labels_of(dataset.test), predict_from_scores(model, scores), scores, project
    )


def render_report_table(reports: Sequence[EvalReport]) -> str:
    """Plain-text table: project, actionable share, F1 (baseline), AUC."""
    header = f"{'project':<16} {'Act.%':>6} {'F1 (baseline)':>16} {'AUC':>6}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        lines.append(
            f"{rep.project:<16} {100 * rep.actionability:>5.0f}% "
            f"{rep.f1:>6.2f} ({rep.baseline_f1:.2f}) {rep.auc:>6.2f}"
        )
    return "\n".join(lines) + "\n"


def strawman_f1(ratio: float) -> float:
    """F1 of always predicting actionable at a given actionable share in [0, 1]."""
    return 2.0 * ratio / (1.0 + ratio) if ratio else 0.0

