from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warnlab.errors import ValidationError
from warnlab.evaluation import (
    ConfusionCounts,
    EvalReport,
    auc,
    confusion,
    evaluate_predictions,
    prf1,
    strawman_f1,
    wilcoxon_exact,
)
from warnlab.oracle import Label


def brute_force_auc(scored):
    """Pairwise concordance count with half credit for ties."""
    pos = [s for s, lab in scored if lab is Label.ACTIONABLE]
    neg = [s for s, lab in scored if lab is not Label.ACTIONABLE]
    if not pos or not neg:
        return 0.5
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def enumerated_wilcoxon_p(diffs):
    """Literal walk over every sign assignment of the ranked differences."""
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    ordered = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and abs(nonzero[ordered[j]]) == abs(nonzero[ordered[i]]):
            j += 1
        for pos in range(i, j):
            ranks[ordered[pos]] = (i + 1 + j) / 2.0
        i = j
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    total = sum(ranks)
    le_plus = 0
    le_minus = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_plus:
            le_plus += 1
        if total - w <= w_minus:
            le_minus += 1
    denom = 2 ** n
    return min(1.0, 2 * min(le_plus / denom, le_minus / denom))


class TestPRF1:
    def test_formulas(self):
        counts = ConfusionCounts(tp=6, fp=2, fn=4, tn=8)
        out = prf1(counts)
        assert out.precision == 6 / 8
        assert out.recall == 6 / 10
        expected_f1 = 2 * out.precision * out.recall / (out.precision + out.recall)
        assert out.f1 == expected_f1

    def test_degenerate_counts_flagged(self):
        out = prf1(ConfusionCounts(tp=0, fp=0, fn=0, tn=5))
        assert out.precision == 0.0 and out.recall == 0.0 and out.f1 == 0.0
        assert out.flags  # both undefined flags set

    def test_confusion_table(self):
        y_true = [Label.ACTIONABLE, Label.ACTIONABLE, Label.FALSE_ALARM,
                  Label.FALSE_ALARM]
        y_pred = [Label.ACTIONABLE, Label.FALSE_ALARM, Label.ACTIONABLE,
                  Label.FALSE_ALARM]
        counts = confusion(y_true, y_pred)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)

    def test_permutation_invariance(self):
        rng = random.Random(2)
        y_true = [rng.choice([Label.ACTIONABLE, Label.FALSE_ALARM]) for _ in range(30)]
        y_pred = [rng.choice([Label.ACTIONABLE, Label.FALSE_ALARM]) for _ in range(30)]
        order = list(range(30))
        rng.shuffle(order)
        a = prf1(confusion(y_true, y_pred))
        b = prf1(confusion([y_true[i] for i in order], [y_pred[i] for i in order]))
        assert a == b


class TestAUC:
    def test_constant_scores_exactly_half(self):
        scored = [(1.0, Label.ACTIONABLE)] * 7 + [(1.0, Label.FALSE_ALARM)] * 13
        assert auc(scored) == 0.5

    def test_perfect_separation(self):
        scored = [(2.0, Label.ACTIONABLE)] * 5 + [(1.0, Label.FALSE_ALARM)] * 5
        assert auc(scored) == 1.0

    def test_four_instance_fixture_matches_pairwise_enumeration(self):
        scored = [
            (0.9, Label.ACTIONABLE),
            (0.4, Label.FALSE_ALARM),
            (0.4, Label.ACTIONABLE),
            (0.1, Label.FALSE_ALARM),
        ]
        assert auc(scored) == pytest.approx(brute_force_auc(scored), abs=1e-15)

    def test_random_inputs_match_brute_force(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 25)
            scored = [
                (rng.choice([0.1, 0.25, 0.5, 0.75, rng.random()]),
                 rng.choice([Label.ACTIONABLE, Label.FALSE_ALARM]))
                for _ in range(n)
            ]
            assert auc(scored) == pytest.approx(brute_force_auc(scored), abs=1e-12)

    def test_single_class_pins_to_half(self):
        assert auc([(0.3, Label.ACTIONABLE), (0.9, Label.ACTIONABLE)]) == 0.5
        assert auc([]) == 0.5

    def test_nan_score_is_ranked(self):
        """A NaN equals no score, not even itself: ranking one once never ended."""
        assert auc([(math.nan, Label.ACTIONABLE), (0.5, Label.FALSE_ALARM)]) in (0.0, 1.0)

    @given(st.lists(st.tuples(st.integers(-50, 50),
                              st.sampled_from([Label.ACTIONABLE, Label.FALSE_ALARM])),
                    min_size=2, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_negation_identity_on_tie_free_inputs(self, raw):
        scores = {s for s, _ in raw}
        if len(scores) != len(raw):  # only tie-free inputs
            return
        labels = [lab for _, lab in raw]
        if len(set(labels)) < 2:
            return
        scored = [(float(s), lab) for s, lab in raw]
        negated = [(-s, lab) for s, lab in scored]
        assert auc(scored) + auc(negated) == pytest.approx(1.0, abs=1e-12)


class TestWilcoxon:
    def test_paired_shift_replay(self):
        pairs = [(24, 43), (41, 43), (50, 50), (10, 66),
                 (17, 91), (44, 67), (17, 16), (42, 52)]
        result = wilcoxon_exact(pairs)
        assert result.n == 7  # the zero pair drops out
        assert result.w_minus == 1.0
        assert result.p_value == pytest.approx(0.03125, abs=1e-15)

    def test_symmetric_differences(self):
        result = wilcoxon_exact([(0.0, 5.0), (5.0, 0.0)])
        assert result.p_value == 1.0

    def test_single_pair(self):
        result = wilcoxon_exact([(0.0, 5.0)])
        assert result.n == 1
        assert result.p_value == 1.0

    def test_all_zero_differences_rejected(self):
        with pytest.raises(ValidationError, match="no information"):
            wilcoxon_exact([(1.0, 1.0), (2.0, 2.0)])

    def test_enumeration_bound_enforced(self):
        pairs = [(0.0, float(i + 1)) for i in range(26)]
        with pytest.raises(ValidationError, match="at most 25"):
            wilcoxon_exact(pairs)

    def test_pair_order_invariance(self):
        rng = random.Random(3)
        pairs = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(9)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert wilcoxon_exact(pairs).p_value == wilcoxon_exact(shuffled).p_value

    def test_column_swap_flips_statistic(self):
        rng = random.Random(4)
        pairs = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(8)]
        forward = wilcoxon_exact(pairs)
        backward = wilcoxon_exact([(b, a) for a, b in pairs])
        assert forward.p_value == backward.p_value
        assert forward.statistic == -backward.statistic

    def test_matches_literal_enumeration(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 9)
            pairs = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n)]
            diffs = [b - a for a, b in pairs]
            if all(d == 0 for d in diffs):
                continue
            expected = enumerated_wilcoxon_p(diffs)
            assert wilcoxon_exact(pairs).p_value == pytest.approx(expected, abs=1e-15)


class TestStrawmanIdentity:
    def test_constant_actionable_f1_identity(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 120)
            k = rng.randint(1, n)
            y_true = ([Label.ACTIONABLE] * k + [Label.FALSE_ALARM] * (n - k))
            rng.shuffle(y_true)
            y_pred = [Label.ACTIONABLE] * n
            report = evaluate_predictions(y_true, y_pred, [1.0] * n)
            ratio = k / n
            assert report.recall == 1.0
            assert report.precision == ratio
            assert report.f1 == pytest.approx(strawman_f1(ratio), abs=1e-15)
            assert report.auc == 0.5


class TestReportJson:
    def test_round_trip(self):
        y_true = [Label.ACTIONABLE, Label.FALSE_ALARM, Label.ACTIONABLE, Label.FALSE_ALARM]
        y_pred = [Label.ACTIONABLE, Label.ACTIONABLE, Label.FALSE_ALARM, Label.FALSE_ALARM]
        report = evaluate_predictions(y_true, y_pred, [0.9, 0.6, 0.4, 0.1], project="p")
        assert EvalReport.from_json(report.to_json()) == report

    def test_missing_flags_rejected(self):
        data = evaluate_predictions([Label.ACTIONABLE], [Label.ACTIONABLE], [1.0]).to_json()
        del data["flags"]
        with pytest.raises(ValidationError, match="'flags' is missing"):
            EvalReport.from_json(data)

    @pytest.mark.parametrize("field,value", [
        ("f1", "0.5"), ("auc", True), ("project", None), ("flags", [1]),
        ("counts", {"tp": 1, "fp": 0, "fn": 0}), ("counts", {"tp": 1.5, "fp": 0, "fn": 0, "tn": 0}),
    ])
    def test_mistyped_field_rejected(self, field, value):
        data = evaluate_predictions([Label.ACTIONABLE], [Label.ACTIONABLE], [1.0]).to_json()
        data[field] = value
        with pytest.raises(ValidationError):
            EvalReport.from_json(data)
