import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canids import ingest
from canids.canbus import KIND_NAMES
from helpers import roc_auc_loop
from canids.metrics import (
    ConfusionMatrix,
    EmptyMatrix,
    InvalidLabel,
    LengthMismatch,
    NonFiniteScore,
    SingleClassInput,
    confusion,
    evaluate_predictions,
    metrics_from_confusion,
    per_kind_recall,
    roc_auc,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def formula_oracle(tp, tn, fp, fn):
    """Direct formula evaluation, written separately from the implementation."""
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    return acc, prec, rec, f1, rec, tnr


def rank_sum_auc(scores, labels):
    """Mann-Whitney U / (P * N), ties counted half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n_) + 0.5 * (p == n_) for p in pos for n_ in neg)
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_agreement(self):
        y = np.array([1] * 10 + [0] * 10)
        cm = confusion(y, y)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (10, 10, 0, 0)

    def test_all_normal_predictions(self):
        y = np.array([1, 1, 1, 1, 1, 0, 0])
        cm = confusion(y, np.zeros(7, dtype=int))
        assert cm.fn == 5 and cm.tp == 0 and cm.tn == 2

    def test_matches_elementwise_tally(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 10_000)
        p = rng.integers(0, 2, 10_000)
        cm = confusion(y, p)
        tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for yi, pi in zip(y, p):
            key = ("t" if yi == pi else "f") + ("p" if pi == 1 else "n")
            tally[key] += 1
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
            tally["tp"],
            tally["tn"],
            tally["fp"],
            tally["fn"],
        )
        assert cm.total == 10_000

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])
        with pytest.raises(ingest.LengthMismatch):  # one class for both modules
            confusion([0, 1], [0])
        with pytest.raises(LengthMismatch):
            ingest.pearson([1.0, 2.0], [1.0])
        with pytest.raises(InvalidLabel):
            confusion([0, 2], [0, 1])


class TestMetrics:
    def test_symmetric_counts(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=9, tn=9, fp=1, fn=1))
        assert report.accuracy == pytest.approx(0.9)
        assert report.precision == pytest.approx(0.9)
        assert report.recall == pytest.approx(0.9)
        assert report.f1 == pytest.approx(0.9)

    def test_degenerate_precision_flagged(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=0, tn=5, fp=0, fn=3))
        assert report.precision == 0.0
        assert "precision" in report.degenerate

    def test_random_matrices_match_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + tn + fp + fn == 0:
                continue
            report = metrics_from_confusion(ConfusionMatrix(tp, tn, fp, fn))
            expected = formula_oracle(tp, tn, fp, fn)
            got = (
                report.accuracy,
                report.precision,
                report.recall,
                report.f1,
                report.tpr,
                report.tnr,
            )
            assert got == pytest.approx(expected, abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=7, tn=2, fp=3, fn=4))
        expected = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert abs(report.f1 - expected) < 1e-12

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_f1_between_precision_and_recall(self, tp, tn, fp, fn):
        report = metrics_from_confusion(ConfusionMatrix(tp, tn, fp, fn))
        if report.precision > 0 and report.recall > 0:
            low = min(report.precision, report.recall)
            high = max(report.precision, report.recall)
            assert low - 1e-12 <= report.f1 <= high + 1e-12

    def test_identity_predictions_have_accuracy_one(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 500)
        report = metrics_from_confusion(confusion(y, y))
        assert report.accuracy == 1.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            metrics_from_confusion(ConfusionMatrix(0, 0, 0, 0))


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        auc, points = roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels)
        assert auc == pytest.approx(1.0)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)

    def test_constant_scores_give_half(self):
        auc, points = roc_auc(np.full(10, 0.5), np.array([0, 1] * 5))
        assert auc == pytest.approx(0.5)
        assert len(points) == 2  # one grouped threshold step

    def test_matches_rank_sum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.uniform(size=n), 2)  # deliberate ties
            auc, _ = roc_auc(scores, labels)
            assert auc == pytest.approx(rank_sum_auc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 100)
        labels[:2] = [0, 1]
        scores = rng.uniform(size=100)
        base, _ = roc_auc(scores, labels)
        assert roc_auc(3 * scores + 2, labels)[0] == pytest.approx(base, abs=1e-12)
        assert roc_auc(np.exp(scores), labels)[0] == pytest.approx(base, abs=1e-12)

    def test_flip_symmetry(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        scores = rng.uniform(size=60)
        base, _ = roc_auc(scores, labels)
        flipped, _ = roc_auc(1 - scores, 1 - labels)
        assert flipped == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteScore, match=rf"^score {bad} at index 1 is not finite$"):
            roc_auc([0.1, bad, 0.9, bad], [0, 1, 1, 0])

    @pytest.mark.parametrize("ties", ["none", "rounded", "constant", "few"])
    def test_equals_reference_loop_bit_for_bit(self, ties):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            scores = {"none": rng.uniform(size=n), "rounded": np.round(rng.uniform(size=n), 1),
                      "constant": np.full(n, 0.25), "few": rng.integers(0, 3, n) / 3}[ties]
            auc, points = roc_auc(scores, labels)
            want_auc, want_points = roc_auc_loop(scores, labels)
            assert type(auc) is float
            assert np.float64(auc).view(np.int64) == np.float64(want_auc).view(np.int64)
            assert points == want_points

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=4, max_size=80))
    def test_rank_sum_equivalence_property(self, pairs):
        scores = np.array([p[0] for p in pairs])
        labels = np.array([p[1] for p in pairs])
        if labels.sum() in (0, len(labels)):
            return
        auc, _ = roc_auc(scores, labels)
        assert auc == pytest.approx(rank_sum_auc(scores, labels), abs=1e-12)


class TestPerKindRecall:
    def test_breakdown(self):
        labels = np.array([1, 1, 1, 1, 0, 0])
        preds = np.array([1, 0, 1, 1, 0, 1])
        kinds = np.array([1, 1, 2, 3, 0, 0], dtype=np.uint8)  # codes into KIND_NAMES
        out = per_kind_recall(labels, preds, kinds)
        assert out == {"flooding": 0.5, "fuzzing": 1.0, "spoofing": 1.0}
        assert list(out) == ["flooding", "fuzzing", "spoofing"]

    def test_evaluate_predictions_combines_everything(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        scores = np.clip(labels + rng.normal(0, 0.4, 200), 0, 1)
        preds = (scores >= 0.5).astype(int)
        kinds = np.where(labels == 1, KIND_NAMES.index("fuzzing"), 0).astype(np.uint8)
        report = evaluate_predictions(labels, preds, scores=scores, kinds=kinds)
        assert report.roc_auc is not None
        assert report.roc_auc == pytest.approx(rank_sum_auc(scores, labels), abs=1e-12)
        assert "fuzzing" in report.per_kind_recall
        assert report.as_dict()["accuracy"] == report.accuracy

    def test_evaluate_predictions_refuses_kinds_not_one_per_row(self):
        labels = np.array([0, 1, 1])
        with pytest.raises(LengthMismatch):
            evaluate_predictions(labels, labels, kinds=np.array([0, 1], dtype=np.uint8))
        assert evaluate_predictions(labels, labels, kinds=np.zeros(0, dtype=np.uint8)).per_kind_recall == {}
