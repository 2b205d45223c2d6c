"""Binary detection metrics: confusion counts, derived rates, and ROC AUC.

The attack class (label 1) is the positive class. Degenerate denominators
yield 0.0 plus a flag instead of raising, so comparison tables always fill.
Attack kinds come in as codes into ``canbus.KIND_NAMES`` and go out by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canbus import KIND_NAMES
from .ingest import LengthMismatch


class InvalidLabel(ValueError):
    """Labels/predictions must be 0 or 1."""


class EmptyMatrix(ValueError):
    """Metrics need at least one evaluated sample."""


class SingleClassInput(ValueError):
    """ROC needs at least one positive and one negative label."""


class NonFiniteScore(ValueError):
    """A ROC score is NaN or infinite."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(labels, predictions) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise LengthMismatch(f"{labels.shape} vs {predictions.shape}")
    if not (np.isin(labels, (0, 1)).all() and np.isin(predictions, (0, 1)).all()):
        raise InvalidLabel("labels and predictions must be 0/1")
    pos = labels == 1
    pred_pos = predictions == 1
    return ConfusionMatrix(
        tp=int((pos & pred_pos).sum()),
        tn=int((~pos & ~pred_pos).sum()),
        fp=int((~pos & pred_pos).sum()),
        fn=int((pos & ~pred_pos).sum()),
    )


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tpr: float  # sensitivity, equals recall
    tnr: float  # specificity
    roc_auc: float | None = None
    degenerate: tuple[str, ...] = ()
    per_kind_recall: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The six rates, then ``roc_auc``, ``degenerate`` and ``per_kind_recall`` where they are set."""
        out = {name: getattr(self, name) for name in ("accuracy", "precision", "recall", "f1", "tpr", "tnr")}
        optional = {"roc_auc": self.roc_auc, "degenerate": list(self.degenerate),
                    "per_kind_recall": dict(self.per_kind_recall)}
        return out | {name: value for name, value in optional.items() if value not in (None, [], {})}


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, precision, recall, F1, sensitivity, and specificity.

    accuracy  = (TP + TN) / (TP + TN + FP + FN)
    precision = TP / (TP + FP)          recall / TPR = TP / (TP + FN)
    F1        = 2 * P * R / (P + R)     TNR          = TN / (TN + FP)
    """
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix holds no samples")
    flags = []

    def ratio(num: int, denom: int, name: str) -> float:
        if denom == 0:
            flags.append(name)
            return 0.0
        return num / denom

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio(cm.tp, cm.tp + cm.fp, "precision")
    recall = ratio(cm.tp, cm.tp + cm.fn, "recall")
    if precision + recall == 0:
        flags.append("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    tnr = ratio(cm.tn, cm.tn + cm.fp, "tnr")
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        tpr=recall,
        tnr=tnr,
        degenerate=tuple(flags),
    )


def roc_auc(scores, labels) -> tuple[float, list[tuple[float, float]]]:
    """Trapezoidal area under the ROC sweep plus its (FPR, TPR) points.

    Thresholds descend over the unique scores with ties grouped into one
    step (the last row of each run), so the area equals the normalized
    rank-sum statistic. A non-finite score raises ``NonFiniteScore``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LengthMismatch(f"{scores.shape} vs {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise InvalidLabel("labels must be 0/1")
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise NonFiniteScore(f"score {scores.flat[bad[0]]} at index {bad[0]} is not finite")
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("need at least one positive and one negative label")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    last = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tp = np.cumsum(labels[order] == 1)[last]
    fpr = np.concatenate(([0.0], (last + 1 - tp) / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    area = np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2)[-1]
    return float(area), list(zip(fpr.tolist(), tpr.tolist()))


def per_kind_recall(labels, predictions, kinds) -> dict[str, float]:
    """Recall over the attack rows of each attack kind code present, keyed by its ``KIND_NAMES`` name."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    kinds = np.asarray(kinds)
    if not len(labels) == len(predictions) == len(kinds):
        raise LengthMismatch("labels, predictions, and kinds must align")
    out = {}
    for code, name in enumerate(KIND_NAMES[1:], 1):
        mask = (kinds == code) & (labels == 1)
        if mask.any():
            out[name] = float((predictions[mask] == 1).mean())
    return out


def evaluate_predictions(labels, predictions, scores=None, kinds=None) -> MetricsReport:
    """Full report for one model's predictions over one split; ``kinds`` are empty (unknown) or one per row."""
    cm = confusion(labels, predictions)
    report = metrics_from_confusion(cm)
    if scores is not None and 0 < cm.tp + cm.fn < cm.total:
        report.roc_auc = roc_auc(scores, labels)[0]
    if kinds is not None and len(kinds):
        report.per_kind_recall = per_kind_recall(labels, predictions, kinds)
    return report
