"""Binary classification metrics: confusion counts at a 0.5 threshold plus AUC.

AUC is computed by the rank statistic (Mann-Whitney concordance with the
standard half-credit for ties), which equals trapezoidal integration of the
ROC curve over all score thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


DECISION_THRESHOLD = 0.5


class MetricsError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    auc_defined: bool
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), via average ranks."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def compute_metrics(scores: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Metrics at score >= DECISION_THRESHOLD plus AUC for binary labels.

    When only one class is present, AUC is undefined: it is reported as NaN
    with auc_defined=False rather than silently repaired.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricsError("shape-mismatch", f"{scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise MetricsError("empty-dataset", "no scores to evaluate")
    if not np.isin(labels, (0, 1)).all():
        raise MetricsError("label-domain", "labels must be 0 or 1")
    pred = scores >= DECISION_THRESHOLD
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    tn = int(np.sum(~pred & ~actual))
    fn = int(np.sum(~pred & actual))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    n_pos = tp + fn
    n_neg = fp + tn
    if n_pos == 0 or n_neg == 0:
        auc, auc_defined = math.nan, False  # single-class-auc
    else:
        auc, auc_defined = _rank_auc(scores, labels), True
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, auc=auc, auc_defined=auc_defined,
                         tp=tp, fp=fp, tn=tn, fn=fn)
