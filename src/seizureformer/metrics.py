"""Exact ranking metrics for imbalanced binary labels.

ROC AUC is the Mann-Whitney statistic (ties count half), computed from
average ranks in O(N log N).  PR AUC is the step-wise average-precision
estimator with equal scores collapsed into one threshold group; trapezoidal
interpolation over PR space is deliberately avoided because it overestimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError


@dataclass
class MetricsReport:
    roc_auc: float
    pr_auc: float
    n_pos: int
    n_neg: int
    scores: np.ndarray  # float64, as scored
    labels: np.ndarray  # int64, 0 or 1


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.array(scores, dtype=np.float64)  # a copy: a report keeps it, whatever the caller does next
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1 or len(s) != len(y):
        raise ValueError("scores and labels must be equal-length vectors")
    if len(s) == 0:
        raise ValueError("empty inputs")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def roc_auc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 * P(tie), over all pos/neg pairs."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"ROC AUC undefined for a single class (pos={n_pos}, neg={n_neg})")

    # average 1-based rank per tie group: group g spans sorted positions start..end
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = 0.5 * (ends - counts + 1 + ends)
    rank_sum = ranks[group][y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pr_auc(scores, labels) -> float:
    """Average precision: sum of precision-at-threshold times recall increment."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise DataError("PR AUC undefined without positive samples")

    order = np.argsort(-s, kind="mergesort")
    y_sorted = y[order]
    s_sorted = s[order]
    starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    group_pos = np.add.reduceat(y_sorted, starts)
    tp = np.cumsum(group_pos)
    fp = np.cumsum(np.diff(np.r_[starts, len(s)]) - group_pos)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    # a sequential sum, so the result is the same bytes as adding group by group
    return float(np.cumsum(np.diff(np.r_[0.0, recall]) * precision)[-1])


def report(scores, labels) -> MetricsReport:
    s, y = _validate(scores, labels)
    return MetricsReport(
        roc_auc=roc_auc(s, y),
        pr_auc=pr_auc(s, y),
        n_pos=int(y.sum()),
        n_neg=int(len(y) - y.sum()),
        scores=s,
        labels=y,
    )
