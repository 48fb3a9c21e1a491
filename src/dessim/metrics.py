"""Rank-based AUC and clamped log loss."""

import numpy as np

from .errors import MetricError

LOGLOSS_CLAMP = 1e-15


def auc(scores, labels):
    """Probability a random positive outscores a random negative; ties count half.

    Computed from average ranks of the positive class, which is exact for
    the pairwise definition including tied scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be 1-d and the same length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"AUC undefined with {n_pos} positive and {n_neg} negative labels"
        )
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    bounds = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    # each run of tied scores takes its average rank; a run of one keeps its own
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + 1 + bounds[1:]), np.diff(bounds))
    pos_rank_sum = ranks[pos].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(probs, labels):
    """Mean cross entropy with probabilities clamped away from 0 and 1."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), LOGLOSS_CLAMP, 1.0 - LOGLOSS_CLAMP)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise MetricError("probs and labels must be 1-d and the same length")
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))
