"""Ranking and calibration metrics against brute-force oracles."""

import math

import numpy as np
import pytest

from dessim.errors import MetricError
from dessim.metrics import auc, logloss


def brute_auc(scores, labels):
    """Pairwise counting definition, ties worth half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_auc(scores, labels):
    """Rank AUC with tied ranks averaged by a Python loop over the runs of ties."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1, dtype=np.float64)
    sorted_scores = scores[order]
    bounds = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo > 1:
            ranks[order[lo:hi]] = 0.5 * (lo + 1 + hi)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAuc:
    def test_hand_case(self):
        got = auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1.0]))
        assert abs(got - 0.75) < 1e-12

    def test_perfect_ranking(self):
        assert auc(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 0, 1, 1.0])) == 1.0

    def test_inverted_ranking(self):
        assert auc(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 1, 0, 0.0])) == 0.0

    def test_constant_scores_are_chance(self):
        got = auc(np.full(4, 0.7), np.array([0, 1, 0, 1.0]))
        assert abs(got - 0.5) < 1e-12

    def test_tie_worth_half(self):
        got = auc(np.array([0.5, 0.5, 0.9]), np.array([0, 1, 1.0]))
        assert abs(got - 0.75) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc(np.linspace(0, 1, 4), np.ones(4))
        with pytest.raises(MetricError):
            auc(np.linspace(0, 1, 4), np.zeros(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            auc(np.linspace(0, 1, 5), np.ones(4))

    def test_matches_pairwise_counting(self):
        rng = np.random.default_rng(80)
        for trial in range(50):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n).astype(np.float64)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, n) / 4.0
            assert abs(auc(scores, labels) - brute_auc(scores, labels)) < 1e-12, trial


    def test_bit_identical_to_tie_loop(self):
        rng = np.random.default_rng(81)
        for trial in range(40):
            n = int(rng.integers(2, 5000))
            labels = rng.integers(0, 2, n).astype(np.float64)
            labels[:2] = (0.0, 1.0)
            # from a handful of distinct scores to nearly all distinct
            scores = rng.integers(0, int(rng.integers(1, 2 * n)), n) / 7.0
            if trial % 4 == 0:
                scores = scores.astype(np.float32)
            assert auc(scores, labels).hex() == loop_auc(scores, labels).hex(), trial


class TestLogloss:
    def test_coin_flip(self):
        got = logloss(np.array([0.5, 0.5]), np.array([0, 1.0]))
        assert abs(got - math.log(2.0)) < 1e-15

    def test_hand_case(self):
        got = logloss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        want = -0.5 * (math.log(0.9) + math.log(0.8))
        assert abs(got - want) < 1e-12

    def test_confident_and_right_is_cheap(self):
        got = logloss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(-math.log(1.0 - 1e-15), abs=1e-18)

    def test_confident_and_wrong_is_clamped(self):
        got = logloss(np.array([0.0]), np.array([1.0]))
        assert got == pytest.approx(-math.log(1e-15))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            logloss(np.full(4, 0.5), np.ones(3))
