"""Reference model checks.

The two oracle routes are deliberately different programs: forward_exact
reuses the engine kernels on unsharded weights, forward_wide recomputes
every sample in float64 with brute-force pairwise interactions. The tests
here pin each route against hand values and against the engine.
"""

import math

import numpy as np
import pytest

from dessim.baselines import MonolithicModel
from dessim.collectives import WorkerGroup
from dessim.metrics import logloss
from dessim.models import ModelGraph, SparseBatch, SubstitutedModel

ALL_KINDS = ("lr", "fm", "wdl", "deepfm", "dcn-demo")


def make_batch(rng, n_fields, batch_size=6, vocab=15):
    samples = []
    for _ in range(batch_size):
        feats = [
            (f, int(rng.integers(0, vocab)), float(rng.uniform(-1, 1.5)))
            for f in range(n_fields)
            for _ in range(int(rng.integers(0, 3)))
        ]
        samples.append(feats)
    labels = rng.integers(0, 2, batch_size).astype(np.float64)
    return SparseBatch.from_samples(labels, samples)


def warmed_engine(kind, n_workers, seed, rng, n_fields=4):
    graph = ModelGraph(kind=kind, n_fields=n_fields, embedding_dim=3,
                       first_fc_width=6, hidden_widths=(5,), seed=seed)
    engine = SubstitutedModel(graph, WorkerGroup(n_workers))
    engine.train_step(make_batch(rng, n_fields))
    return engine


class TestExactRoute:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_worker_forward_is_bitwise_identical(self, kind):
        rng = np.random.default_rng(50)
        engine = warmed_engine(kind, 1, 5, rng)
        batch = make_batch(rng, 4)
        fwd = engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        assert np.array_equal(fwd.probs, oracle.forward_exact(batch))

    def test_lr_zero_weights_give_half(self):
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=3), WorkerGroup(1))
        batch = SparseBatch.from_samples([1.0], [[(0, 2, 1.0), (1, 9, -0.5)]])
        engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        assert np.all(oracle.forward_exact(batch) == 0.5)
        assert np.all(oracle.forward_wide(batch) == 0.5)


class TestWideRoute:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tracks_engine_within_float32_headroom(self, kind):
        rng = np.random.default_rng(51)
        for n_workers in (1, 2, 4):
            engine = warmed_engine(kind, n_workers, 13, rng)
            batch = make_batch(rng, 4)
            fwd = engine.forward(batch)
            wide = MonolithicModel.from_engine(engine).forward_wide(batch)
            rel = np.abs(wide - fwd.probs) / np.maximum(np.abs(wide), 1e-300)
            assert np.max(rel) <= 1e-5, (kind, n_workers)

    def test_fm_single_feature_has_no_pairwise_term(self):
        # one active feature: FM logit must collapse to bias + linear part
        rng = np.random.default_rng(52)
        engine = warmed_engine("fm", 1, 21, rng, n_fields=2)
        batch = SparseBatch.from_samples([1.0], [[(0, 3, 0.7)]])
        engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        w = float(oracle.maps["linear"][(0, 3)][0])
        bias = float(oracle.dense["bias"][0])
        z = bias + w * 0.7
        prob = oracle.forward_wide(batch)[0]
        assert abs(prob - 1.0 / (1.0 + math.exp(-z))) < 1e-12

    def test_wide_route_is_float64(self):
        rng = np.random.default_rng(53)
        engine = warmed_engine("deepfm", 2, 3, rng)
        batch = make_batch(rng, 4)
        engine.forward(batch)
        probs = MonolithicModel.from_engine(engine).forward_wide(batch)
        assert probs.dtype == np.float64


class TestLossAndParameters:
    def test_loss_wide_matches_metric(self):
        rng = np.random.default_rng(54)
        engine = warmed_engine("fm", 2, 9, rng)
        batch = make_batch(rng, 4)
        engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        want = logloss(oracle.forward_wide(batch), batch.labels)
        assert abs(oracle.loss_wide(batch) - want) < 1e-12

    def test_parameter_labels_cover_every_block(self):
        rng = np.random.default_rng(55)
        engine = warmed_engine("deepfm", 2, 17, rng)
        labels = [label for label, _ in
                  MonolithicModel.from_engine(engine).perturbable_parameters()]
        assert any(l.startswith("linear[") for l in labels)
        assert any(l.startswith("latent[") for l in labels)
        assert "first_fc" in labels
        assert "dense.out.w" in labels
        assert "dense.bias" in labels

    def test_parameters_are_live_storage(self):
        rng = np.random.default_rng(56)
        engine = warmed_engine("wdl", 2, 23, rng)
        batch = make_batch(rng, 4)
        engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        before = oracle.forward_wide(batch).copy()
        for label, arr in oracle.perturbable_parameters():
            if label == "first_fc":
                arr[0, 0] += 0.25
        after = oracle.forward_wide(batch)
        assert not np.array_equal(before, after)

    def test_snapshot_does_not_alias_engine(self):
        rng = np.random.default_rng(57)
        engine = warmed_engine("deepfm", 2, 29, rng)
        batch = make_batch(rng, 4)
        engine.forward(batch)
        oracle = MonolithicModel.from_engine(engine)
        before = oracle.forward_exact(batch).copy()
        engine.train_step(batch)
        engine.train_step(batch)
        assert np.array_equal(oracle.forward_exact(batch), before)
