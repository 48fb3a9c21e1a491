"""Engine behavior: batch plumbing, partial operators, sharded training steps.

Numeric agreement between the sharded engine and the reference models is
exercised exhaustively by the verification suite; these tests pin down the
unit-level contracts and the failure modes.
"""

import ctypes
import os
import subprocess
import sys
import types
import zipfile
from collections import Counter

import numpy as np
import pytest

from dessim import models, sparse, training
from dessim.collectives import PHASE_BACKWARD, PHASE_EVAL, PHASE_FORWARD, WorkerGroup
from dessim.costmodel import model_payload_sizes
from dessim.data import SyntheticSpec, gen_synthetic
from dessim.errors import ConsistencyError, DimensionError, ProtocolError
from dessim.models import (
    MODEL_KINDS,
    ModelGraph,
    SparseBatch,
    SubstitutedModel,
    build_dense_params,
    cross_combine,
    cross_partial,
    linear_partial,
    second_order_combine,
    second_order_partials,
)


class TestSparseBatch:
    def test_concat_shifts_sample_ids(self):
        a = SparseBatch.from_samples([1.0, 0.0], [[(0, 10, 1.0)], [(1, 20, 0.5), (2, 30, 2.0)]])
        b = SparseBatch.from_samples([0.0], [[(1, 40, 3.0)]])
        joined = SparseBatch.concat([a, b])
        assert joined.labels.tolist() == [1.0, 0.0, 0.0]
        assert joined.sample_ids.tolist() == [0, 1, 1, 2]
        assert joined.fields.tolist() == [0, 1, 2, 1]
        assert joined.keys.tolist() == [10, 20, 30, 40]
        assert joined.values.tolist() == [1.0, 0.5, 2.0, 3.0]
        assert SparseBatch.concat([a]) is a

    def test_from_samples_round_trip(self):
        batch = SparseBatch.from_samples(
            [1.0, 0.0],
            [[(0, 10, 1.0), (1, 20, 0.5)], [(2, 30, 2.0)]],
        )
        assert batch.batch_size == 2
        assert batch.sample_ids.tolist() == [0, 0, 1]
        assert batch.fields.tolist() == [0, 1, 2]
        assert batch.keys.tolist() == [10, 20, 30]
        assert batch.values.tolist() == [1.0, 0.5, 2.0]

    def test_empty_feature_list_is_legal(self):
        batch = SparseBatch.from_samples([1.0], [[]])
        assert batch.batch_size == 1
        assert len(batch.fields) == 0

    def test_variable_length_samples(self):
        batch = SparseBatch.from_samples(
            [0.0, 1.0], [[(0, 1, 1.0)], [(0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)]]
        )
        assert np.sum(batch.sample_ids == 0) == 1
        assert np.sum(batch.sample_ids == 1) == 3

    def test_needs_a_sample(self):
        with pytest.raises(DimensionError):
            SparseBatch(
                labels=np.array([]), sample_ids=np.array([]),
                fields=np.array([]), keys=np.array([]), values=np.array([]),
            )

    def test_sample_id_out_of_range(self):
        with pytest.raises(DimensionError):
            SparseBatch(
                labels=np.array([1.0]), sample_ids=np.array([1]),
                fields=np.array([0]), keys=np.array([0]), values=np.array([1.0]),
            )

    @pytest.mark.parametrize("column, bad, text", [
        ("sample_ids", np.array([0.7, 1.2]), "sample_ids must be an integer array, got float64"),
        ("fields", np.array([0.9, 1.5]), "fields must be an integer array, got float64"),
        ("fields", np.array([True, False]), "fields must be an integer array, got bool"),
        ("keys", np.array([1e30, 2.0]), "keys must be an integer array, got float64"),
        ("keys", np.array([5, -1]), "keys must be nonnegative, got -1"),
        ("keys", np.array([[1], [2]], dtype=np.uint64), r"keys must be 1-D, got shape \(2, 1\)"),
        ("values", np.ones((2, 1)), r"values must be 1-D, got shape \(2, 1\)"),
    ])
    def test_bad_column_fails_at_construction(self, column, bad, text):
        columns = dict(labels=np.array([1.0, 0.0]), sample_ids=np.array([0, 1]),
                       fields=np.array([0, 1]), keys=np.array([3, 4], dtype=np.uint64),
                       values=np.ones(2, dtype=np.float32))
        with pytest.raises(DimensionError, match=text):
            SparseBatch(**{**columns, column: bad})

    @pytest.mark.parametrize("n_labels, n_samples", [(3, 2), (1, 2)])
    def test_from_samples_needs_one_label_per_sample(self, n_labels, n_samples):
        with pytest.raises(DimensionError, match=f"{n_labels} labels for {n_samples} samples"):
            SparseBatch.from_samples([1.0] * n_labels, [[(0, 1, 1.0)]] * n_samples)

    def test_feature_arrays_must_align(self):
        with pytest.raises(DimensionError):
            SparseBatch(
                labels=np.array([1.0]), sample_ids=np.array([0, 0]),
                fields=np.array([0]), keys=np.array([0]), values=np.array([1.0]),
            )

    def test_shard_slice_routes_by_field(self):
        batch = SparseBatch.from_samples(
            [1.0], [[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]]
        )
        sl = batch.shard_slices(2)[1]
        assert sl.fields.tolist() == [1, 3]
        assert sl.keys.tolist() == [2, 4]
        assert sl.batch_size == 1

    def test_shard_slices_partition_batch(self):
        rng = np.random.default_rng(31)
        samples = [
            [(int(rng.integers(0, 7)), int(rng.integers(0, 50)), 1.0)
             for _ in range(int(rng.integers(0, 5)))]
            for _ in range(16)
        ]
        batch = SparseBatch.from_samples(np.ones(16), samples)
        slices = batch.shard_slices(3)
        assert len(slices) == 3
        for r, sl in enumerate(slices):
            # each rank's occurrences, in batch order: the field mask's selection
            mask = batch.fields % 3 == r
            for name in ("sample_ids", "fields", "keys", "values"):
                want = getattr(batch, name)[mask]
                got = getattr(sl, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (r, name)
            assert sl.batch_size == 16


class TestModelGraph:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelGraph(kind="gbm", n_fields=3)

    def test_component_flags(self):
        flags = {
            "lr": (True, False, False, False, False),
            "fm": (True, True, False, False, False),
            "wdl": (True, False, True, True, False),
            "deepfm": (True, True, True, True, False),
            "dcn-demo": (False, False, True, False, True),
        }
        for kind, want in flags.items():
            g = ModelGraph(kind=kind, n_fields=3)
            got = (g.uses_linear, g.uses_second_order, g.uses_tower,
                   g.uses_mlp, g.uses_cross)
            assert got == want, kind

    def test_aggregations_per_forward(self):
        def count(**kw):
            return len(model_payload_sizes(ModelGraph(n_fields=3, **kw), 1))
        assert count(kind="lr") == 1
        assert count(kind="fm") == 3
        assert count(kind="wdl") == 2
        assert count(kind="deepfm") == 4
        assert count(kind="dcn-demo", cross_depth=3) == 4

    def test_config_round_trip(self):
        g = ModelGraph(kind="deepfm", n_fields=7, embedding_dim=4,
                       first_fc_width=8, hidden_widths=(8, 4), seed=99)
        assert ModelGraph.from_config(g.to_config()) == g

    def test_config_version_checked(self):
        doc = ModelGraph(kind="lr", n_fields=2).to_config()
        doc["version"] = 999
        with pytest.raises(ValueError):
            ModelGraph.from_config(doc)

    def test_config_unknown_key_rejected(self):
        doc = ModelGraph(kind="lr", n_fields=2).to_config()
        doc["embed_dim"] = 4
        with pytest.raises(ValueError, match="embed_dim"):
            ModelGraph.from_config(doc)

    def test_config_missing_kind_rejected(self):
        doc = ModelGraph(kind="lr", n_fields=2).to_config()
        del doc["kind"]
        with pytest.raises(ValueError, match="kind"):
            ModelGraph.from_config(doc)


class TestPartialOperators:
    def test_linear_partial_hand_case(self):
        w = np.array([[2.0], [3.0], [4.0]], dtype=np.float32)
        values = np.array([1.0, 0.5, 2.0], dtype=np.float32)
        sample_ids = np.array([0, 0, 1])
        out = linear_partial(w, values, sample_ids, 2)
        assert np.allclose(out, [3.5, 8.0])

    def test_linear_partial_empty_shard(self):
        out = linear_partial(np.zeros((0, 1), np.float32), np.zeros(0, np.float32),
                             np.zeros(0, np.int64), 3)
        assert np.array_equal(out, np.zeros(3, np.float32))

    def test_second_order_single_feature_interacts_with_nothing(self):
        latents = np.array([[0.5, -1.0, 2.0]])
        values = np.array([1.5])
        m1, m2 = second_order_partials(latents, values, np.array([0]), 1)
        assert np.array_equal(second_order_combine(m1, m2), np.zeros(1))

    def test_second_order_two_features_hand_case(self):
        # interaction = <v0*x0, v1*x1>
        latents = np.array([[1.0, 2.0], [3.0, -1.0]])
        values = np.array([1.0, 0.5])
        m1, m2 = second_order_partials(latents, values, np.array([0, 0]), 1)
        out = second_order_combine(m1, m2)
        want = np.dot(latents[0] * 1.0, latents[1] * 0.5)
        assert np.allclose(out, [want])

    def test_second_order_partials_split_like_a_sum(self):
        rng = np.random.default_rng(32)
        latents = rng.uniform(-1, 1, (6, 3))
        values = rng.uniform(-1, 1, 6)
        ids = np.zeros(6, dtype=np.int64)
        m1_all, m2_all = second_order_partials(latents, values, ids, 1)
        m1_a, m2_a = second_order_partials(latents[:2], values[:2], ids[:2], 1)
        m1_b, m2_b = second_order_partials(latents[2:], values[2:], ids[:4], 1)
        assert np.allclose(m1_all, m1_a + m1_b)
        assert np.allclose(m2_all, m2_a + m2_b)

    def test_cross_partial_ranges_cover_dot(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, (4, 6))
        w = rng.uniform(-1, 1, 6)
        parts = cross_partial(x, w, 0, 3) + cross_partial(x, w, 3, 6)
        assert np.allclose(parts, x @ w)

    def test_cross_combine_hand_case(self):
        x0 = np.array([[1.0, 2.0]])
        x = np.array([[0.5, -0.5]])
        s = np.array([3.0])
        b = np.array([0.1, 0.2])
        out = cross_combine(x0, s, b, x)
        assert np.allclose(out, [[1 * 3 + 0.1 + 0.5, 2 * 3 + 0.2 - 0.5]])


def table_records(table):
    """Each record array of the table by name, as its dtype, shape and bytes."""
    return {name: (recs.dtype, recs.shape, recs.tobytes())
            for name, recs in table.records().items()}


def tiny_batch(rng, n_fields, batch_size=6, vocab=12):
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


class TestEngineForward:
    def test_lr_at_init_predicts_half(self):
        # zero linear weights and zero bias
        rng = np.random.default_rng(34)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=4), WorkerGroup(2))
        fwd = engine.forward(tiny_batch(rng, 4))
        assert np.all(fwd.probs == 0.5)

    def test_forward_handles_featureless_sample(self):
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=2), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0, 0.0], [[(0, 1, 1.0)], []])
        fwd = engine.forward(batch)
        assert fwd.probs.shape == (2,)
        assert np.all(np.isfinite(fwd.probs))

    def test_more_workers_than_fields(self):
        rng = np.random.default_rng(35)
        graph = ModelGraph(kind="deepfm", n_fields=2, embedding_dim=3,
                           first_fc_width=4, seed=1)
        batch = tiny_batch(rng, 2)
        probs_by_n = []
        for n in (1, 4):
            engine = SubstitutedModel(graph, WorkerGroup(n))
            probs_by_n.append(engine.forward(batch).probs)
        assert np.allclose(probs_by_n[0], probs_by_n[1], rtol=1e-5, atol=1e-7)

    def test_forward_charges_forward_phase_only(self):
        rng = np.random.default_rng(36)
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=3), WorkerGroup(2))
        engine.forward(tiny_batch(rng, 3))
        led = engine.group.ledger
        assert led.total_bytes(phase=PHASE_FORWARD) > 0
        assert led.total_bytes(phase=PHASE_BACKWARD) == 0

    def test_aggregation_ops_match_graph(self):
        rng = np.random.default_rng(37)
        for kind in ("lr", "fm", "wdl", "deepfm", "dcn-demo"):
            graph = ModelGraph(kind=kind, n_fields=3, cross_depth=2)
            engine = SubstitutedModel(graph, WorkerGroup(2))
            engine.forward(tiny_batch(rng, 3))
            count = len(engine.group.ledger.ops_in_order(phase=PHASE_FORWARD))
            assert count == len(model_payload_sizes(graph, 1)), kind


class TestBatchValidation:
    """Bad input fails at engine entry with a typed error naming the sample."""

    @pytest.mark.parametrize("kind", ["lr", "deepfm"])
    def test_field_past_last_rejected(self, kind):
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=3), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0, 0.0], [[(0, 1, 1.0)], [(2, 4, 1.0), (3, 5, 1.0)]])
        with pytest.raises(DimensionError, match=r"sample 1 has field 3 outside \[0, 3\)"):
            engine.forward(batch)

    def test_negative_field_rejected(self):
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=3), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0, 0.0, 1.0], [[], [], [(-1, 7, 1.0)]])
        with pytest.raises(DimensionError, match="sample 2 has field -1"):
            engine.forward(batch)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, bad):
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=2), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0, 0.0], [[(0, 1, 1.0)], [(1, 2, bad)]])
        with pytest.raises(ValueError, match="sample 1 has non-finite value") as err:
            engine.forward(batch)
        assert not isinstance(err.value, DimensionError)

    @pytest.mark.parametrize("label", [np.nan, 2.0, -1.0])
    def test_label_outside_zero_one_rejected(self, label):
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=2), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0, label], [[(0, 1, 1.0)], [(1, 2, 1.0)]])
        with pytest.raises(ValueError, match="sample 1 has label"):
            engine.train_step(batch)
        assert engine.table.n_entries() == 0
        assert engine.group.ledger.records() == []

    def test_rejected_batch_leaves_no_trace(self):
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=2), WorkerGroup(2))
        batch = SparseBatch.from_samples([1.0], [[(0, 1, 1.0), (1, 2, np.inf)]])
        with pytest.raises(ValueError):
            engine.forward(batch)
        assert engine.table.n_entries() == 0
        assert engine.group.ledger.total_bytes() == 0

    @pytest.mark.parametrize("sample_ids, match", [
        ([0, 0, 1, 2], "sample ids out of range"),
        ([0, -1, 1, 1], "sample ids out of range"),
        ([0, 0, 1], "feature arrays must share one length"),
    ])
    @pytest.mark.parametrize("entry", ["forward", "train_step", "evaluate", "evaluate-pass"])
    def test_sample_ids_changed_after_construction_rejected(self, sample_ids, match, entry):
        # the ranks' slices are cut from the checked batch and not checked
        # again, so the engine's own check must catch what the batch's did;
        # in an eval pass, a sample id past its batch would fall inside the
        # next batch's rows once the batches are joined
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=3), WorkerGroup(2))
        batch = SparseBatch.from_samples(
            [1.0, 0.0], [[(0, 1, 1.0), (1, 2, 1.0)], [(2, 3, 1.0), (1, 4, 0.5)]])
        batch.sample_ids = np.array(sample_ids)
        call = {"forward": engine.forward, "train_step": engine.train_step,
                "evaluate": lambda b: training.evaluate(engine, [b]),
                "evaluate-pass": lambda b: training.evaluate(
                    engine, [self.good_batch(), b, self.good_batch()])}[entry]
        with pytest.raises(DimensionError, match=match):
            call(batch)
        assert engine.table.n_entries() == 0
        assert engine.group.ledger.records() == []

    @staticmethod
    def good_batch():
        return SparseBatch.from_samples([1.0, 0.0], [[(0, 5, 1.0)], [(1, 6, 1.0), (2, 7, 2.0)]])

    @pytest.mark.parametrize("bad, error, text", [
        ("sample id", DimensionError, "sample ids out of range"),
        ("column length", DimensionError, "feature arrays must share one length"),
        ("label", ValueError, "sample 1 has label 2.0, not 0 or 1"),
        ("field", DimensionError, "sample 1 has field 3 outside [0, 3)"),
        ("nan", ValueError, "sample 1 has non-finite value nan in field 2"),
    ])
    def test_bad_batch_in_an_eval_pass_fails_as_it_does_alone(self, bad, error, text):
        # the bad batch is second of three in one pass; each batch is checked
        # before the pass is joined, so the error names the sample in its own
        # batch and nothing of the pass is forwarded
        labels, value, field = [1.0, 0.0], 1.0, 2
        if bad == "label":
            labels = [1.0, 2.0]
        elif bad == "nan":
            value = np.nan
        elif bad == "field":
            field = 3
        batch = SparseBatch.from_samples(labels, [[(0, 1, 1.0)], [(1, 2, 1.0), (field, 3, value)]])
        if bad == "sample id":
            batch.sample_ids = np.array([0, 1, 2])
        elif bad == "column length":
            batch.sample_ids = np.array([0, 1])
        for batches in ([batch], [self.good_batch(), batch, self.good_batch()]):
            engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
            with pytest.raises(ValueError) as err:
                training.evaluate(engine, batches)
            assert (type(err.value), str(err.value)) == (error, text)
            assert engine.table.n_entries() == 0
            assert engine.group.ledger.records() == []


class TestEngineBackwardAndUpdate:
    def test_backward_moves_no_bytes(self):
        rng = np.random.default_rng(38)
        for kind in ("lr", "fm", "wdl", "deepfm", "dcn-demo"):
            engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=4), WorkerGroup(4))
            batch = tiny_batch(rng, 4)
            fwd = engine.forward(batch)
            grads = engine.backward(fwd)
            engine.apply_gradients(grads)
            led = engine.group.ledger
            assert led.total_bytes(phase=PHASE_BACKWARD) == 0, kind
            assert led.total_bytes(phase="optimizer") == 0, kind

    def test_stale_forward_rejected(self):
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=3), WorkerGroup(2))
        fwd = engine.forward(tiny_batch(rng, 3))
        engine.group.advance_epoch()
        with pytest.raises(ProtocolError, match="epoch"):
            engine.backward(fwd)

    @pytest.mark.parametrize("made_by,applied_to", [(2, 3), (3, 2), (2, 2)])
    def test_pass_from_another_engine_rejected(self, made_by, applied_to):
        rng = np.random.default_rng(39)
        graph = ModelGraph(kind="deepfm", n_fields=3)
        other = SubstitutedModel(graph, WorkerGroup(made_by))
        engine = SubstitutedModel(graph, WorkerGroup(applied_to))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        fwd = other.forward(batch)
        with pytest.raises(ProtocolError, match=f"forward pass of {made_by} ranks"):
            engine.backward(fwd)
        grads = other.backward(fwd)
        entries = engine.table.n_entries()
        saved = [rank.dense["out.w"].copy() for rank in engine.ranks]
        with pytest.raises(ProtocolError, match=f"forward pass of {made_by} ranks"):
            engine.apply_gradients(grads)
        assert engine.table.n_entries() == entries
        for rank, out_w in zip(engine.ranks, saved):
            assert np.array_equal(rank.dense["out.w"], out_w)
        engine.train_step(batch)

    @staticmethod
    def engine_state(engine):
        """The table's records, every replica and every fc block."""
        table = table_records(engine.table)
        replicas = [{k: v.tobytes() for k, v in rank.dense.items()} for rank in engine.ranks]
        return table, replicas, [rank.fc_block.tobytes() for rank in engine.ranks]

    def test_gradient_list_applied_once(self):
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        grads = engine.backward(engine.forward(tiny_batch(rng, 3)))
        engine.apply_gradients(grads)
        before = self.engine_state(engine)
        with pytest.raises(ProtocolError, match="epoch"):
            engine.apply_gradients(grads)
        assert self.engine_state(engine) == before

    def test_pass_backpropagated_once(self):
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        fwd = engine.forward(batch)
        passes = engine.backward(fwd).ranks
        grads = [[g.tobytes() for g in rp.grads.values()] for rp in passes]
        before = self.engine_state(engine)
        with pytest.raises(ProtocolError, match="backpropagated before"):
            engine.backward(fwd)
        assert self.engine_state(engine) == before
        assert [[g.tobytes() for g in rp.grads.values()] for rp in passes] == grads
        engine.apply_gradients(fwd)

    def test_pass_never_backpropagated_rejected(self):
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        fwd = engine.forward(batch)
        before = self.engine_state(engine)
        with pytest.raises(ProtocolError, match="never backpropagated"):
            engine.apply_gradients(fwd)
        assert self.engine_state(engine) == before
        engine.apply_gradients(engine.backward(fwd))

    def assert_stale(self, engine, fresh, backpropagated):
        """Neither pass, both made in an epoch that has ended, can be finished,
        and neither rejection writes anything."""
        before = self.engine_state(engine), engine.group.epoch
        stale = f"forward pass of epoch {fresh.epoch} is stale"
        with pytest.raises(ProtocolError, match=stale):
            engine.backward(fresh)
        with pytest.raises(ProtocolError, match=stale):
            engine.apply_gradients(fresh)
        with pytest.raises(ProtocolError, match=stale):
            engine.apply_gradients(backpropagated)
        assert (self.engine_state(engine), engine.group.epoch) == before

    def test_second_forward_of_an_epoch_rejected(self):
        # applying the first pass would otherwise leave the second stepping from
        # row weights the first apply replaced, overwriting that update
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        first, second = engine.forward(batch), engine.forward(batch)
        third = engine.backward(engine.forward(batch))
        engine.apply_gradients(engine.backward(first))
        self.assert_stale(engine, second, third)
        engine.train_step(batch)

    def test_eval_pass_made_before_a_step_rejected(self):
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        held_out = engine.forward(batch, phase=PHASE_EVAL)
        backpropagated = engine.backward(engine.forward(batch))
        engine.train_step(batch)
        self.assert_stale(engine, held_out, backpropagated)
        engine.train_step(batch)

    def test_eval_pass_not_backpropagated(self):
        # applying it would train on the held-out batch, charging nothing to
        # the training forward phase
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        fwd = engine.forward(batch, phase=PHASE_EVAL)
        assert fwd.phase == PHASE_EVAL
        before = table_records(engine.table), engine.group.ledger.records(), engine.group.epoch
        with pytest.raises(ProtocolError, match="phase 'eval' is not backpropagated"):
            engine.apply_gradients(engine.backward(fwd))
        assert all(rp.grads is None for rp in fwd.ranks)
        after = table_records(engine.table), engine.group.ledger.records(), engine.group.epoch
        assert after == before
        engine.train_step(batch)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_eval_pass_keeps_no_backward_state(self, kind):
        # backward reads these; an eval pass is never backpropagated, and a
        # held-out pass of many batches would otherwise hold them all at once
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        backward_state = ("rows", "weights", "latents", "agg_m1", "pooled", "cache")
        trained = engine.forward(batch)
        held_out = engine.forward(batch, phase=PHASE_EVAL)
        assert held_out.logit.tobytes() == trained.logit.tobytes()
        for rp, kept in zip(held_out.ranks, trained.ranks):
            assert [getattr(rp, name) for name in backward_state] == [None] * 6
            assert rp.slice_ is not None and rp.pairs is not None
            assert kept.rows is not None and kept.weights is not None
            assert (kept.cache is not None) == engine.graph.uses_tower

    @pytest.mark.parametrize("phase", [PHASE_BACKWARD, "optimizer", "train"])
    def test_forward_in_another_phase_rejected(self, phase):
        # its all-reduces would be charged to that phase
        rng = np.random.default_rng(39)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        before = table_records(engine.table), engine.group.ledger.records(), engine.group.phase
        with pytest.raises(ValueError, match=f"'forward' or 'eval', got {phase!r}"):
            engine.forward(batch, phase=phase)
        after = table_records(engine.table), engine.group.ledger.records(), engine.group.phase
        assert after == before
        engine.train_step(batch)

    def test_training_moves_weights(self):
        rng = np.random.default_rng(40)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=3), WorkerGroup(2))
        batch = tiny_batch(rng, 3)
        engine.train_step(batch)
        p1 = engine.forward(batch).probs
        assert not np.all(p1 == 0.5)

    def test_train_step_advances_epoch(self):
        rng = np.random.default_rng(41)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=3), WorkerGroup(2))
        assert engine.group.epoch == 0
        engine.train_step(tiny_batch(rng, 3))
        assert engine.group.epoch == 1

    def test_replica_divergence_detected(self):
        rng = np.random.default_rng(42)
        engine = SubstitutedModel(ModelGraph(kind="wdl", n_fields=3), WorkerGroup(2))
        engine.train_step(tiny_batch(rng, 3))
        engine.ranks[1].dense["out.w"][0, 0] += 1.0
        with pytest.raises(ConsistencyError, match="out.w"):
            engine.check_replicas()

    def test_replicas_holding_the_same_nan_agree(self):
        rng = np.random.default_rng(42)
        engine = SubstitutedModel(ModelGraph(kind="wdl", n_fields=3), WorkerGroup(2))
        engine.train_step(tiny_batch(rng, 3))
        for rank in engine.ranks:
            rank.dense["out.b"][0] = np.nan
        engine.check_replicas()
        engine.ranks[1].dense["out.b"][0] = 0.0
        with pytest.raises(ConsistencyError, match="out.b on worker 1"):
            engine.check_replicas()

    def test_update_touches_only_active_entries(self):
        rng = np.random.default_rng(43)
        engine = SubstitutedModel(ModelGraph(kind="lr", n_fields=2), WorkerGroup(1))
        warm = SparseBatch.from_samples([1.0], [[(0, 1, 1.0), (1, 2, 1.0)]])
        engine.train_step(warm)
        snapshot = engine.table.weight_map("linear")
        # second step activates only field 0; field 1 entries must not move
        engine.train_step(SparseBatch.from_samples([0.0], [[(0, 1, 1.0)]]))
        after = engine.table.weight_map("linear")
        assert np.array_equal(snapshot[(1, 2)], after[(1, 2)])
        assert not np.array_equal(snapshot[(0, 1)], after[(0, 1)])


@pytest.mark.parametrize("kind", ["wdl", "deepfm", "dcn-demo"])
class TestReplicaDivergence:
    """A replica changed behind the engine's back shows up in the next logit."""

    def diverged_engine(self, kind):
        rng = np.random.default_rng(46)
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=4), WorkerGroup(3))
        batch = tiny_batch(rng, 4)
        engine.train_step(batch)
        engine.ranks[2].dense["out.b"][0] += 1.0
        return engine, batch

    def test_train_step_names_the_worker(self, kind):
        engine, batch = self.diverged_engine(kind)
        with pytest.raises(ConsistencyError, match="logit on worker 2 diverged"):
            engine.train_step(batch)
        assert engine.group.epoch == 1

    def test_eval_forward_names_the_worker(self, kind):
        engine, batch = self.diverged_engine(kind)
        with pytest.raises(ConsistencyError, match="logit on worker 2 diverged"):
            engine.forward(batch, phase=PHASE_EVAL)


class TestPairsResolvedOnce:
    @pytest.mark.parametrize("kind", ["fm", "wdl", "deepfm"])
    def test_step_dedups_and_searches_once_per_rank(self, monkeypatch, kind):
        # one table lookup per rank resolves the rank's pairs in its shard's
        # index and indexes the new ones; every part of the new rows is
        # stored with them, and the optimizer reads and writes by those rows
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=4), WorkerGroup(2))
        indexes = [shard.index for shard in engine.table._shards]
        rng = np.random.default_rng(45)
        dedups, table_dedups, unsorted_finds = [], [], []
        finds, adds = Counter(), Counter()
        real_dedup, real_find, real_add = (
            models.unique_with_inverse, sparse._RowIndex.find, sparse._RowIndex.add)

        def dedup(fields, keys):
            dedups.append(len(fields))
            return real_dedup(fields, keys)

        def table_dedup(fields, keys):
            table_dedups.append(len(fields))
            return real_dedup(fields, keys)

        def find(index, h, fields):
            finds[indexes.index(index)] += 1
            if np.any(h[1:] < h[:-1]):
                unsorted_finds.append(len(h))
            return real_find(index, h, fields)

        def add(index, h, fields):
            adds[indexes.index(index)] += 1
            return real_add(index, h, fields)

        monkeypatch.setattr(models, "unique_with_inverse", dedup)
        monkeypatch.setattr(sparse, "unique_with_inverse", table_dedup)
        monkeypatch.setattr(sparse._RowIndex, "find", find)
        monkeypatch.setattr(sparse._RowIndex, "add", add)
        for step in range(3):
            dedups.clear()
            finds.clear()
            adds.clear()
            engine.train_step(tiny_batch(rng, 4))
            assert len(dedups) == 2
            assert finds == {0: 1, 1: 1}
            assert all(count <= 1 for count in adds.values())
            if step == 0:
                assert adds == {0: 1, 1: 1}
        # the pairs arrive deduplicated and ascending in the index's hash order,
        # so the table never sorts them again and searches with sorted needles
        assert table_dedups == []
        assert unsorted_finds == []
        assert engine.table.n_entries() == sum(index.n_rows for index in indexes)
        for part in engine.table.parts:
            assert len(engine.table.weight_map(part)) == engine.table.n_entries()


class TestDenseConstruction:
    def test_deterministic_in_seed(self):
        graph = ModelGraph(kind="deepfm", n_fields=3, seed=8)
        p1, fc1 = build_dense_params(graph, np.float32)
        p2, fc2 = build_dense_params(graph, np.float32)
        assert np.array_equal(fc1, fc2)
        for name in p1:
            assert np.array_equal(p1[name], p2[name])

    @pytest.mark.parametrize("n_workers", [3, 7])
    def test_fc_blocks_reassemble_to_full_matrix(self, n_workers):
        # at N=7, ranks 5 and 6 own no field and hold a (0, h) block
        graph = ModelGraph(kind="wdl", n_fields=5, embedding_dim=2,
                           first_fc_width=4, seed=6)
        _, full_fc = build_dense_params(graph, np.float32)
        engine = SubstitutedModel(graph, WorkerGroup(n_workers))
        d = graph.embedding_dim
        rebuilt = np.zeros_like(full_fc)
        for rank in engine.ranks:
            owned = [f for f in range(graph.n_fields) if f % n_workers == rank.r]
            assert list(rank.fields) == owned
            assert rank.fc_block.shape == (len(owned) * d, graph.first_fc_width)
            for i, f in enumerate(owned):
                rebuilt[f * d : (f + 1) * d] = rank.fc_block[i * d : (i + 1) * d]
        assert np.array_equal(rebuilt, full_fc)
        blocks = [rank.fc_block for rank in engine.ranks]
        assert np.array_equal(models.join_fc_blocks(blocks, graph.n_fields, d), full_fc)

    def test_checkpoint_file_set(self, tmp_path):
        rng = np.random.default_rng(44)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=3), WorkerGroup(2))
        engine.train_step(tiny_batch(rng, 3))
        path = tmp_path / "checkpoint.npz"
        engine.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as arrays:
            names = sorted(arrays.files)
        assert "linear-shard-0000" in names
        assert "latent-shard-0001" in names
        assert "fc-block-0000" in names
        assert "dense-out_w" in names

    @staticmethod
    def members(path):
        """Each array of a checkpoint file by name, as its dtype, shape and bytes."""
        with np.load(path, allow_pickle=False) as arrays:
            return {name: (arrays[name].dtype, arrays[name].shape, arrays[name].tobytes())
                    for name in arrays.files}

    def test_a_later_save_replaces_the_whole_file(self, tmp_path):
        rng = np.random.default_rng(45)
        batch = tiny_batch(rng, 5)
        (tmp_path / "notes.txt").write_text("kept")
        older = tmp_path / "checkpoint" / "linear-shard-0000.npy"
        older.parent.mkdir()
        np.save(older, np.arange(3))
        kept = older.read_bytes()
        path = tmp_path / "checkpoint.npz"
        for n_workers in (4, 2):
            engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=5), WorkerGroup(n_workers))
            engine.train_step(batch)
            engine.save_checkpoint(path)
        engine.save_checkpoint(tmp_path / "alone.npz")
        members = self.members(path)
        assert members == self.members(tmp_path / "alone.npz")
        assert "fc-block-0001" in members and "fc-block-0002" not in members
        assert "linear-shard-0001" in members and "linear-shard-0002" not in members
        assert (tmp_path / "notes.txt").read_text() == "kept"
        assert older.read_bytes() == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alone.npz", "checkpoint", "checkpoint.npz", "notes.txt"]

    @pytest.mark.parametrize("failure", ["write_array", "replace"])
    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch, failure):
        rng = np.random.default_rng(45)
        batch = tiny_batch(rng, 5)
        engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=5), WorkerGroup(2))
        engine.train_step(batch)
        path = tmp_path / "checkpoint.npz"
        engine.save_checkpoint(path)
        before = path.read_bytes()
        engine.train_step(batch)
        if failure == "replace":
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
            match = "rename refused"
        else:
            write_array = np.lib.format.write_array
            calls = []

            def third_fails(*args, **kwargs):
                calls.append(None)
                if len(calls) == 3:
                    raise OSError("disk full")
                return write_array(*args, **kwargs)

            monkeypatch.setattr(np.lib.format, "write_array", third_fails)
            match = "disk full"
        with pytest.raises(OSError, match=match):
            engine.save_checkpoint(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    @pytest.mark.parametrize("kind", ["lr", "fm", "wdl", "deepfm", "dcn-demo"])
    def test_checkpoint_files_are_plain_npy(self, tmp_path, kind):
        rng = np.random.default_rng(46)
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=5), WorkerGroup(3))
        engine.train_step(tiny_batch(rng, 5))
        path = tmp_path / "checkpoint.npz"
        engine.save_checkpoint(path)
        with zipfile.ZipFile(path) as archive:
            assert all(name.endswith(".npy") for name in archive.namelist())
        with np.load(path, allow_pickle=False) as npz:
            arrays = dict(npz)
        for part in engine.table.parts.values():
            record = np.dtype(
                [("field", "<u4"), ("key", "<u8"), ("w", "<f4", (part.dim,))]
                + [(f"s_{name}", "<f4", (width,))
                   for name, width in sorted(part.slot_widths.items())])
            want = sorted(engine.table.weight_map(part.name))
            for idx in range(3):
                recs = arrays[f"{part.name}-shard-{idx:04d}"]
                assert recs.dtype == record and recs.ndim == 1
                pairs = list(zip(recs["field"].tolist(), recs["key"].tolist()))
                assert pairs == [fk for fk in want if fk[0] % 3 == idx]

    @pytest.mark.parametrize("kind", ["lr", "fm", "wdl", "deepfm", "dcn-demo"])
    def test_table_checkpoint_loads_and_saves_the_same_bytes(self, tmp_path, kind):
        rng = np.random.default_rng(47)
        engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=5), WorkerGroup(3))
        for _ in range(3):
            engine.train_step(tiny_batch(rng, 5))
        path = tmp_path / "checkpoint.npz"
        engine.save_checkpoint(path)
        table = engine.table
        with np.load(path, allow_pickle=False) as arrays:
            loaded = sparse.ShardedWeightTable.load(
                arrays, list(table.parts.values()), 3, seed=engine.graph.seed)
        assert loaded.n_entries() == table.n_entries() > 0
        records, saved = table_records(loaded), self.members(path)
        assert len(records) == 3 * len(table.parts)
        for name, recs in records.items():
            assert recs == saved[name], name


def trained_engine(kind, steps=3):
    rng = np.random.default_rng(48)
    engine = SubstitutedModel(ModelGraph(kind=kind, n_fields=4), WorkerGroup(3))
    for _ in range(steps):
        engine.train_step(tiny_batch(rng, 4))
    return engine


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
class TestOneDenseArray:
    """A rank's replica and fc block are views into one array with one optimizer state."""

    def test_one_dense_step_per_rank_per_train_step(self, kind, monkeypatch):
        engine = trained_engine(kind, steps=1)
        dense_step, calls = models.dense_step, []

        def counting(*args):
            calls.append(args)
            return dense_step(*args)

        monkeypatch.setattr(models, "dense_step", counting)
        engine.train_step(tiny_batch(np.random.default_rng(49), 4))
        assert len(calls) == len(engine.ranks)

    def test_tensors_are_views_of_the_rank_array(self, kind):
        engine = trained_engine(kind)
        params, full_fc = build_dense_params(engine.graph, np.float32)
        for rank in engine.ranks:
            assert list(rank.dense) == list(params)
            for arr in rank.dense.values():
                assert np.shares_memory(arr, rank.flat)
                assert np.shares_memory(arr, rank.replica)
            assert rank.replica.size == sum(arr.size for arr in params.values())
            assert rank.replica.tobytes() == b"".join(a.tobytes() for a in rank.dense.values())
            if full_fc is None:
                assert rank.fc_block is None
                assert rank.replica.size == rank.flat.size
            else:
                assert rank.replica.size + rank.fc_block.size == rank.flat.size
                if rank.fc_block.size:
                    assert np.shares_memory(rank.fc_block, rank.flat)
                    assert not np.shares_memory(rank.fc_block, rank.replica)

    def test_each_replica_tensor_is_named_when_it_diverges(self, kind):
        engine = trained_engine(kind)
        for name, arr in engine.ranks[2].dense.items():
            saved = arr.flat[-1]
            arr.flat[-1] += 1.0
            with pytest.raises(ConsistencyError,
                               match=f"replica of {name} on worker 2 diverged from worker 0"):
                engine.check_replicas()
            arr.flat[-1] = saved
            engine.check_replicas()


@pytest.mark.parametrize("kind", ["wdl", "deepfm", "dcn-demo"])
def test_fc_blocks_stay_out_of_the_replica_check(kind):
    engine = trained_engine(kind)
    engine.ranks[1].fc_block[0, 0] += 1.0
    engine.check_replicas()


def heap_fault_counts():
    """Minor page faults of a warm deepfm engine (N = 4, B = 512): the mean
    over 20 steps after one epoch, and one 2,048-sample eval pass after a
    first one."""
    import resource

    spec = SyntheticSpec(n_fields=10, vocab_per_field=1000)
    train_batches = list(gen_synthetic(spec, 20480, 512, 3))
    eval_batches = list(gen_synthetic(spec, 2048, 512, 4))
    engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=10), WorkerGroup(4))
    for batch in train_batches:
        engine.train_step(batch)

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    start = faults()
    for batch in train_batches[:20]:
        engine.train_step(batch)
    per_step = (faults() - start) / 20
    assert len(list(training.eval_passes(eval_batches))) == 1
    training.evaluate(engine, eval_batches)
    start = faults()
    training.evaluate(engine, eval_batches)
    return per_step, faults() - start


@pytest.fixture
def fresh_heap_call():
    """``keep_heap_mapped`` runs again at the next engine, before and after the test."""
    models.keep_heap_mapped.cache_clear()
    yield
    models.keep_heap_mapped.cache_clear()


class TestHeapKeptMapped:
    """The engine keeps the main heap's top mapped, so a step reuses the last one's pages."""

    @pytest.mark.skipif(os.name != "posix" or getattr(ctypes.CDLL(None), "mallopt", None) is None,
                        reason="the C library has no mallopt")
    def test_warm_steps_and_eval_passes_take_few_page_faults(self):
        # a fresh interpreter, so no earlier test has shaped the heap
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_models as t; "
                "print(*t.heap_fault_counts())")
        paths = [os.path.dirname(os.path.dirname(models.__file__)), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run([sys.executable, "-c", code, os.path.dirname(__file__)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        per_step, per_pass = map(float, done.stdout.split())
        assert per_step < 5
        assert per_pass < 100

    def test_mallopt_is_called_once_per_process(self, monkeypatch, fresh_heap_call):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
        monkeypatch.setattr(models.ctypes, "CDLL", lambda name: libc)
        for n_workers in (1, 2):
            SubstitutedModel(ModelGraph(kind="fm", n_fields=2), WorkerGroup(n_workers))
        assert calls == [(models.M_TOP_PAD, models.HEAP_TOP_PAD)]

    def test_a_c_library_without_mallopt_is_left_alone(self, monkeypatch, fresh_heap_call):
        monkeypatch.setattr(models.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        engine = SubstitutedModel(ModelGraph(kind="fm", n_fields=2), WorkerGroup(2))
        engine.train_step(tiny_batch(np.random.default_rng(50), 2))
