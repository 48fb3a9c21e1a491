"""Training loop, run configs, artifacts, and the communication benchmark."""

import json
import os
import zipfile

import numpy as np
import pytest

from dessim.artifacts import rows_to_tsv
from dessim.collectives import PHASE_BACKWARD, PHASE_EVAL, PHASE_FORWARD, PHASE_OPTIMIZER
from dessim.costmodel import (
    CostInputs,
    expected_forward_bytes,
    model_payload_sizes,
    q_des,
    saving_ratio,
)
from dessim.data import SyntheticSpec, gen_synthetic
from dessim.errors import MetricError
from dessim.metrics import auc, logloss
from dessim.models import MODEL_KINDS, ModelGraph, SparseBatch
from dessim.optim import OptimizerConfig
from dessim.training import (
    MetricsSnapshot,
    EVAL_PASS_SAMPLES,
    RunConfig,
    bench_comm,
    eval_passes,
    evaluate,
    load_batches,
    train,
)


def tiny_config(**overrides):
    base = dict(
        graph=ModelGraph(kind="lr", n_fields=4, seed=2),
        n_workers=2, batch_size=64, epochs=2, seed=5,
        synthetic=SyntheticSpec(n_fields=4, vocab_per_field=50,
                                min_active_fields=4, max_active_fields=4),
        train_samples=256, test_samples=128,
    )
    base.update(overrides)
    return RunConfig(**base)


PINNED_CONFIG_JSON = """\
{
  "version": 1,
  "graph": {
    "version": 1,
    "kind": "wdl",
    "n_fields": 4,
    "embedding_dim": 8,
    "first_fc_width": 16,
    "hidden_widths": [
      8,
      4
    ],
    "cross_depth": 2,
    "seed": 2,
    "first_order_opt": {
      "kind": "ftrl",
      "lr": 0.01,
      "ftrl_alpha": 0.05,
      "ftrl_beta": 1.0,
      "l1": 0.0001,
      "l2": 0.0001,
      "beta1": 0.9,
      "beta2": 0.999,
      "eps": 1e-08
    },
    "embedding_opt": {
      "kind": "adam",
      "lr": 0.001,
      "ftrl_alpha": 0.05,
      "ftrl_beta": 1.0,
      "l1": 0.0001,
      "l2": 0.0001,
      "beta1": 0.9,
      "beta2": 0.999,
      "eps": 1e-08
    },
    "dense_opt": {
      "kind": "adagrad",
      "lr": 0.5,
      "ftrl_alpha": 0.05,
      "ftrl_beta": 1.0,
      "l1": 0.0001,
      "l2": 0.0001,
      "beta1": 0.9,
      "beta2": 0.999,
      "eps": 1e-08
    }
  },
  "n_workers": 2,
  "batch_size": 64,
  "epochs": 2,
  "seed": 5,
  "data": "synthetic",
  "synthetic": {
    "n_fields": 4,
    "vocab_per_field": 50,
    "min_active_fields": 4,
    "max_active_fields": 4,
    "truth_seed": 7,
    "noise_rate": 0.1,
    "positive_rate": 0.5,
    "margin_scale": 2.0
  },
  "train_samples": 256,
  "test_samples": 128,
  "out_dir": "runs/pinned"
}
"""


class TestRunConfig:
    def test_json_text_is_pinned(self):
        # key order, the version keys and the JSON layout are the config.json format
        cfg = tiny_config(
            graph=ModelGraph(kind="wdl", n_fields=4, hidden_widths=(8, 4), seed=2,
                             dense_opt=OptimizerConfig("adagrad", lr=0.5)),
            out_dir="runs/pinned",
        )
        assert cfg.to_json() == PINNED_CONFIG_JSON
        assert RunConfig.from_json(PINNED_CONFIG_JSON) == cfg

    def test_json_round_trip(self):
        cfg = tiny_config(out_dir="/tmp/somewhere")
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_version_check(self):
        doc = json.loads(tiny_config().to_json())
        doc["version"] = 99
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(tiny_config().to_json())
        doc["n_worker"] = 3
        with pytest.raises(ValueError, match="n_worker"):
            RunConfig.from_json(json.dumps(doc))

    def test_missing_graph_rejected(self):
        doc = json.loads(tiny_config().to_json())
        del doc["graph"]
        with pytest.raises(ValueError, match="graph"):
            RunConfig.from_json(json.dumps(doc))

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(n_workers=0)
        with pytest.raises(ValueError):
            tiny_config(epochs=-1)

    @pytest.mark.parametrize("split", ["train_samples", "test_samples"])
    def test_negative_sample_count_rejected(self, split):
        with pytest.raises(ValueError, match=f"{split}=-5"):
            tiny_config(**{split: -5})


class TestTrainLoop:
    def test_empty_training_split_fails_before_training(self):
        with pytest.raises(ValueError, match=r"training split is empty \(train_samples=0\)"):
            train(tiny_config(train_samples=0))
        assert train(tiny_config(train_samples=0, epochs=0)).snapshots == []

    def test_criteo_file_without_training_line(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty.tsv has no training lines"):
            train(tiny_config(data=str(path)))

    def test_zero_epochs_take_no_snapshots(self):
        result = train(tiny_config(epochs=0))
        assert result.snapshots == []
        assert result.group.ledger.total_bytes() == 0

    def test_snapshot_counters(self):
        result = train(tiny_config(epochs=2))
        assert [s.step for s in result.snapshots] == [4, 8]
        assert result.snapshots[-1].fwd_bytes > 0
        assert result.snapshots[-1].bwd_bytes == 0
        # evaluation also moves forward bytes, so the counter keeps growing
        assert result.snapshots[1].fwd_bytes > result.snapshots[0].fwd_bytes

    def test_identical_configs_reproduce_metrics(self):
        a = train(tiny_config())
        b = train(tiny_config())
        assert [s.deterministic_fields() for s in a.snapshots] == \
            [s.deterministic_fields() for s in b.snapshots]

    def test_test_stream_uses_offset_seed(self):
        cfg = tiny_config()
        test_batches = load_batches(cfg, "test")
        want = list(gen_synthetic(cfg.synthetic, cfg.test_samples,
                                  cfg.batch_size, cfg.seed + 1))
        assert len(test_batches) == len(want)
        for got, exp in zip(test_batches, want):
            assert np.array_equal(got.keys, exp.keys)
            assert np.array_equal(got.labels, exp.labels)

    def test_evaluate_concatenates_batches(self):
        # every kind at N = 1 and 3, over several passes, the last batch smaller
        for kind in MODEL_KINDS:
            for n_workers in (1, 3):
                result, batches = held_out_run(kind, n_workers)
                engine = result.engine
                got_auc, got_ll = evaluate(engine, batches)
                alone = [engine.forward(b, phase=PHASE_EVAL).probs for b in batches]
                probs = np.concatenate(alone)
                labels = np.concatenate([b.labels for b in batches])
                assert got_auc.hex() == auc(probs, labels).hex(), (kind, n_workers)
                assert got_ll.hex() == logloss(probs, labels).hex(), (kind, n_workers)
                first = engine.forward(SparseBatch.concat(batches[:8]), phase=PHASE_EVAL)
                assert first.probs.tobytes() == np.concatenate(alone[:8]).tobytes()

    def test_evaluate_rejects_an_empty_held_out_list(self):
        result = train(tiny_config(epochs=1))
        records = result.group.ledger.records()
        with pytest.raises(ValueError, match="held-out batch list is empty"):
            evaluate(result.engine, [])
        assert result.group.ledger.records() == records


def held_out_run(kind, n_workers):
    """A trained engine and its held-out list: 2,600 samples in batches of 250.

    They make more than one pass, the last batch 100 samples. Alone, each
    batch is a block of rows that is not a multiple of
    ``vecmath.ROW_GROUP``, so its products have a row tail.
    """
    graph = ModelGraph(kind=kind, n_fields=4, seed=2)
    result = train(tiny_config(graph=graph, n_workers=n_workers, batch_size=250,
                               epochs=1, test_samples=2600))
    batches = load_batches(result.config, "test")
    assert [b.batch_size for b in batches] == [250] * 10 + [100]
    assert len(list(eval_passes(batches))) > 1
    return result, batches


class TestEvalPasses:
    """Held-out batches are forwarded in passes of whole batches."""

    def test_batches_group_up_to_the_budget(self):
        sizes = [EVAL_PASS_SAMPLES // 2, EVAL_PASS_SAMPLES // 2, 1,
                 EVAL_PASS_SAMPLES + 1, 3, EVAL_PASS_SAMPLES - 3, 1]
        batches = [SparseBatch.from_samples([0.0] * n, [[]] * n) for n in sizes]
        groups = [[b.batch_size for b in group] for group in eval_passes(batches)]
        assert groups == [sizes[:2], sizes[2:3], sizes[3:4], sizes[4:6], sizes[6:]]
        assert list(eval_passes([])) == []

    @pytest.mark.parametrize("n_workers", [1, 3, 4])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_eval_bytes_are_conserved(self, kind, n_workers):
        # a ring all-reduce sends 2(N - 1) times its payload over all ranks,
        # so joining batches into passes cannot change the eval phase's total
        result, batches = held_out_run(kind, n_workers)
        graph, led = result.config.graph, result.group.ledger

        def closed_form(split):
            return sum(sum(expected_forward_bytes(graph, b.batch_size, n_workers)) for b in split)

        trained, held_out = closed_form(load_batches(result.config, "train")), closed_form(batches)
        ops = len(model_payload_sizes(graph, 1))
        passes = len(list(eval_passes(batches)))
        for evals in (1, 2):
            if evals == 2:
                evaluate(result.engine, batches)
            assert led.total_bytes(phase=PHASE_EVAL) == evals * held_out
            assert len(led.ops_in_order(phase=PHASE_EVAL)) == evals * passes * ops
            rows = [r for r in led.records() if r["phase"] == PHASE_EVAL]
            assert len(rows) == evals * passes * ops * n_workers
            assert led.total_bytes(phase=PHASE_FORWARD) == trained
            assert led.total_bytes(phase=PHASE_BACKWARD) == 0


class TestEvalPhase:
    def test_eval_traffic_stays_out_of_training_forward(self):
        # one training step per epoch, then one held-out batch per evaluation
        cfg = tiny_config(epochs=2, train_samples=64, test_samples=64)
        result = train(cfg)
        led = result.group.ledger
        step_bytes = sum(expected_forward_bytes(cfg.graph, 64, 2))
        assert step_bytes == 512
        for epoch in (0, 1):
            assert len(led.ops_in_order(phase=PHASE_FORWARD, epoch=epoch)) == (
                len(model_payload_sizes(cfg.graph, 1)))
        assert [s.fwd_bytes for s in result.snapshots] == [step_bytes, 2 * step_bytes]
        assert [s.bwd_bytes for s in result.snapshots] == [0, 0]
        assert led.total_bytes(phase=PHASE_EVAL) == 2 * step_bytes
        assert led.total_bytes(phase=PHASE_BACKWARD) == 0
        assert led.total_bytes(phase=PHASE_OPTIMIZER) == 0


class TestArtifacts:
    def test_out_dir_contents(self, tmp_path):
        out = tmp_path / "run"
        result = train(tiny_config(epochs=1, out_dir=str(out)))
        assert result.checkpoint_path == str(out / "checkpoint.npz")
        assert os.path.isfile(result.checkpoint_path)
        assert sorted(os.listdir(out)) == ["checkpoint.npz", "config.json",
                                           "metrics.json", "metrics.tsv"]
        back = RunConfig.from_json((out / "config.json").read_text())
        assert back == result.config
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["version"] == 1
        assert len(doc["rows"]) == 1

    @pytest.mark.parametrize("name", ["metrics.tsv", "metrics.json", "config.json",
                                      "checkpoint/dense-out_w.npy",
                                      "checkpoint/fc-block-0001.npy"])
    def test_failed_rename_leaves_previous_file(self, tmp_path, monkeypatch, name):
        # "checkpoint/<member>" names a member of checkpoint.npz, the file renamed.
        out = tmp_path / "run"
        stem, _, member = name.partition("/")
        path = out / (stem + ".npz" if member else stem)
        graph = ModelGraph(kind="wdl", n_fields=4, embedding_dim=2, first_fc_width=4, seed=2)
        train(tiny_config(graph=graph, epochs=1, out_dir=str(out)))
        before = path.read_bytes()
        if member:
            with zipfile.ZipFile(path) as zf:
                before_member = zf.read(member)
        real_replace = os.replace

        def refuse(src, dst):
            if str(dst) == str(path):
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            train(tiny_config(graph=graph, epochs=2, seed=6, out_dir=str(out)))
        assert path.read_bytes() == before
        if member:
            with zipfile.ZipFile(path) as zf:
                assert zf.read(member) == before_member
        left = [p.name for p in out.rglob("*") if p.name.endswith(".tmp")]
        assert left == []

    def test_metrics_tsv_format(self):
        snap = MetricsSnapshot(step=3, auc=0.75, logloss=0.5, fwd_bytes=1024,
                               bwd_bytes=0, wall_ms=12.5)
        text = rows_to_tsv(MetricsSnapshot, [snap])
        lines = text.strip().split("\n")
        assert lines[0] == "step\tauc\tlogloss\tfwd_bytes\tbwd_bytes\twall_ms"
        cells = lines[1].split("\t")
        assert cells[0] == "3"
        assert cells[1] == "0.75"
        assert cells[3] == "1024"


class TestBenchComm:
    def test_measurement_matches_closed_form(self):
        rows = [(8, 100), (16, 500)]
        reports = bench_comm(n_workers=4, rows=rows, n_fields=6)
        assert len(reports) == 6
        assert [r.model for r in reports] == ["lr", "lr", "fm", "fm", "dnn", "dnn"]
        for r in reports:
            c = CostInputs(n_workers=4, batch_size=r.batch_size,
                           uniq_feats=r.uniq_feats, n_fields=6)
            assert r.measured_bytes == r.q_des == q_des(r.model, c)
            assert r.deviation == 0.0
            assert r.ratio == saving_ratio(r.model, c)

    @pytest.mark.parametrize("n_workers", [3, 5, 7])
    def test_uneven_ring_chunks_match_closed_form(self, n_workers):
        # payloads N does not divide: the ranks send different byte counts,
        # and their mean over ranks is what q_des predicts
        reports = bench_comm(n_workers=n_workers, rows=[(8, 100)], n_fields=6)
        for r in reports:
            c = CostInputs(n_workers=n_workers, batch_size=8, uniq_feats=100, n_fields=6)
            assert r.measured_bytes == r.q_des == q_des(r.model, c), r
            assert r.deviation == 0.0

    def test_single_worker_ratio_is_undefined(self):
        # nothing is exchanged at N=1, so the saving ratio has no denominator
        with pytest.raises(MetricError):
            bench_comm(n_workers=1, rows=[(8, 100)], n_fields=4)
