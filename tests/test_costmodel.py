"""Analytic communication formulas and the headline saving-ratio table."""

import json

import numpy as np
import pytest

from dessim.artifacts import rows_to_json, rows_to_tsv
from dessim.collectives import NetworkParams, simulate_allreduce_sent_bytes
from dessim.costmodel import (
    REFERENCE_UNIQ_FEATS,
    CommReportRow,
    CostInputs,
    allreduce_sent_bytes_formula,
    component_payloads,
    expected_forward_bytes,
    model_payload_sizes,
    q_des,
    q_mesh,
    ring_time,
    saving_ratio,
    strategy_times,
)
from dessim.errors import MetricError
from dessim.models import ModelGraph

# Published per-batch saving ratios for the reference workload, as absolute
# ratios keyed by batch size. S_k = 8 bytes, 4-byte values, d = 8, N = 4.
PUBLISHED_R_LR = {
    512: 0.99769, 1024: 0.99735, 2048: 0.99696, 4096: 0.99654, 8192: 0.99607,
}
PUBLISHED_R_FM = {
    512: 0.99376, 1024: 0.99285, 2048: 0.99179, 4096: 0.99066, 8192: 0.98939,
}


def reference_inputs(batch_size):
    return CostInputs(
        n_workers=4, batch_size=batch_size,
        uniq_feats=REFERENCE_UNIQ_FEATS[batch_size],
    )


class TestVolumes:
    def test_mesh_exchange_vanishes_on_one_worker(self):
        c = CostInputs(n_workers=1, batch_size=512, uniq_feats=1000)
        assert q_mesh("lr", c) == 0.0
        assert q_des("lr", c) == 0.0

    def test_mesh_hand_case_lr(self):
        # (3/4) * uniq * (8 key + 4 value) bytes
        c = CostInputs(n_workers=4, batch_size=512, uniq_feats=1000)
        assert q_mesh("lr", c) == 0.75 * 1000 * 12

    def test_mesh_hand_case_fm(self):
        c = CostInputs(n_workers=2, batch_size=64, uniq_feats=10, dim=8)
        assert q_mesh("fm", c) == 0.5 * 10 * (8 + 4 * 8)

    def test_mesh_dnn_includes_first_fc(self):
        c = CostInputs(n_workers=2, batch_size=64, uniq_feats=10,
                       dim=4, first_fc_width=8, n_fields=3)
        want = 0.5 * (10 * 8 + 10 * 4 * 4 + 3 * 4 * 8 * 4)
        assert q_mesh("dnn", c) == want

    def test_des_hand_case_lr(self):
        # 2 * (3/4) * 4 bytes * batch, unique count irrelevant
        c1 = CostInputs(n_workers=4, batch_size=512, uniq_feats=10)
        c2 = CostInputs(n_workers=4, batch_size=512, uniq_feats=10**6)
        assert q_des("lr", c1) == 2 * 0.75 * 4 * 512 == 3072.0
        assert q_des("lr", c1) == q_des("lr", c2)

    def test_des_payloads(self):
        c = CostInputs(n_workers=4, batch_size=100, uniq_feats=1, dim=8,
                       first_fc_width=16)
        assert component_payloads("lr", c) == (("linear.partial", 400),)
        assert component_payloads("fm", c) == (("fm2.m1", 3200), ("fm2.m2", 400))
        assert component_payloads("dnn", c) == (("tower.first_fc", 6400),)

    def test_unknown_component_rejected(self):
        c = CostInputs(n_workers=2, batch_size=8, uniq_feats=1)
        with pytest.raises(ValueError):
            q_mesh("rnn", c)

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            CostInputs(n_workers=0, batch_size=8, uniq_feats=1)
        with pytest.raises(ValueError):
            CostInputs(n_workers=2, batch_size=8, uniq_feats=-1)


class TestSavingRatios:
    def test_linear_component_matches_published_table(self):
        for bs, want in PUBLISHED_R_LR.items():
            got = saving_ratio("lr", reference_inputs(bs))
            assert abs(got - want) <= 0.001, (bs, got)

    def test_pairwise_component_matches_published_table(self):
        for bs, want in PUBLISHED_R_FM.items():
            got = saving_ratio("fm", reference_inputs(bs))
            assert abs(got - want) <= 0.001, (bs, got)

    def test_deep_component_ratio_decreases_with_batch_size(self):
        ratios = [saving_ratio("dnn", reference_inputs(bs))
                  for bs in sorted(REFERENCE_UNIQ_FEATS)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(0.0 < r < 1.0 for r in ratios)

    def test_zero_mesh_volume_is_an_error(self):
        c = CostInputs(n_workers=4, batch_size=8, uniq_feats=0)
        with pytest.raises(MetricError):
            saving_ratio("lr", c)


class TestClosedFormAgainstSimulation:
    def test_formula_matches_transport_simulation(self):
        for n in range(1, 10):
            for nbytes in list(range(0, 65)) + [1 << 10, (1 << 20) + 3, 999_999]:
                assert allreduce_sent_bytes_formula(nbytes, n) == \
                    simulate_allreduce_sent_bytes(nbytes, n), (nbytes, n)

    def test_expected_forward_bytes_composes_payloads(self):
        graph = ModelGraph(kind="deepfm", n_fields=5, embedding_dim=4,
                           first_fc_width=8)
        sizes = dict(model_payload_sizes(graph, 16))
        assert set(sizes) == {"linear.partial", "fm2.m1", "fm2.m2", "tower.first_fc"}
        got = expected_forward_bytes(graph, 16, 3)
        want = [0, 0, 0]
        for s in sizes.values():
            for r, b in enumerate(allreduce_sent_bytes_formula(s, 3)):
                want[r] += b
        assert got == want

    def test_cross_ops_listed_per_level(self):
        graph = ModelGraph(kind="dcn-demo", n_fields=3, cross_depth=3)
        names = [name for name, _ in model_payload_sizes(graph, 8)]
        assert names == ["tower.first_fc", "cross.0", "cross.1", "cross.2"]


class TestStrategyTimes:
    PARAMS = NetworkParams(alpha=0.001, bandwidth=1e9)

    def test_key_set(self):
        times = strategy_times(self.PARAMS, "fm",
                               CostInputs(n_workers=4, batch_size=64, uniq_feats=50))
        assert set(times) == {"T_sync_ps", "T_async_ps", "T_sync_mesh",
                              "T_async_mesh", "T_ring", "T_des"}

    def test_worked_example(self):
        # alpha 0, unit bandwidth, one 1-byte key and no value state:
        # one synchronous server round trip per worker gives 2 * N * 1 = 8
        params = NetworkParams(alpha=0.0, bandwidth=1.0)
        c = CostInputs(n_workers=4, batch_size=1, uniq_feats=1,
                       key_bytes=1, value_bytes=0)
        times = strategy_times(params, "lr", c)
        assert times["T_sync_ps"] == 8.0
        assert times["T_async_ps"] == 2.0

    def test_async_is_sync_over_n(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            params = NetworkParams(alpha=float(rng.uniform(0, 0.01)),
                                   bandwidth=float(rng.uniform(1e6, 1e10)))
            c = CostInputs(
                n_workers=int(rng.integers(1, 9)),
                batch_size=int(rng.integers(1, 4096)),
                uniq_feats=int(rng.integers(1, 10**6)),
            )
            for kind in ("lr", "fm", "dnn"):
                t = strategy_times(params, kind, c)
                assert t["T_async_ps"] == t["T_sync_ps"] / c.n_workers
                assert t["T_async_mesh"] == t["T_sync_mesh"] / c.n_workers

    def test_des_sums_ring_times_over_component_payloads(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            params = NetworkParams(alpha=float(rng.uniform(0, 1e-3)),
                                   bandwidth=float(rng.uniform(1e6, 1e10)))
            c = CostInputs(
                n_workers=int(rng.integers(1, 17)),
                batch_size=int(rng.integers(1, 10000)),
                uniq_feats=int(rng.integers(0, 2_000_000)),
                dim=int(rng.integers(1, 65)),
                first_fc_width=int(rng.integers(1, 513)),
                n_fields=int(rng.integers(1, 100)),
            )
            for kind in ("lr", "fm", "dnn"):
                t = strategy_times(params, kind, c)
                want = sum(ring_time(params, c.n_workers, s)
                           for _, s in component_payloads(kind, c))
                assert t["T_des"] == want, (kind, c)

    def test_single_worker_ring_time_is_zero(self):
        c = CostInputs(n_workers=1, batch_size=64, uniq_feats=100)
        for kind in ("lr", "fm", "dnn"):
            t = strategy_times(self.PARAMS, kind, c)
            assert t["T_ring"] == 0.0, kind
            assert t["T_des"] == 0.0, kind

    def test_substitution_time_sums_ring_times(self):
        c = CostInputs(n_workers=4, batch_size=64, uniq_feats=100)
        t = strategy_times(self.PARAMS, "fm", c)
        want = sum(ring_time(self.PARAMS, 4, s)
                   for _, s in component_payloads("fm", c))
        assert t["T_des"] == want
        # the ring baseline all-reduces one d-vector gradient per unique feature
        assert t["T_ring"] == ring_time(self.PARAMS, 4, c.uniq_feats * c.value_bytes * c.dim)


class TestReportSerialization:
    ROW = CommReportRow(model="lr", batch_size=512, n_workers=4,
                        uniq_feats=147664, q_mesh=1329976.0, q_des=3072.0,
                        ratio=0.9976902711, measured_bytes=3072, deviation=0.0)

    def test_tsv_shape(self):
        text = rows_to_tsv(CommReportRow, [self.ROW])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split("\t")
        cells = lines[1].split("\t")
        assert header[0] == "model" and header[-1] == "deviation"
        assert cells[0] == "lr"
        assert cells[header.index("measured_bytes")] == "3072"
        # floats at full precision: the cell parses back to the row's value
        assert float(cells[header.index("ratio")]) == self.ROW.ratio

    def test_json_round_trip(self):
        doc = json.loads(rows_to_json([self.ROW]))
        assert doc["version"] == 1
        assert doc["rows"][0]["uniq_feats"] == 147664
        assert doc["rows"][0]["q_des"] == 3072.0
