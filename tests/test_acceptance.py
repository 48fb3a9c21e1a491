"""End-to-end acceptance suite.

Ten checks, one per headline guarantee of the engine, at their stated
tolerances. Run with -v for one pass/fail line per criterion. The learning
and equivalence checks have wall-clock budgets asserted in-line.
"""

import filecmp
import time

import numpy as np

from dessim.collectives import (
    PHASE_BACKWARD,
    PHASE_OPTIMIZER,
    NetworkParams,
    WorkerGroup,
)
from dessim.costmodel import (
    REFERENCE_UNIQ_FEATS,
    CostInputs,
    component_payloads,
    ring_time,
    saving_ratio,
    strategy_times,
)
from dessim.data import SyntheticSpec, gen_synthetic
from dessim.models import MODEL_KINDS, ModelGraph, SparseBatch, SubstitutedModel
from dessim.training import RunConfig, bench_comm, train
from dessim.verification import (
    run_equivalence,
    run_gradient_checks,
    run_second_order_identity,
)

N_GRID = (1, 2, 4, 8)

# headline saving ratios for the reference workload at N=4, d=8,
# 8-byte keys and 4-byte values, as absolute ratios by batch size
R_LINEAR = {512: 0.99769, 1024: 0.99735, 2048: 0.99696, 4096: 0.99654,
            8192: 0.99607}
R_PAIRWISE = {512: 0.99376, 1024: 0.99285, 2048: 0.99179, 4096: 0.99066,
              8192: 0.98939}


def _ok(name):
    print(f"{name}: PASS")


def test_01_forward_equivalence_across_worker_counts():
    # every model kind, 100 random instances, N in {1,2,4,8}; relative
    # error at most 1e-5 against the wide oracle, bitwise at N=1
    t0 = time.perf_counter()
    report = run_equivalence(kinds=MODEL_KINDS, n_grid=N_GRID, trials=100,
                             rel_tol=1e-5, seed=0)
    elapsed = time.perf_counter() - t0
    assert report.passed, report.failures[:5]
    assert report.cases >= 5 * 100 * len(N_GRID)
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    _ok("forward equivalence across worker counts")


def test_02_pairwise_interaction_identity():
    # brute-force sum over pairs vs the substituted square-of-sums form,
    # float64, 1000 instances, tolerance 1e-10
    report = run_second_order_identity(trials=1000, tol=1e-10, seed=0)
    assert report.passed, report.failures[:5]
    assert report.cases == 1000
    _ok("pairwise interaction identity")


def test_03_analytic_gradients_match_finite_differences():
    # central differences of the float64 oracle loss, h = 1e-6*max(1,|w|),
    # relative error at most 1e-4, at least 50 instances per model kind
    report = run_gradient_checks(instances=50, seed=0)
    assert report.passed, report.failures[:5]
    assert report.cases >= 5 * 50
    _ok("analytic gradients match finite differences")


def test_04_backward_phase_moves_zero_bytes():
    rng = np.random.default_rng(7)
    for kind in MODEL_KINDS:
        for n in N_GRID:
            graph = ModelGraph(kind=kind, n_fields=5, embedding_dim=4,
                               first_fc_width=8, seed=11)
            engine = SubstitutedModel(graph, WorkerGroup(n))
            samples = [
                [(f, int(rng.integers(0, 40)), float(rng.uniform(-1, 1)))
                 for f in range(5)]
                for _ in range(8)
            ]
            batch = SparseBatch.from_samples(rng.integers(0, 2, 8).astype(float),
                                             samples)
            engine.train_step(batch)
            led = engine.group.ledger
            assert led.total_bytes(phase=PHASE_BACKWARD) == 0, (kind, n)
            assert led.total_bytes(phase=PHASE_OPTIMIZER) == 0, (kind, n)
    _ok("backward phase moves zero bytes")


def test_05_saving_ratios_match_reference_table():
    for table, kind in ((R_LINEAR, "lr"), (R_PAIRWISE, "fm")):
        for bs, want in table.items():
            c = CostInputs(n_workers=4, batch_size=bs,
                           uniq_feats=REFERENCE_UNIQ_FEATS[bs])
            got = saving_ratio(kind, c)
            assert abs(got - want) <= 0.001, (kind, bs, got, want)
    dnn = [saving_ratio("dnn", CostInputs(n_workers=4, batch_size=bs,
                                          uniq_feats=REFERENCE_UNIQ_FEATS[bs]))
           for bs in sorted(REFERENCE_UNIQ_FEATS)]
    assert all(a > b for a, b in zip(dnn, dnn[1:]))
    _ok("saving ratios match reference table")


def test_06_measured_bytes_equal_closed_form_exactly():
    rows = bench_comm()
    assert len(rows) == 3 * len(REFERENCE_UNIQ_FEATS)
    for row in rows:
        assert row.measured_bytes == row.q_des, row
        assert row.deviation == 0.0, row
    _ok("measured bytes equal closed form exactly")


def _learning_config(kind, n_workers, seed=0):
    return RunConfig(
        graph=ModelGraph(kind=kind, n_fields=10, seed=0),
        n_workers=n_workers, batch_size=512, epochs=5, seed=seed,
        synthetic=SyntheticSpec(),
        train_samples=50_000, test_samples=5_000,
    )


def test_07_learns_noisy_synthetic_clicks():
    t0 = time.perf_counter()
    lr_1 = train(_learning_config("lr", 1)).snapshots[-1].auc
    lr_4 = train(_learning_config("lr", 4)).snapshots[-1].auc
    deep_1 = train(_learning_config("deepfm", 1)).snapshots[-1].auc
    elapsed = time.perf_counter() - t0
    assert lr_1 >= 0.75, lr_1
    assert deep_1 >= lr_1 - 0.01, (deep_1, lr_1)
    assert abs(lr_4 - lr_1) <= 0.002, (lr_4, lr_1)
    assert elapsed < 300.0, f"learning checks took {elapsed:.1f}s"
    _ok("learns noisy synthetic clicks")


def test_08_identical_seeds_reproduce_runs(tmp_path):
    def run(out):
        cfg = RunConfig(
            graph=ModelGraph(kind="deepfm", n_fields=6, embedding_dim=4,
                             first_fc_width=8, seed=3),
            n_workers=2, batch_size=64, epochs=2, seed=9,
            synthetic=SyntheticSpec(n_fields=6, vocab_per_field=100,
                                    min_active_fields=6, max_active_fields=6),
            train_samples=512, test_samples=256, out_dir=str(out),
        )
        return train(cfg)

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert [s.deterministic_fields() for s in a.snapshots] == \
        [s.deterministic_fields() for s in b.snapshots]
    assert filecmp.cmp(a.checkpoint_path, b.checkpoint_path, shallow=False)
    _ok("identical seeds reproduce runs")


def test_09_replicas_stay_bitwise_identical():
    graph = ModelGraph(kind="deepfm", n_fields=10, seed=5)
    engine = SubstitutedModel(graph, WorkerGroup(4))
    spec = SyntheticSpec()
    steps = 0
    for batch in gen_synthetic(spec, 3200, 32, seed=13):
        engine.train_step(batch)
        steps += 1
    assert steps == 100
    engine.check_replicas()
    for r in range(1, 4):
        for name, ref in engine.ranks[0].dense.items():
            assert np.array_equal(ref, engine.ranks[r].dense[name]), (r, name)
    _ok("replicas stay bitwise identical")


def test_10_time_formula_identities():
    params = NetworkParams(alpha=2e-4, bandwidth=5e8)
    assert ring_time(params, 1, 123456) == 0.0
    c = CostInputs(n_workers=8, batch_size=1024, uniq_feats=300_000)
    times = strategy_times(params, "dnn", c)
    assert times["T_des"] == sum(ring_time(params, 8, s)
                                 for _, s in component_payloads("dnn", c))
    assert times["T_async_ps"] == times["T_sync_ps"] / 8
    assert times["T_async_mesh"] == times["T_sync_mesh"] / 8
    _ok("time formula identities")
