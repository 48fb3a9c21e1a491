"""The verification harness itself, including a mutation check.

A verifier that can never fail is worthless, so beyond running each check
family on healthy code, one test breaks a kernel on purpose and requires
the identity check to notice.
"""

import numpy as np
import pytest

import dessim.models as models
from dessim.verification import (
    FEATURE_POOL_LIMIT,
    CheckReport,
    equivalence_case,
    gradient_case,
    random_batch,
    random_graph,
    run_equivalence,
    run_gradient_checks,
    run_second_order_identity,
    run_verify,
)

ALL_KINDS = ("lr", "fm", "wdl", "deepfm", "dcn-demo")


class TestCheckReport:
    def test_pass_summary(self):
        r = CheckReport(name="demo", cases=7)
        assert r.passed
        assert r.summary() == "demo: PASS (7 cases)"

    def test_fail_summary(self):
        r = CheckReport(name="demo", cases=7)
        r.fail(3, "off by a lot")
        assert not r.passed
        assert r.summary() == "demo: FAIL (7 cases, 1 failures)"


class TestCaseGenerators:
    def test_graph_envelope(self):
        rng = np.random.default_rng(90)
        for kind in ALL_KINDS:
            for _ in range(20):
                g = random_graph(kind, rng)
                assert 1 <= g.n_fields <= 10
                assert 1 <= g.embedding_dim <= 8

    def test_batch_envelope(self):
        rng = np.random.default_rng(91)
        g = random_graph("deepfm", rng)
        for _ in range(20):
            batch = random_batch(g, rng)
            assert batch.batch_size == 8
            pool = set(zip(batch.fields.tolist(), batch.keys.tolist()))
            assert len(pool) <= FEATURE_POOL_LIMIT
            if batch.values.size:
                assert batch.values.min() >= -1.0
                assert batch.values.max() <= 1.5


class TestEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_healthy_engine_passes(self, kind):
        report = equivalence_case(kind, seed=17, n_grid=(1, 2, 4))
        assert report.passed, report.failures
        assert report.cases > 0

    def test_runner_aggregates_cases(self):
        report = run_equivalence(kinds=("lr",), n_grid=(1, 2), trials=3, seed=1)
        assert report.passed
        assert report.name == "equivalence"
        assert report.cases == 3 * 2


class TestSecondOrderIdentity:
    def test_healthy_kernels_pass(self):
        report = run_second_order_identity(trials=60, seed=4)
        assert report.passed
        assert report.cases == 60

    def test_broken_combiner_is_caught(self, monkeypatch):
        real = models.second_order_combine

        def flipped(agg_m1, agg_m2):
            return -real(agg_m1, agg_m2)

        monkeypatch.setattr(models, "second_order_combine", flipped)
        report = run_second_order_identity(trials=60, seed=4)
        assert not report.passed

    def test_broken_partials_are_caught(self, monkeypatch):
        real = models.second_order_partials

        def lossy(latents, values, sample_ids, batch_size):
            m1, m2 = real(latents, values, sample_ids, batch_size)
            # drop the self-interaction correction
            return m1, np.zeros_like(m2)

        monkeypatch.setattr(models, "second_order_partials", lossy)
        report = run_second_order_identity(trials=60, seed=4)
        assert not report.passed


class TestGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_healthy_engine_passes(self, kind):
        for n_workers in (1, 2):
            report = gradient_case(kind, seed=23, n_workers=n_workers)
            assert report.passed, (kind, n_workers, report.failures)
            assert report.cases > 0

    @pytest.mark.parametrize("kind", ["wdl", "deepfm"])
    def test_relu_kink_inside_the_stencil_is_not_a_failure(self, kind):
        # a relu input within the default step of zero: the central
        # difference straddles the kink, the smaller step does not
        report = gradient_case(kind, seed=7930)
        assert report.passed, report.failures

    @pytest.mark.parametrize("kind,parts,scale", [
        pytest.param("wdl", ("linear",), 1.01, id="wdl-linear"),
        pytest.param("deepfm", ("linear", "latent"), 1.001, id="deepfm-sparse-1.001"),
    ])
    def test_scaled_sparse_gradients_are_caught(self, kind, parts, scale, monkeypatch):
        real = models.Rank.backward

        def scaled(self, rp, delta):
            real(self, rp, delta)
            for part in parts:
                rp.grads[part] = rp.grads[part] * scale

        monkeypatch.setattr(models.Rank, "backward", scaled)
        report = gradient_case(kind, seed=23)
        assert not report.passed

    def test_runner_covers_all_kinds(self):
        report = run_gradient_checks(instances=2, seed=2)
        assert report.passed
        assert report.name == "gradients"


class TestFullSuite:
    def test_small_budget_run(self):
        reports, ok = run_verify(trials=2, identity_trials=25, grad_instances=2,
                                 n_grid=(1, 2), seed=6)
        assert ok
        assert [r.name for r in reports] == [
            "equivalence", "second-order-identity", "gradients",
        ]
        assert all(r.cases > 0 for r in reports)
