"""Randomized checks that the sharded engine computes what it claims.

Four check families, mirroring the things that can silently go wrong:

- equivalence: sharded forward vs the independent double-precision oracle
  at every worker count, plus bitwise identity against the unsharded
  same-kernel route at one worker, plus byte-exact ledger accounting and
  the zero-communication backward.
- second-order identity: the substituted linear-time form of the pairwise
  interaction term vs the brute-force double-precision pairwise sum.
- gradients: analytic backward vs central finite differences of the
  double-precision oracle loss.
- time formulas: structural identities of the strategy cost model.

Failures carry the instance seed so any case can be replayed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .baselines import MonolithicModel
from .collectives import (
    PHASE_BACKWARD,
    PHASE_FORWARD,
    PHASE_OPTIMIZER,
    NetworkParams,
    WorkerGroup,
)
from .costmodel import (
    CostInputs,
    allreduce_sent_bytes_formula,
    component_payload_sizes,
    expected_forward_bytes,
    model_payload_sizes,
    ring_time,
    strategy_times,
    substitution_time,
)
from .models import ModelGraph, SparseBatch, SubstitutedModel, join_fc_blocks
from .optim import OptimizerConfig

DEFAULT_N_GRID = (1, 2, 4, 8)
FEATURE_POOL_LIMIT = 100


@dataclass
class CheckReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def fail(self, seed, message):
        self.failures.append((seed, message))

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.cases} cases"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line + ")"


def random_graph(kind, rng):
    """A small random architecture within the equivalence-suite envelope."""
    n_fields = int(rng.integers(1, 11))
    return ModelGraph(
        kind=kind,
        n_fields=n_fields,
        embedding_dim=int(rng.integers(1, 9)),
        first_fc_width=int(rng.integers(2, 13)),
        hidden_widths=tuple(
            int(rng.integers(2, 11)) for _ in range(int(rng.integers(1, 3)))
        ),
        cross_depth=int(rng.integers(1, 4)),
        seed=int(rng.integers(0, 2**31)),
    )


def random_batch(graph, rng, batch_size=8):
    """Random batch over a bounded feature pool, duplicates included."""
    vocab = max(1, FEATURE_POOL_LIMIT // graph.n_fields)
    labels = rng.integers(0, 2, size=batch_size).astype(np.float64)
    samples = []
    for _ in range(batch_size):
        feats = []
        for f in range(graph.n_fields):
            for _ in range(int(rng.integers(0, 3))):
                feats.append(
                    (f, int(rng.integers(0, vocab)), float(rng.uniform(-1.0, 1.5)))
                )
        samples.append(feats)
    return SparseBatch.from_samples(labels, samples)


def _check_forward_ledger(report, seed, graph, group, batch_size, epoch, label):
    n = group.n_workers
    expected_ops = model_payload_sizes(graph, batch_size)
    observed = group.ledger.ops_in_order(phase=PHASE_FORWARD, epoch=epoch)
    if [op for op, _ in observed] != [op for op, _ in expected_ops]:
        report.fail(seed, f"{label}: forward ops {[o for o, _ in observed]} "
                          f"!= expected {[o for o, _ in expected_ops]}")
        return
    for (op, per_rank), (_, payload) in zip(observed, expected_ops):
        want = allreduce_sent_bytes_formula(payload, n)
        if per_rank != want:
            report.fail(seed, f"{label}: {op} per-rank bytes {per_rank} != {want}")
            return
    totals = group.ledger.per_rank_bytes(n, phase=PHASE_FORWARD, epoch=epoch)
    want_totals = expected_forward_bytes(graph, batch_size, n)
    if totals != want_totals:
        report.fail(seed, f"{label}: forward totals {totals} != {want_totals}")


def equivalence_case(kind, seed, n_grid=DEFAULT_N_GRID, rel_tol=1e-5, batch_size=8):
    """One random instance checked across the worker grid.

    Each engine takes one warmup training step first so the comparison does
    not run at initialization weights; the oracle is snapshotted from the
    engine under test right after the compared forward, when its tables
    hold exactly the weights that forward used.
    """
    report = CheckReport(name="case")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    graph = random_graph(kind, rng)
    warm_batch = random_batch(graph, rng, batch_size=batch_size)
    batch = random_batch(graph, rng, batch_size=batch_size)

    for n in n_grid:
        group = WorkerGroup(n)
        engine = SubstitutedModel(graph, group)
        engine.train_step(warm_batch)
        fwd = engine.forward(batch)
        eq_epoch = group.epoch
        report.cases += 1

        oracle = MonolithicModel.from_engine(engine)
        wide_probs = oracle.forward_wide(batch)
        rel = np.abs(fwd.probs - wide_probs) / np.maximum(np.abs(wide_probs), 1e-300)
        worst = float(rel.max())
        if worst > rel_tol:
            report.fail(seed, f"{kind} N={n}: relative error {worst:.3e} > {rel_tol}")
        if n == 1 and not np.array_equal(fwd.probs, oracle.forward_exact(batch)):
            report.fail(seed, f"{kind} N=1: probabilities differ bitwise from the "
                              "unsharded same-kernel route")

        _check_forward_ledger(
            report, seed, graph, group, batch.batch_size, eq_epoch, f"{kind} N={n}"
        )

        engine.apply_gradients(engine.backward(fwd))
        bwd = group.ledger.total_bytes(phase=PHASE_BACKWARD)
        opt = group.ledger.total_bytes(phase=PHASE_OPTIMIZER)
        if bwd != 0:
            report.fail(seed, f"{kind} N={n}: backward bytes {bwd} != 0")
        if opt != 0:
            report.fail(seed, f"{kind} N={n}: optimizer bytes {opt} != 0")
        m_count = group.ledger.op_count(phase=PHASE_FORWARD, epoch=eq_epoch)
        if m_count != graph.aggregation_count():
            report.fail(seed, f"{kind} N={n}: forward op count {m_count} != "
                              f"{graph.aggregation_count()}")
    return report


def run_equivalence(kinds=models.MODEL_KINDS, n_grid=DEFAULT_N_GRID, trials=100,
                    rel_tol=1e-5, seed=0):
    report = CheckReport(name="equivalence")
    for kind in kinds:
        for t in range(trials):
            case_seed = seed * 1_000_003 + t
            case = equivalence_case(kind, case_seed, n_grid=n_grid, rel_tol=rel_tol)
            report.cases += case.cases
            report.failures.extend((s, m) for s, m in case.failures)
    return report


def run_second_order_identity(trials=1000, tol=1e-10, seed=0):
    """Brute-force pairwise interactions vs the substituted linear form.

    Both sides run in double precision; the substituted side goes through
    the engine's partial and combiner kernels, split over a random number
    of groups, exactly as the sharded forward would.
    """
    report = CheckReport(name="second-order-identity")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    for _ in range(trials):
        report.cases += 1
        m = int(rng.integers(0, 101))
        d = int(rng.integers(1, 9))
        latents = rng.uniform(-1, 1, (m, d))
        values = rng.uniform(-2, 2, m)
        # brute force over all pairs
        brute = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                brute += float(np.dot(latents[a] * values[a], latents[b] * values[b]))
        # substituted route: partials per random group, summed, combined
        n_groups = int(rng.integers(1, 5))
        assign = rng.integers(0, n_groups, m)
        agg_m1 = np.zeros((1, d))
        agg_m2 = np.zeros(1)
        sample_ids = np.zeros(m, dtype=np.int64)
        for g in range(n_groups):
            mask = assign == g
            m1, m2 = models.second_order_partials(
                latents[mask], values[mask], sample_ids[: int(mask.sum())], 1
            )
            agg_m1 += m1
            agg_m2 += m2
        substituted = float(models.second_order_combine(agg_m1, agg_m2)[0])
        if abs(substituted - brute) > tol:
            report.fail(int(rng.integers(0, 2**31)),
                        f"identity off by {abs(substituted - brute):.3e} (m={m}, d={d})")
    return report


GRAD_KIND_BLOCKS = {
    "lr": ("linear",),
    "fm": ("linear", "latent"),
    "wdl": ("latent", "first_fc"),
    "deepfm": ("linear", "latent", "first_fc"),
    "dcn-demo": ("latent", "first_fc", "cross"),
}


def _engine_grad_maps(engine, passes):
    """Every rank's gradients, ``{label: grads}`` under the oracle's
    ``perturbable_parameters`` labels."""
    graph = engine.graph
    out = {}
    for rp in passes:
        uf, uk, _ = rp.pairs
        for part, grads in rp.grads.items():
            for f, k, row in zip(uf, uk, grads):
                out[f"{part}[{int(f)},{int(k)}]"] = row
    if graph.uses_tower:
        blocks = [rp.fc_grads for rp in passes]
        out["first_fc"] = join_fc_blocks(blocks, graph.n_fields, graph.embedding_dim)
    out.update((f"dense.{name}", g) for name, g in passes[0].dense_grads.items())
    return out


def _fd_sample(rng, arr, max_coords):
    flat = arr.reshape(-1)
    idx = np.arange(flat.size)
    if flat.size > max_coords:
        idx = rng.choice(flat.size, size=max_coords, replace=False)
    return flat, sorted(int(i) for i in idx)


def gradient_case(kind, seed, n_workers=2, rel_tol=1e-4, max_coords=24):
    """Analytic backward vs central differences of the oracle loss."""
    report = CheckReport(name="case")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    graph = ModelGraph(
        kind=kind,
        n_fields=int(rng.integers(1, 5)),
        embedding_dim=int(rng.integers(1, 5)),
        first_fc_width=int(rng.integers(2, 7)),
        hidden_widths=(int(rng.integers(2, 6)),),
        cross_depth=int(rng.integers(1, 3)),
        seed=int(rng.integers(0, 2**31)),
    )
    batch = random_batch(graph, rng, batch_size=4)
    group = WorkerGroup(n_workers)
    engine = SubstitutedModel(graph, group, dtype=np.float64)
    analytic = _engine_grad_maps(engine, engine.backward(engine.forward(batch)))
    oracle = MonolithicModel.from_engine(engine)

    blocks = GRAD_KIND_BLOCKS[kind]
    for label, arr in oracle.perturbable_parameters():
        wanted = (
            (label.startswith("linear[") and "linear" in blocks)
            or (label.startswith("latent[") and "latent" in blocks)
            or (label == "first_fc" and "first_fc" in blocks)
            or (label.startswith("dense.cross") and "cross" in blocks)
        )
        if not wanted:
            continue
        an = np.asarray(analytic[label], dtype=np.float64).reshape(-1)
        flat, coords = _fd_sample(rng, arr, max_coords)
        for i in coords:
            report.cases += 1
            w0 = float(flat[i])
            h = 1e-6 * max(1.0, abs(w0))
            flat[i] = w0 + h
            up = oracle.loss_wide(batch)
            flat[i] = w0 - h
            down = oracle.loss_wide(batch)
            flat[i] = w0
            fd = (up - down) / (2.0 * h)
            # denominator floor: central differences at this h carry ~1e-10
            # of absolute roundoff, so components below 1e-5 are judged on
            # an absolute scale where that noise cannot dominate the ratio
            rel = abs(fd - an[i]) / max(abs(fd), abs(an[i]), 1e-5)
            if rel > rel_tol:
                report.fail(seed, f"{kind} {label}[{i}]: analytic {an[i]:.6e} vs "
                                  f"fd {fd:.6e} (rel {rel:.3e})")
    return report


def run_gradient_checks(kinds=("lr", "fm", "wdl", "deepfm", "dcn-demo"),
                        instances=50, seed=0):
    report = CheckReport(name="gradients")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 404)))
    for kind in kinds:
        for t in range(instances):
            n_workers = int(rng.choice([1, 2, 4]))
            case = gradient_case(kind, seed=seed * 7919 + t, n_workers=n_workers)
            report.cases += case.cases
            report.failures.extend(case.failures)
    return report


def run_time_formula_checks(samples=100, seed=0):
    """Structural identities of the strategy cost model over random inputs."""
    report = CheckReport(name="time-formulas")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 505)))
    for _ in range(samples):
        report.cases += 1
        params = NetworkParams(
            alpha=float(rng.uniform(0, 1e-3)), bandwidth=float(rng.uniform(1e6, 1e10))
        )
        c = CostInputs(
            n_workers=int(rng.integers(1, 17)),
            batch_size=int(rng.integers(1, 10000)),
            uniq_feats=int(rng.integers(0, 2_000_000)),
            dim=int(rng.integers(1, 65)),
            first_fc_width=int(rng.integers(1, 513)),
            n_fields=int(rng.integers(1, 100)),
        )
        for kind in ("lr", "fm", "dnn"):
            times = strategy_times(params, kind, c)
            if times["T_async_ps"] != times["T_sync_ps"] / c.n_workers:
                report.fail(0, f"{kind}: T_async_ps != T_sync_ps/N at N={c.n_workers}")
            if times["T_async_mesh"] != times["T_sync_mesh"] / c.n_workers:
                report.fail(0, f"{kind}: T_async_mesh != T_sync_mesh/N")
            want_des = sum(
                ring_time(params, c.n_workers, s) for s in component_payload_sizes(kind, c)
            )
            if times["T_des"] != want_des:
                report.fail(0, f"{kind}: T_des != sum of ring times")
            if c.n_workers == 1 and (times["T_ring"] != 0.0 or times["T_des"] != 0.0):
                report.fail(0, f"{kind}: N=1 ring/des time not zero")
        if ring_time(params, 1, 12345) != 0.0:
            report.fail(0, "ring time at one rank is not zero")
        if substitution_time(params, 1, [4, 8]) != 0.0:
            report.fail(0, "substitution time at one rank is not zero")
    return report


def run_verify(trials=100, identity_trials=1000, grad_instances=50,
               n_grid=DEFAULT_N_GRID, seed=0):
    """All check families; returns (reports, all_passed)."""
    reports = [
        run_equivalence(trials=trials, n_grid=n_grid, seed=seed),
        run_second_order_identity(trials=identity_trials, seed=seed),
        run_gradient_checks(instances=grad_instances, seed=seed),
        run_time_formula_checks(seed=seed),
    ]
    return reports, all(r.passed for r in reports)
