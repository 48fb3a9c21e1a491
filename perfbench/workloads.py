"""The benchmark's workloads and the seeded inputs each one trains on.

One workload trains deepfm on a synthetic click stream (10 fields, 1,000
tokens per field, every field active), so after its first epoch every lookup
hits. The other reads a Criteo-format TSV whose categorical tokens are
Zipf-distributed over a large vocabulary, so a large share of its lookups
insert new table rows. Why each one exists is recorded next to its name in
BENCHMARK.json.

Input generation is deterministic in the seed and runs before any timed
region; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Synthetic stream of the deepfm workload. 20,480 training samples give
# 40 steps per epoch at B=512, and every one of the 10 x 1,000 tokens is
# drawn in epoch 1 with probability 1 - 1e-5, so later epochs only hit.
SYNTH_FIELDS = 10
SYNTH_VOCAB = 1000
SYNTH_TRAIN = 20480
SYNTH_TEST = 20480

# Criteo-format TSV of the cold workload. Every twentieth line is held out
# by the reader, so 28,000 lines give 26,600 training samples (208 steps at
# B=128 with a smaller last batch) and 1,400 held-out ones, enough that
# held-out AUC varies across seeds by about 2%.
CRITEO_LINES = 28000
CRITEO_INT_COLS = 13
CRITEO_CAT_COLS = 26
CRITEO_VOCAB = 1_000_000
CRITEO_ZIPF_A = 1.1
# Only the most frequent tokens of each column carry label signal; the long
# tail is pure noise, as in real click logs.
CRITEO_SIGNAL_TOKENS = 2000
CRITEO_CAT_MISSING = 0.04
CRITEO_INT_MISSING = 0.1
CRITEO_POSITIVE_RATE = 0.25
# The hidden model is the same for every seed, so held-out quality varies
# across seeds only through the sampled rows.
CRITEO_TRUTH_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One named training run.

    ``silent`` lists the trace spans the run never reaches. ``warm`` predicts
    that no lookup after epoch 1 inserts a table row.
    """

    name: str
    kind: str
    n_fields: int
    n_workers: int
    batch_size: int
    epochs: int
    source: str
    auc_floor: float
    warm: bool
    silent: frozenset


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deepfm-n4-warm", kind="deepfm", n_fields=SYNTH_FIELDS, n_workers=4,
            batch_size=512, epochs=3, source="synthetic", auc_floor=0.6, warm=True,
            silent=frozenset({"data.parse_criteo", "data.featurize", "data.from_samples"}),
        ),
        Workload(
            name="criteo-fm-n2-cold", kind="fm",
            n_fields=CRITEO_INT_COLS + CRITEO_CAT_COLS, n_workers=2,
            batch_size=128, epochs=1, source="criteo", auc_floor=0.6, warm=False,
            silent=frozenset({"vecmath.matmul_rows", "models.mlp_forward", "models.mlp_backward"}),
        ),
    )
}


def run_config(workload, seed, data_path=None):
    """The RunConfig that ``dessim train`` would get for this workload and seed."""
    from dessim.data import SyntheticSpec
    from dessim.models import ModelGraph
    from dessim.training import RunConfig

    graph = ModelGraph(kind=workload.kind, n_fields=workload.n_fields)
    if workload.source == "synthetic":
        return RunConfig(
            graph=graph, n_workers=workload.n_workers, batch_size=workload.batch_size,
            epochs=workload.epochs, seed=seed,
            synthetic=SyntheticSpec(
                n_fields=SYNTH_FIELDS, vocab_per_field=SYNTH_VOCAB,
            ),
            train_samples=SYNTH_TRAIN, test_samples=SYNTH_TEST,
        )
    return RunConfig(
        graph=graph, n_workers=workload.n_workers, batch_size=workload.batch_size,
        epochs=workload.epochs, seed=seed, data=data_path,
    )


def _zipf_ranks(rng, shape, a, vocab):
    """Zipf(a) ranks in [1, vocab]; draws beyond the vocabulary are redrawn."""
    ranks = rng.zipf(a, size=shape)
    over = ranks > vocab
    while over.any():
        ranks[over] = rng.zipf(a, size=int(over.sum()))
        over = ranks > vocab
    return ranks


def _calibrated_bias(z, rate):
    """Bias b with mean(sigmoid(z + b)) = rate, by bisection."""
    lo, hi = -40.0, 40.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(z + mid)))) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def criteo_tsv(seed, n_lines=CRITEO_LINES):
    """Criteo-format click log text, identical for identical arguments.

    Columns are the label, 13 integer counts and 26 categorical tokens (eight
    hex digits, as in the public dataset). Labels come from a hidden logistic
    model over the frequent tokens and the log counts, so held-out AUC
    measures learning.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
    truth = np.random.default_rng(np.random.SeedSequence((CRITEO_TRUTH_SEED, 102)))
    cat_w = truth.normal(0.0, 0.5, size=(CRITEO_CAT_COLS, CRITEO_SIGNAL_TOKENS))
    int_w = truth.normal(0.0, 0.3, size=CRITEO_INT_COLS)
    salts = truth.integers(0, 2**32, size=CRITEO_CAT_COLS, dtype=np.uint64)

    ranks = _zipf_ranks(rng, (n_lines, CRITEO_CAT_COLS), CRITEO_ZIPF_A, CRITEO_VOCAB)
    cat_present = rng.random((n_lines, CRITEO_CAT_COLS)) >= CRITEO_CAT_MISSING
    counts = rng.geometric(0.05, size=(n_lines, CRITEO_INT_COLS)) - 1
    int_present = rng.random((n_lines, CRITEO_INT_COLS)) >= CRITEO_INT_MISSING

    head = ranks <= CRITEO_SIGNAL_TOKENS
    cols = np.arange(CRITEO_CAT_COLS)[None, :]
    cat_z = np.where(head & cat_present, cat_w[cols, np.minimum(ranks, CRITEO_SIGNAL_TOKENS) - 1], 0.0)
    int_z = np.where(int_present, np.log1p(counts) - 1.5, 0.0) * int_w
    z = cat_z.sum(axis=1) + int_z.sum(axis=1)
    z += _calibrated_bias(z, CRITEO_POSITIVE_RATE)
    labels = (rng.random(n_lines) < 1.0 / (1.0 + np.exp(-z))).astype(np.int64)

    # An odd multiplier makes rank -> token a bijection modulo 2**32.
    tokens = (ranks.astype(np.uint64) * np.uint64(2654435761) + salts[None, :]) & np.uint64(0xFFFFFFFF)

    lines = []
    for i in range(n_lines):
        cells = [str(labels[i])]
        cells += [str(c) if p else "" for c, p in zip(counts[i].tolist(), int_present[i].tolist())]
        cells += [f"{t:08x}" if p else "" for t, p in zip(tokens[i].tolist(), cat_present[i].tolist())]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def write_criteo_tsv(path, seed, n_lines=CRITEO_LINES):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(criteo_tsv(seed, n_lines))
    return path


def expected_train_steps(workload):
    """Training steps one ``train`` call makes for this workload."""
    if workload.source == "synthetic":
        n_train = SYNTH_TRAIN
    else:
        n_train = CRITEO_LINES - CRITEO_LINES // 20
    return workload.epochs * math.ceil(n_train / workload.batch_size)
