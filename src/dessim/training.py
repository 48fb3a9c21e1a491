"""Synchronous training loop, evaluation, and the communication benchmark.

Every iteration follows the same locked sequence: route the global batch to
shards, aggregate the substituted forward, compute loss, run the
communication-free backward, apply shard-local and replicated updates, check
replica integrity, and cross the epoch barrier. The loop is deterministic:
a config and seed fully determine every metric, ledger entry, and
checkpoint byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields

import numpy as np

from .artifacts import ConfigDocument, replacing
from .collectives import PHASE_BACKWARD, PHASE_EVAL, PHASE_FORWARD, WorkerGroup
from .costmodel import (
    COMPONENT_KINDS,
    CommReportRow,
    CostInputs,
    REFERENCE_UNIQ_FEATS,
    component_payload_sizes,
    q_des,
    q_mesh,
    saving_ratio,
)
from .data import HELD_OUT_EVERY, SyntheticSpec, gen_synthetic, read_criteo_batches
from .metrics import auc as auc_metric, logloss as logloss_metric
from .models import MODEL_KINDS, ModelGraph, SubstitutedModel
from .errors import MetricError


@dataclass
class RunConfig(ConfigDocument):
    CONFIG_VERSION = 1

    graph: ModelGraph
    n_workers: int = 1
    batch_size: int = 512
    epochs: int = 1
    seed: int = 0
    data: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    train_samples: int = 50000
    test_samples: int = 5000
    out_dir: str | None = None

    def __post_init__(self):
        if self.n_workers < 1 or self.batch_size < 1:
            raise ValueError("need positive worker count and batch size")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.train_samples < 0 or self.test_samples < 0:
            raise ValueError(
                f"sample counts must be nonnegative, got train_samples={self.train_samples} "
                f"and test_samples={self.test_samples}"
            )

    def to_json(self):
        return json.dumps(self.to_config(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        return cls.from_config(json.loads(text))


@dataclass
class MetricsSnapshot:
    step: int
    auc: float
    logloss: float
    fwd_bytes: int
    bwd_bytes: int
    wall_ms: float

    def deterministic_fields(self):
        """Everything except wall time, which is not reproducible."""
        return (self.step, self.auc, self.logloss, self.fwd_bytes, self.bwd_bytes)


METRICS_COLUMNS = tuple(f.name for f in dc_fields(MetricsSnapshot))


def metrics_to_tsv(snapshots):
    lines = ["\t".join(METRICS_COLUMNS)]
    for s in snapshots:
        cells = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in asdict(s).values())
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    config: RunConfig
    snapshots: list
    engine: SubstitutedModel
    group: WorkerGroup
    checkpoint_dir: str | None = None


def load_batches(cfg, split):
    """Materialized batch list for one split; identical across calls."""
    if cfg.data == "synthetic":
        if split == "train":
            return list(gen_synthetic(cfg.synthetic, cfg.train_samples, cfg.batch_size, cfg.seed))
        return list(
            gen_synthetic(cfg.synthetic, cfg.test_samples, cfg.batch_size, cfg.seed + 1)
        )
    return list(read_criteo_batches(cfg.data, cfg.batch_size, split=split))


def _released(batches):
    """Yield the list's items in order, removing each from the list as it goes."""
    batches.reverse()
    while batches:
        yield batches.pop()


def evaluate(engine, batches):
    """Held-out AUC and log loss through the engine's own forward.

    Its collectives are charged to the eval phase, never to training forward.
    """
    probs, labels = [], []
    for batch in batches:
        fwd = engine.forward(batch, phase=PHASE_EVAL)
        probs.append(fwd.probs)
        labels.append(batch.labels)
    p = np.concatenate(probs)
    y = np.concatenate(labels)
    return auc_metric(p, y), logloss_metric(p, y)


def train(cfg):
    """Run the synchronous loop; snapshot held-out metrics after each epoch."""
    group = WorkerGroup(cfg.n_workers)
    engine = SubstitutedModel(cfg.graph, group)
    # Loading the held-out split first, and letting go of each training batch
    # after its last step (below), lowers a run's peak memory: together, not
    # one without the other, in paired criteo-fm-n2-cold benchmark runs.
    test_batches = load_batches(cfg, "test")
    train_batches = load_batches(cfg, "train")
    if cfg.epochs and not train_batches:
        why = (f"train_samples={cfg.train_samples}" if cfg.data == "synthetic"
               else f"{cfg.data} has no training lines")
        raise ValueError(f"the training split is empty ({why}); no epoch can train")
    if cfg.epochs and not test_batches:
        why = (f"test_samples={cfg.test_samples}" if cfg.data == "synthetic"
               else f"every {HELD_OUT_EVERY}th line is held out and {cfg.data} has fewer "
                    f"than {HELD_OUT_EVERY}")
        raise ValueError(f"the held-out split is empty ({why}); no epoch can be evaluated")

    snapshots = []
    step = 0
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        last = epoch + 1 == cfg.epochs
        for batch in _released(train_batches) if last else train_batches:
            engine.train_step(batch)
            step += 1
        test_auc, test_ll = evaluate(engine, test_batches)
        snapshots.append(
            MetricsSnapshot(
                step=step,
                auc=test_auc,
                logloss=test_ll,
                fwd_bytes=group.ledger.total_bytes(phase=PHASE_FORWARD),
                bwd_bytes=group.ledger.total_bytes(phase=PHASE_BACKWARD),
                wall_ms=(time.perf_counter() - t0) * 1000.0,
            )
        )

    checkpoint_dir = None
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        checkpoint_dir = os.path.join(cfg.out_dir, "checkpoint")
        engine.save_checkpoint(checkpoint_dir)
        doc = {"version": 1, "rows": [asdict(s) for s in snapshots]}
        for name, text in (
            ("metrics.tsv", metrics_to_tsv(snapshots)),
            ("metrics.json", json.dumps(doc, indent=2) + "\n"),
            ("config.json", cfg.to_json()),
        ):
            with replacing(os.path.join(cfg.out_dir, name)) as fh:
                fh.write(text.encode("utf-8"))

    return TrainResult(
        config=cfg, snapshots=snapshots, engine=engine, group=group,
        checkpoint_dir=checkpoint_dir,
    )


# ---------------------------------------------------------------------------
# communication benchmark

_COMPONENT_GRAPH_KIND = {"lr": "lr", "fm": "fm", "dnn": "wdl"}
_COMPONENT_OPS = {
    "lr": ("linear.partial",),
    "fm": ("fm2.m1", "fm2.m2"),
    "dnn": ("tower.first_fc",),
}


def bench_comm(n_workers=4, dim=8, first_fc_width=16, rows=None, n_fields=10, seed=0):
    """Predicted vs measured bytes for each component and batch size.

    Each cell runs one real engine iteration and reads the component's
    aggregation ops out of the forward ledger. Aggregated payloads depend
    only on batch size and widths, so the unique-feature count of the
    reference workload enters the predictions, not the run.
    """
    if rows is None:
        rows = sorted(REFERENCE_UNIQ_FEATS.items())
    reports = []
    for kind in COMPONENT_KINDS:
        for batch_size, uniq in rows:
            c = CostInputs(
                n_workers=n_workers, batch_size=batch_size, uniq_feats=uniq,
                dim=dim, first_fc_width=first_fc_width, n_fields=n_fields,
            )
            graph = ModelGraph(
                kind=_COMPONENT_GRAPH_KIND[kind], n_fields=n_fields,
                embedding_dim=dim, first_fc_width=first_fc_width, seed=seed,
            )
            group = WorkerGroup(n_workers)
            engine = SubstitutedModel(graph, group)
            spec = SyntheticSpec(
                n_fields=n_fields, vocab_per_field=100,
                min_active_fields=n_fields, max_active_fields=n_fields,
            )
            batch = next(gen_synthetic(spec, batch_size, batch_size, seed))
            engine.train_step(batch)

            per_rank = [
                group.ledger.per_rank_bytes(n_workers, phase=PHASE_FORWARD, op=op)
                for op in _COMPONENT_OPS[kind]
            ]
            totals = [sum(col) for col in zip(*per_rank)]
            if len(set(totals)) != 1:
                raise MetricError(f"per-rank forward bytes are not uniform: {totals}")
            measured = totals[0]
            predicted = q_des(kind, c)
            reports.append(
                CommReportRow(
                    model=kind,
                    batch_size=batch_size,
                    n_workers=n_workers,
                    uniq_feats=uniq,
                    q_mesh=q_mesh(kind, c),
                    q_des=predicted,
                    ratio=saving_ratio(kind, c),
                    measured_bytes=measured,
                    deviation=(measured - predicted) / predicted if predicted else 0.0,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# bit-identity digest

DIGEST_WORKERS = (1, 3, 4)
DIGEST_BATCHES = (256, 2048)


def bits_digest():
    """One line per model kind, worker count and batch size: what a bit-exact change keeps.

    Each case trains 2 epochs on synthetic data (10 fields, vocab 300, 4,096
    training and 2,048 held-out samples, seed 7). Its line gives the sha256
    over the checkpoint files' names and bytes in name order, the final
    held-out AUC and log loss as float hex, and the sha256 of
    ``ledger.records()`` as JSON. The ledger hashes are the same on every
    host; the rest depends on the numpy/BLAS build (see ``vecmath``), so
    compare lines printed on one host and build.
    """
    for kind in MODEL_KINDS:
        for n_workers in DIGEST_WORKERS:
            for batch_size in DIGEST_BATCHES:
                cfg = RunConfig(
                    graph=ModelGraph(kind=kind, n_fields=10, seed=7),
                    n_workers=n_workers, batch_size=batch_size, epochs=2, seed=7,
                    synthetic=SyntheticSpec(n_fields=10, vocab_per_field=300),
                    train_samples=4096, test_samples=2048,
                )
                result = train(cfg)
                checkpoint = hashlib.sha256()
                with tempfile.TemporaryDirectory() as tmp:
                    for path in result.engine.save_checkpoint(tmp):
                        checkpoint.update(os.path.basename(path).encode("utf-8"))
                        with open(path, "rb") as fh:
                            checkpoint.update(fh.read())
                records = json.dumps(result.group.ledger.records()).encode("utf-8")
                snap = result.snapshots[-1]
                yield (
                    f"{kind}/{n_workers}/{batch_size} checkpoint={checkpoint.hexdigest()} "
                    f"auc={float(snap.auc).hex()} logloss={float(snap.logloss).hex()} "
                    f"ledger={hashlib.sha256(records).hexdigest()}"
                )
