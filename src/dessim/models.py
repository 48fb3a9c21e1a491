"""Sharded forward/backward for sparse recommendation models.

The weights-rich first layer of each model is replaced by shard-local
partial operators whose aggregated results reproduce the unsharded
computation exactly. Everything above the aggregation is replicated per
worker. The collective group is the only inter-worker channel and it is
used in the forward phase only: backward consumes aggregated values every
worker already holds, so its communication is zero by construction. Every
worker runs the same forward program, a generator that yields its partials
at each aggregation; ``WorkerGroup.run`` drives one per rank in lockstep.

Model kinds:

- ``lr``        logistic regression; one scalar partial per sample.
- ``fm``        lr plus a second-order term from two aggregated partials
                (a d-vector and a scalar per sample).
- ``wdl``       lr plus a relu tower whose first fully-connected layer is
                computed as a row-block partial product per worker.
- ``deepfm``    lr + second-order + tower, with one shared latent table.
- ``dcn-demo``  substituted embedding tower feeding a cross-layer stack;
                each cross layer needs one scalar-per-sample aggregation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import vecmath
from .artifacts import replacing
from .collectives import PHASE_BACKWARD, PHASE_FORWARD, PHASE_OPTIMIZER
from .errors import ConsistencyError, DimensionError, ProtocolError
from .optim import OptimizerConfig, dense_step, init_dense_state, step as optim_step
from .sparse import ShardedWeightTable, TablePart, unique_with_inverse

MODEL_KINDS = ("lr", "fm", "wdl", "deepfm", "dcn-demo")
CONFIG_VERSION = 1


@dataclass
class SparseBatch:
    """A batch in flat coordinate form.

    ``sample_ids`` maps each feature occurrence to its row in [0, batch_size);
    duplicate (field, key) pairs within a sample are legal and their values
    accumulate. Labels are 0/1 floats.
    """

    labels: np.ndarray
    sample_ids: np.ndarray
    fields: np.ndarray
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        self.fields = np.asarray(self.fields, dtype=np.int64)
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.labels.ndim != 1 or self.labels.shape[0] < 1:
            raise DimensionError("batch needs at least one sample")
        n = self.sample_ids.shape[0]
        if not (self.fields.shape[0] == self.keys.shape[0] == self.values.shape[0] == n):
            raise DimensionError("feature arrays must share one length")
        if n and (self.sample_ids.min() < 0 or self.sample_ids.max() >= self.batch_size):
            raise DimensionError("sample ids out of range")

    @property
    def batch_size(self):
        return self.labels.shape[0]

    def shard_slices(self, n_workers):
        """Each worker's feature occurrences, by rank, in batch order within each.

        Field f belongs to worker f mod N. One stable sort by owner groups
        the occurrences, and each rank's slice is a run of that order.
        """
        owner = self.fields % n_workers
        order = np.argsort(owner, kind="stable")
        bounds = np.cumsum(np.bincount(owner, minlength=n_workers))[:-1]
        columns = zip(*(np.split(a[order], bounds) for a in (
            self.sample_ids, self.fields, self.keys, self.values)))
        return [BatchSlice(self.batch_size, *cols) for cols in columns]

    @staticmethod
    def from_samples(labels, samples):
        """Build from one (field, key, value) list per sample, or from a ``SampleFeatures``."""
        if not isinstance(samples, SampleFeatures):
            samples = SampleFeatures.from_lists(samples)
        counts = np.diff(samples.offsets)
        return SparseBatch(
            labels=labels,
            sample_ids=np.repeat(np.arange(len(counts), dtype=np.int64), counts),
            fields=samples.fields,
            keys=samples.keys,
            values=samples.values,
        )


@dataclass
class SampleFeatures:
    """The feature occurrences of consecutive samples, flat.

    Sample i owns entries ``offsets[i]:offsets[i + 1]`` of ``fields``,
    ``keys`` and ``values``; ``offsets`` starts at 0. Slicing with a step of
    1 gives a run of samples as its own ``SampleFeatures``.
    """

    offsets: np.ndarray
    fields: np.ndarray
    keys: np.ndarray
    values: np.ndarray

    @staticmethod
    def from_lists(samples):
        """From one (field, key, value) list per sample."""
        offsets, fields, keys, values = [0], [], [], []
        for feats in samples:
            for f, k, v in feats:
                fields.append(f)
                keys.append(k)
                values.append(v)
            offsets.append(len(fields))
        return SampleFeatures(
            offsets=np.asarray(offsets, dtype=np.int64),
            fields=np.asarray(fields, dtype=np.int64),
            keys=np.asarray(keys, dtype=np.uint64),
            values=np.asarray(values, dtype=np.float32),
        )

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, index):
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("SampleFeatures slices take a step of 1")
        lo, hi = self.offsets[start], self.offsets[stop]
        return SampleFeatures(
            offsets=self.offsets[start : stop + 1] - lo,
            fields=self.fields[lo:hi],
            keys=self.keys[lo:hi],
            values=self.values[lo:hi],
        )


@dataclass
class BatchSlice:
    batch_size: int
    sample_ids: np.ndarray
    fields: np.ndarray
    keys: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ModelGraph:
    """Architecture and optimizer bindings for one model."""

    kind: str
    n_fields: int
    embedding_dim: int = 8
    first_fc_width: int = 16
    hidden_widths: tuple = (16,)
    cross_depth: int = 2
    seed: int = 0
    first_order_opt: OptimizerConfig = field(default_factory=OptimizerConfig.ftrl)
    embedding_opt: OptimizerConfig = field(default_factory=OptimizerConfig.adam)
    dense_opt: OptimizerConfig = field(default_factory=OptimizerConfig.adam)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.n_fields < 1:
            raise ValueError("need at least one field")
        if self.embedding_dim < 1 or self.first_fc_width < 1:
            raise ValueError("embedding_dim and first_fc_width must be positive")
        if self.kind == "dcn-demo" and self.cross_depth < 1:
            raise ValueError("dcn-demo needs at least one cross layer")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))

    @property
    def uses_linear(self):
        return self.kind in ("lr", "fm", "wdl", "deepfm")

    @property
    def uses_second_order(self):
        return self.kind in ("fm", "deepfm")

    @property
    def uses_tower(self):
        return self.kind in ("wdl", "deepfm", "dcn-demo")

    @property
    def uses_mlp(self):
        return self.kind in ("wdl", "deepfm")

    @property
    def uses_cross(self):
        return self.kind == "dcn-demo"

    def aggregation_count(self):
        """Collective calls per forward pass."""
        m = 0
        if self.uses_linear:
            m += 1
        if self.uses_second_order:
            m += 2
        if self.uses_tower:
            m += 1
        if self.uses_cross:
            m += self.cross_depth
        return m

    def to_config(self):
        return {
            "version": CONFIG_VERSION,
            "kind": self.kind,
            "n_fields": self.n_fields,
            "embedding_dim": self.embedding_dim,
            "first_fc_width": self.first_fc_width,
            "hidden_widths": list(self.hidden_widths),
            "cross_depth": self.cross_depth,
            "seed": self.seed,
            "first_order_opt": self.first_order_opt.to_config(),
            "embedding_opt": self.embedding_opt.to_config(),
            "dense_opt": self.dense_opt.to_config(),
        }

    @staticmethod
    def from_config(doc):
        doc = dict(doc)
        version = doc.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported model config version {version}")
        unknown = set(doc) - {f.name for f in dc_fields(ModelGraph)}
        if unknown:
            raise ValueError(f"unknown model config keys: {', '.join(sorted(unknown))}")
        for req in ("kind", "n_fields"):
            if req not in doc:
                raise ValueError(f"model config missing {req!r}")
        for name in ("first_order_opt", "embedding_opt", "dense_opt"):
            if name in doc and isinstance(doc[name], dict):
                doc[name] = OptimizerConfig.from_config(doc[name])
        doc["hidden_widths"] = tuple(doc.get("hidden_widths", (16,)))
        return ModelGraph(**doc)


# ---------------------------------------------------------------------------
# shard-local partial operators and their combiners


def linear_partial(weights, values, sample_ids, batch_size):
    """Per-sample sum of w*x over one shard's feature occurrences."""
    out = np.zeros(batch_size, dtype=weights.dtype)
    np.add.at(out, sample_ids, weights[:, 0] * values)
    return out


def second_order_partials(latents, values, sample_ids, batch_size):
    """Local sums of v*x (a d-vector) and of <v*x, v*x> (a scalar) per sample."""
    vx = latents * values[:, None]
    m1 = vecmath.scatter_add_rows(sample_ids, vx, batch_size)
    m2 = np.zeros(batch_size, dtype=latents.dtype)
    np.add.at(m2, sample_ids, np.sum(vx * vx, axis=1))
    return m1, m2


def second_order_combine(agg_m1, agg_m2):
    """Pairwise-interaction value from aggregated partials.

    Uses the square-of-sum minus sum-of-squares identity, so only the two
    aggregated quantities are needed, never the individual latents.
    """
    half = agg_m1.dtype.type(0.5)
    return half * (np.sum(agg_m1 * agg_m1, axis=1) - agg_m2)


def pooled_slots(slice_, field_positions, n_local_fields):
    """Each occurrence's (sample, local field) slot, a row of the pooled array's
    ``(batch_size * n_local_fields, dim)`` form."""
    return slice_.sample_ids * n_local_fields + field_positions[slice_.fields]


def pooled_fields(slice_, field_positions, latents, n_local_fields, dim):
    """Sum-pool embeddings into per-field slots and concatenate in field order."""
    slots = pooled_slots(slice_, field_positions, n_local_fields)
    pooled = vecmath.scatter_add_rows(
        slots, latents * slice_.values[:, None], slice_.batch_size * n_local_fields
    )
    return pooled.reshape(slice_.batch_size, n_local_fields * dim)


def tower_partial(pooled_concat, fc_rows):
    """Local row-block product with the first fully-connected layer."""
    return vecmath.matmul_rows(pooled_concat, fc_rows)


def cross_partial(x, w, lo, hi):
    """Contribution of one coordinate range to the per-sample <x, w> scalar."""
    return np.sum(x[:, lo:hi] * w[lo:hi], axis=1)


def cross_combine(x0, s, b, x):
    """One cross layer: x0 * <x, w> + b + x, with <x, w> already aggregated."""
    return x0 * s[:, None] + b + x


# ---------------------------------------------------------------------------
# replicated upper stack


def mlp_forward(params, hidden_widths, agg):
    """Relu tower above the aggregated first layer; returns (logit, cache)."""
    h = vecmath.relu(agg)
    hs = [h]
    zs = []
    for i in range(len(hidden_widths)):
        z = vecmath.matmul_rows(h, params[f"mlp{i}.w"]) + params[f"mlp{i}.b"]
        zs.append(z)
        h = vecmath.relu(z)
        hs.append(h)
    logit = vecmath.matmul_rows(h, params["out.w"])[:, 0] + params["out.b"][0]
    return logit, {"agg": agg, "hs": hs, "zs": zs}


def mlp_backward(params, hidden_widths, cache, g_logit):
    """Gradients of the relu tower; returns (grad wrt agg, dense grads)."""
    grads = {}
    h_last = cache["hs"][-1]
    grads["out.w"] = vecmath.matmul_rows(h_last.T, g_logit[:, None])
    grads["out.b"] = np.array([np.sum(g_logit)], dtype=h_last.dtype)
    g_h = g_logit[:, None] * params["out.w"][:, 0][None, :]
    for i in reversed(range(len(hidden_widths))):
        g_z = g_h * (cache["zs"][i] > 0)
        grads[f"mlp{i}.w"] = vecmath.matmul_rows(cache["hs"][i].T, g_z)
        grads[f"mlp{i}.b"] = np.sum(g_z, axis=0)
        g_h = vecmath.matmul_rows(g_z, params[f"mlp{i}.w"].T)
    g_agg = g_h * (cache["agg"] > 0)
    return g_agg, grads


def cross_backward(params, depth, cache, g_logit):
    """Gradients of the cross stack; returns (grad wrt x0, dense grads).

    Every worker holds the full cross vectors, so this needs no
    communication: the recurrence g_k = g_{k+1} + <x0, g_{k+1}> * w_k walks
    down the stack with locally available values.
    """
    xs, ss = cache["xs"], cache["ss"]
    x0 = xs[0]
    grads = {}
    x_top = xs[depth]
    grads["out.w"] = vecmath.matmul_rows(x_top.T, g_logit[:, None])
    grads["out.b"] = np.array([np.sum(g_logit)], dtype=x_top.dtype)
    g = g_logit[:, None] * params["out.w"][:, 0][None, :]
    g_x0 = np.zeros_like(x0)
    for k in reversed(range(depth)):
        c = np.sum(x0 * g, axis=1)
        grads[f"cross{k}.w"] = vecmath.matmul_rows(c[None, :], xs[k])[0]
        grads[f"cross{k}.b"] = np.sum(g, axis=0)
        g_x0 += ss[k][:, None] * g
        g = g + c[:, None] * params[f"cross{k}.w"][None, :]
    return g_x0 + g, grads


# ---------------------------------------------------------------------------
# parameter construction


def glorot_uniform(rng, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


def build_dense_params(graph, dtype):
    """Replicated dense parameters, deterministic in the graph seed.

    The first fully-connected matrix is built here in full and sliced into
    per-worker row blocks by the engine, so the same (field, row) weight has
    the same value at every worker count.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(graph.seed), 1)))
    params = {}
    if graph.uses_linear:
        params["bias"] = np.zeros(1, dtype=dtype)
    full_fc = None
    if graph.uses_tower:
        fan_in = graph.n_fields * graph.embedding_dim
        h = graph.first_fc_width
        full_fc = glorot_uniform(rng, fan_in, h, (fan_in, h), dtype)
    if graph.uses_mlp:
        width = graph.first_fc_width
        for i, w_out in enumerate(graph.hidden_widths):
            params[f"mlp{i}.w"] = glorot_uniform(rng, width, w_out, (width, w_out), dtype)
            params[f"mlp{i}.b"] = np.zeros(w_out, dtype=dtype)
            width = w_out
        params["out.w"] = glorot_uniform(rng, width, 1, (width, 1), dtype)
        params["out.b"] = np.zeros(1, dtype=dtype)
    if graph.uses_cross:
        h = graph.first_fc_width
        for k in range(graph.cross_depth):
            params[f"cross{k}.w"] = glorot_uniform(rng, h, 1, (h,), dtype)
            params[f"cross{k}.b"] = np.zeros(h, dtype=dtype)
        params["out.w"] = glorot_uniform(rng, h, 1, (h, 1), dtype)
        params["out.b"] = np.zeros(1, dtype=dtype)
    return params, full_fc


# ---------------------------------------------------------------------------
# the engine


@dataclass
class RankPass:
    """One rank's state from a forward pass: what its backward and apply need.

    The rank's (field, key) pairs are resolved once per step: ``pairs`` is
    ``unique_with_inverse`` of its slice, ``(fields, keys, inverse)``, and
    one table ``lookup`` gives every unique pair's ``rows`` and the
    ``weights`` it read, ``{part: weights}``. The optimizer writes back by
    those rows, which stay valid through the step because table rows never
    move. ``latents`` is the latent vector of each feature occurrence, row
    ``inverse`` of ``weights["latent"]``; the engine gathers rows with
    ``np.take``, the same copy as fancy indexing, only faster. ``cache`` is
    the rank's replicated-stack cache (the mlp's or the cross stack's).
    Fields a model does not use stay None.
    """

    slice_: BatchSlice
    pairs: tuple
    rows: np.ndarray | None = None
    weights: dict | None = None
    latents: np.ndarray | None = None
    agg_m1: np.ndarray | None = None
    pooled: np.ndarray | None = None
    cache: dict | None = None


@dataclass
class ForwardPass:
    """The output every rank agrees on, plus each rank's ``RankPass``.

    Backward sums gradients over each rank's resolved pairs, and apply steps
    the optimizer from the weights forward read, since no table is written
    between forward and apply.
    """

    probs: np.ndarray
    logit: np.ndarray
    epoch: int
    batch: SparseBatch
    ranks: list


@dataclass
class RankGradients:
    """One rank's gradients of a pass.

    ``pairs`` are the rank's unique ``(fields, keys)`` and ``rows`` their
    table rows, which the optimizer writes in every part. ``linear`` and
    ``latent`` are ``(weights, grads)`` of that table part over those pairs:
    the weights the forward pass read and their gradients. They are None
    where the model has no such part. ``fc_block`` is None without a tower.
    """

    dense: dict = field(default_factory=dict)
    fc_block: np.ndarray | None = None
    pairs: tuple | None = None
    rows: np.ndarray | None = None
    linear: tuple | None = None
    latent: tuple | None = None


class SubstitutedModel:
    """Executes one model graph over a worker group.

    Weights-rich state is sharded by field (one table whose rows hold each
    pair's linear and latent parts, plus each worker's row block of the first
    fully-connected layer); everything above the aggregation points is
    replicated and must stay bitwise identical across workers. Forward
    checks that every rank computed the same logit, and train_step compares
    the replicas every iteration.
    """

    def __init__(self, graph, group, dtype=np.float32):
        self.graph = graph
        self.group = group
        self.dtype = np.dtype(dtype)
        n = group.n_workers
        self.n_workers = n

        parts = []
        if graph.uses_linear:
            parts.append(TablePart("linear", 1, "zeros", graph.first_order_opt.slot_widths(1)))
        if graph.uses_second_order or graph.uses_tower:
            d = graph.embedding_dim
            parts.append(TablePart("latent", d, "uniform", graph.embedding_opt.slot_widths(d)))
        self.table = ShardedWeightTable(n, parts, seed=graph.seed, dtype=self.dtype)

        self.rank_fields = [
            [f for f in range(graph.n_fields) if f % n == r] for r in range(n)
        ]
        self._field_pos = []
        for r in range(n):
            pos = np.full(graph.n_fields, -1, dtype=np.int64)
            for i, f in enumerate(self.rank_fields[r]):
                pos[f] = i
            self._field_pos.append(pos)

        params, full_fc = build_dense_params(graph, self.dtype)
        self.dense = [copy.deepcopy(params) for _ in range(n)]
        self.dense_state = [
            {name: init_dense_state(graph.dense_opt, arr.size, self.dtype)
             for name, arr in params.items()}
            for _ in range(n)
        ]

        self.fc_blocks = [None] * n
        self.fc_state = [None] * n
        if graph.uses_tower:
            d = graph.embedding_dim
            for r in range(n):
                rows = [np.arange(f * d, (f + 1) * d) for f in self.rank_fields[r]]
                idx = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
                self.fc_blocks[r] = full_fc[idx].copy()
                self.fc_state[r] = init_dense_state(
                    graph.dense_opt, self.fc_blocks[r].size, self.dtype
                )

        if graph.uses_cross:
            h = graph.first_fc_width
            bounds = np.linspace(0, h, n + 1).astype(int)
            self._cross_ranges = [(int(bounds[r]), int(bounds[r + 1])) for r in range(n)]

    # -- forward ----------------------------------------------------------

    def _check_batch(self, batch):
        """Reject labels other than 0 and 1, fields outside [0, n_fields) and
        non-finite values, naming the sample."""
        bad = np.flatnonzero((batch.labels != 0) & (batch.labels != 1))
        if bad.size:
            i = bad[0]
            raise ValueError(f"sample {i} has label {float(batch.labels[i])}, not 0 or 1")
        n_fields = self.graph.n_fields
        bad = np.flatnonzero((batch.fields < 0) | (batch.fields >= n_fields))
        if bad.size:
            i = bad[0]
            raise DimensionError(
                f"sample {int(batch.sample_ids[i])} has field {int(batch.fields[i])} "
                f"outside [0, {n_fields})"
            )
        bad = np.flatnonzero(~np.isfinite(batch.values))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"sample {int(batch.sample_ids[i])} has non-finite value "
                f"{float(batch.values[i])} in field {int(batch.fields[i])}"
            )

    def forward(self, batch, phase=PHASE_FORWARD):
        """Every rank's forward program, run in lockstep; one collective per aggregation.

        Its collectives are charged to ``phase``: held-out evaluation passes
        ``PHASE_EVAL``, so the training forward phase holds training traffic
        only. Every rank computes the logit with its own replica of the upper
        stack, so a replica that diverged shows up here as a different logit.
        """
        self._check_batch(batch)
        group = self.group
        group.set_phase(phase)
        n = self.n_workers
        B = batch.batch_size
        slices = batch.shard_slices(n)
        outs = group.run(self._rank_forward(r, slices[r], B) for r in range(n))
        logit = outs[0][0]
        for r, (rank_logit, _) in enumerate(outs[1:], start=1):
            if rank_logit.tobytes() != logit.tobytes():
                raise ConsistencyError(f"logit on worker {r} diverged from worker 0")
        return ForwardPass(
            probs=vecmath.sigmoid(logit), logit=logit, epoch=group.epoch, batch=batch,
            ranks=[rank_pass for _, rank_pass in outs],
        )

    def _rank_forward(self, r, slice_, B):
        """Rank r's forward program; yields ``(op, partial)`` at each aggregation.

        Returns the rank's logit and its ``RankPass``.
        """
        graph = self.graph
        dense = self.dense[r]
        uf, uk, inv = unique_with_inverse(slice_.fields, slice_.keys)
        rp = RankPass(slice_=slice_, pairs=(uf, uk, inv))
        rp.rows, rp.weights = self.table.lookup(r, uf, uk)
        if "latent" in rp.weights:
            rp.latents = np.take(rp.weights["latent"], inv, axis=0)
        ids, values = slice_.sample_ids, slice_.values
        logit = np.zeros(B, dtype=self.dtype)

        if graph.uses_linear:
            partial = linear_partial(np.take(rp.weights["linear"], inv, axis=0), values, ids, B)
            logit = logit + dense["bias"][0]
            logit = logit + (yield "linear.partial", partial)

        if graph.uses_second_order:
            m1, m2 = second_order_partials(rp.latents, values, ids, B)
            rp.agg_m1 = yield "fm2.m1", m1
            agg_m2 = yield "fm2.m2", m2
            logit = logit + second_order_combine(rp.agg_m1, agg_m2)

        if graph.uses_tower:
            rp.pooled = pooled_fields(
                slice_, self._field_pos[r], rp.latents, len(self.rank_fields[r]),
                graph.embedding_dim,
            )
            agg = yield "tower.first_fc", tower_partial(rp.pooled, self.fc_blocks[r])
            if graph.uses_mlp:
                deep, rp.cache = mlp_forward(dense, graph.hidden_widths, agg)
            else:
                # each cross layer aggregates one scalar per sample, summed over
                # the ranks' disjoint coordinate ranges of the running vector
                lo, hi = self._cross_ranges[r]
                x, xs, ss = agg, [agg], []
                for k in range(graph.cross_depth):
                    s = yield f"cross.{k}", cross_partial(x, dense[f"cross{k}.w"], lo, hi)
                    x = cross_combine(agg, s, dense[f"cross{k}.b"], x)
                    ss.append(s)
                    xs.append(x)
                deep = vecmath.matmul_rows(x, dense["out.w"])[:, 0] + dense["out.b"][0]
                rp.cache = {"xs": xs, "ss": ss}
            logit = logit + deep
        return logit, rp

    # -- backward ---------------------------------------------------------

    def backward(self, fwd):
        """Per-rank gradients of one forward pass. Performs no collective calls.

        Aggregation distributes the incoming gradient unchanged to every
        local partial, and each worker already holds all aggregated values,
        so everything below decomposes into shard-local work.
        """
        group = self.group
        if fwd.epoch != group.epoch:
            raise ProtocolError(
                f"backward for epoch {fwd.epoch} but the group is at epoch {group.epoch}"
            )
        group.set_phase(PHASE_BACKWARD)
        B = fwd.batch.batch_size
        delta = ((fwd.probs - fwd.batch.labels) / B).astype(self.dtype)
        return [self._rank_backward(r, rp, delta, B) for r, rp in enumerate(fwd.ranks)]

    def _rank_backward(self, r, rp, delta, B):
        """Rank r's ``RankGradients`` from its own ``RankPass``."""
        graph = self.graph
        dense = self.dense[r]
        sl = rp.slice_
        uf, uk, inv = rp.pairs
        grads = RankGradients(pairs=(uf, uk), rows=rp.rows)

        if graph.uses_linear:
            grads.dense["bias"] = np.array([np.sum(delta)], dtype=self.dtype)
            g = vecmath.scatter_add_rows(inv, (delta[sl.sample_ids] * sl.values)[:, None], len(uf))
            grads.linear = (rp.weights["linear"], g)

        latent_contrib = None
        if graph.uses_second_order:
            x = sl.values[:, None]
            latent_contrib = delta[sl.sample_ids][:, None] * (
                np.take(rp.agg_m1, sl.sample_ids, axis=0) * x - rp.latents * x * x
            )

        if graph.uses_tower:
            if graph.uses_mlp:
                g_agg, stack_grads = mlp_backward(dense, graph.hidden_widths, rp.cache, delta)
            else:
                g_agg, stack_grads = cross_backward(dense, graph.cross_depth, rp.cache, delta)
            grads.dense.update(stack_grads)
            grads.fc_block = vecmath.matmul_rows(rp.pooled.T, g_agg)
            g_pooled = vecmath.matmul_rows(g_agg, self.fc_blocks[r].T)
            n_local = len(self.rank_fields[r])
            g_pooled = g_pooled.reshape(B * n_local, graph.embedding_dim)
            slots = pooled_slots(sl, self._field_pos[r], n_local)
            contrib = np.take(g_pooled, slots, axis=0) * sl.values[:, None]
            latent_contrib = contrib if latent_contrib is None else latent_contrib + contrib

        if latent_contrib is not None:
            g = vecmath.scatter_add_rows(inv, latent_contrib, len(uf))
            grads.latent = (rp.weights["latent"], g)
        return grads

    # -- update -----------------------------------------------------------

    def apply_gradients(self, grads):
        """Shard-local optimizer step; replicated tensors update identically.

        The sparse step starts from the weights the forward pass read, so
        each pass's gradients are applied once, before the next pass.
        """
        self.group.set_phase(PHASE_OPTIMIZER)
        for r, rank_grads in enumerate(grads):
            self._rank_apply(r, rank_grads)

    def _rank_apply(self, r, grads):
        """Rank r's optimizer step on its shards, its fc block and its replica."""
        graph = self.graph
        for part, opt, entry in (
            ("linear", graph.first_order_opt, grads.linear),
            ("latent", graph.embedding_opt, grads.latent),
        ):
            if entry is not None and len(grads.rows):
                w, g = entry
                slots = self.table.slot_values(r, grads.rows, part)
                new_w, new_slots = optim_step(opt, w, slots, g)
                self.table.apply_update(r, grads.rows, part, new_w, new_slots)
        if grads.fc_block is not None and self.fc_blocks[r].size:
            self.fc_blocks[r], self.fc_state[r] = dense_step(
                graph.dense_opt, self.fc_blocks[r], self.fc_state[r], grads.fc_block
            )
        for name, g in grads.dense.items():
            self.dense[r][name], self.dense_state[r][name] = dense_step(
                graph.dense_opt, self.dense[r][name], self.dense_state[r][name], g
            )

    def check_replicas(self):
        """Replicated tensors must stay bitwise identical across workers."""
        for r in range(1, self.n_workers):
            for name, ref in self.dense[0].items():
                if ref.tobytes() != self.dense[r][name].tobytes():
                    raise ConsistencyError(
                        f"replica of {name} on worker {r} diverged from worker 0"
                    )

    def train_step(self, batch):
        """Forward, backward, update, replica check, epoch barrier."""
        fwd = self.forward(batch)
        grads = self.backward(fwd)
        self.apply_gradients(grads)
        self.check_replicas()
        self.group.advance_epoch()
        return fwd

    # -- persistence ------------------------------------------------------

    def save_checkpoint(self, directory):
        """Table parts as shard files, dense replicas (worker 0) as .npy tensors."""
        import os

        os.makedirs(directory, exist_ok=True)
        paths = self.table.save(directory)
        for r in range(self.n_workers):
            if self.fc_blocks[r] is not None:
                p = os.path.join(directory, f"fc-block-{r:04d}.npy")
                with replacing(p) as fh:
                    np.save(fh, self.fc_blocks[r])
                paths.append(p)
        for name, arr in self.dense[0].items():
            p = os.path.join(directory, f"dense-{name.replace('.', '_')}.npy")
            with replacing(p) as fh:
                np.save(fh, arr)
            paths.append(p)
        return sorted(paths)
