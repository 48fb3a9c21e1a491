"""Sharded forward/backward for sparse recommendation models.

The weights-rich first layer of each model is replaced by shard-local
partial operators whose aggregated results reproduce the unsharded
computation exactly. Everything above the aggregation is replicated per
worker. The collective group is the only inter-worker channel and it is
used in the forward phase only: backward consumes aggregated values every
worker already holds, so its communication is zero by construction. Each
worker is one ``Rank``: its fields and one dense array (replica, fc row block)
with one optimizer state. Its forward program is a generator that yields its
partials at each aggregation; ``WorkerGroup.run`` drives one per rank in lockstep.

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

from dataclasses import dataclass, field

import numpy as np

from . import vecmath
from .artifacts import ConfigDocument, replacing
from .collectives import PHASE_BACKWARD, PHASE_EVAL, PHASE_FORWARD, PHASE_OPTIMIZER
from .errors import ConsistencyError, DimensionError, ProtocolError
from .optim import OptimizerConfig, dense_step, init_dense_state, step as optim_step
from .sparse import ShardedWeightTable, TablePart, unique_with_inverse

MODEL_KINDS = ("lr", "fm", "wdl", "deepfm", "dcn-demo")


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
        self._check_columns()

    def _check_columns(self):
        """Raise ``DimensionError`` unless the feature columns share one length
        and every sample id lies in [0, batch_size)."""
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
        the occurrences, and each rank's slice is a run of that order. The
        slices share this batch's labels and are not checked again: the
        engine checks the whole batch once, at entry.
        """
        owner = self.fields % n_workers
        order = np.argsort(owner, kind="stable")
        bounds = np.cumsum(np.bincount(owner, minlength=n_workers))[:-1]
        columns = zip(*(np.split(a[order], bounds) for a in (
            self.sample_ids, self.fields, self.keys, self.values)))
        slices = []
        for ids, fields, keys, values in columns:
            sl = object.__new__(SparseBatch)
            sl.labels, sl.sample_ids, sl.fields, sl.keys, sl.values = (
                self.labels, ids, fields, keys, values)
            slices.append(sl)
        return slices

    @staticmethod
    def concat(batches):
        """One batch of the samples of ``batches``, in order; a single batch is returned as is.

        Each batch's sample ids shift by the samples before it. The parts are
        not checked again, so check each one first: a sample id out of one
        batch's range could fall inside another batch's rows.
        """
        if len(batches) == 1:
            return batches[0]
        starts = np.cumsum([0] + [b.batch_size for b in batches[:-1]])
        return SparseBatch(
            labels=np.concatenate([b.labels for b in batches]),
            sample_ids=np.concatenate([b.sample_ids + s for b, s in zip(batches, starts)]),
            fields=np.concatenate([b.fields for b in batches]),
            keys=np.concatenate([b.keys for b in batches]),
            values=np.concatenate([b.values for b in batches]),
        )

    @staticmethod
    def from_samples(labels, samples):
        """Build from one (field, key, value) list per sample, or from a ``SampleFeatures``."""
        if not isinstance(samples, SampleFeatures):
            samples = SampleFeatures.from_lists(samples)
        counts = np.diff(samples.offsets)
        if np.size(labels) != len(counts):
            raise DimensionError(f"{np.size(labels)} labels for {len(counts)} samples")
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


@dataclass(frozen=True)
class ModelGraph(ConfigDocument):
    """Architecture and optimizer bindings for one model."""

    CONFIG_VERSION = 1

    kind: str
    n_fields: int
    embedding_dim: int = 8
    first_fc_width: int = 16
    hidden_widths: tuple = (16,)
    cross_depth: int = 2
    seed: int = 0
    first_order_opt: OptimizerConfig = field(default_factory=lambda: OptimizerConfig("ftrl"))
    embedding_opt: OptimizerConfig = field(default_factory=lambda: OptimizerConfig("adam"))
    dense_opt: OptimizerConfig = field(default_factory=lambda: OptimizerConfig("adam"))

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.n_fields < 1:
            raise ValueError("need at least one field")
        if self.embedding_dim < 1 or self.first_fc_width < 1:
            raise ValueError("embedding_dim and first_fc_width must be positive")
        if self.kind == "dcn-demo" and self.cross_depth < 1:
            raise ValueError("dcn-demo needs at least one cross layer")
        bad = [w for w in self.hidden_widths
               if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1]
        if bad:
            raise ValueError(f"hidden_widths: {bad[0]!r} is not an int of at least 1")
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


def pooled_slots(slice_, n_workers, n_local_fields):
    """Each occurrence's (sample, local field) slot, a row of the pooled array's
    ``(batch_size * n_local_fields, dim)`` form. Field f of a rank sits at its
    local position f // n_workers."""
    return slice_.sample_ids * n_local_fields + slice_.fields // n_workers


def pooled_fields(slice_, n_workers, latents, n_local_fields, dim):
    """Sum-pool embeddings into per-field slots and concatenate in field order."""
    slots = pooled_slots(slice_, n_workers, n_local_fields)
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
        grads[f"cross{k}.w"] = vecmath.vecmat(c, xs[k])
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
    """One rank's step: what its forward read, then the gradients its backward made.

    ``slice_`` is the rank's share of the batch. Its (field, key) pairs
    are resolved once per step:
    ``pairs`` is ``unique_with_inverse`` of its slice, ``(fields, keys,
    inverse)``, and one table ``lookup`` gives every unique pair's ``rows``
    and the ``weights`` it read, ``{part: weights}``. The optimizer writes
    back by those rows, which stay valid through the step because table rows
    never move. ``latents`` is the latent vector of each feature occurrence,
    row ``inverse`` of ``weights["latent"]``; the rank gathers rows with
    ``np.take``, the same copy as fancy indexing, only faster. ``cache`` is
    the rank's replicated-stack cache (the mlp's or the cross stack's).
    Backward fills ``grads``, ``{part: grads}`` over the unique pairs,
    ``dense_grads`` and ``fc_grads``, once per pass. Fields a model does not
    use stay None, and so does everything after ``pairs`` on an eval pass,
    which is never backpropagated: it keeps no backward state.
    """

    slice_: SparseBatch
    pairs: tuple
    rows: np.ndarray | None = None
    weights: dict | None = None
    latents: np.ndarray | None = None
    agg_m1: np.ndarray | None = None
    pooled: np.ndarray | None = None
    cache: dict | None = None
    grads: dict | None = None
    dense_grads: dict | None = None
    fc_grads: np.ndarray | None = None


@dataclass
class ForwardPass:
    """The output every rank agrees on, plus each rank's ``RankPass``.

    A pass lives for one epoch: ``engine``, which made it, finishes it in
    ``epoch``, and applying it ends that epoch, so apply steps from the
    weights forward read, which no other update has written. ``phase`` is
    the phase its collectives were charged to; a ``PHASE_EVAL`` pass is
    never backpropagated, so its rank passes hold no backward state, only
    their slices and pairs.
    """

    engine: SubstitutedModel
    probs: np.ndarray
    logit: np.ndarray
    epoch: int
    phase: str
    batch: SparseBatch
    ranks: list


def join_fc_blocks(blocks, n_fields, dim):
    """The first fully-connected matrix (or its gradient) from the ranks' row blocks."""
    h = blocks[0].shape[1]
    full = np.zeros((n_fields, dim, h), dtype=blocks[0].dtype)
    for r, block in enumerate(blocks):
        full[r :: len(blocks)] = block.reshape(-1, dim, h)
    return full.reshape(-1, h)


class Rank:
    """One worker: rank r of N owns fields ``range(r, n_fields, N)``, field f
    at local position f // N, and for dcn-demo a range of the cross vectors.
    Its sparse rows are shard r of the engine's one table. ``flat`` holds its
    ``replica`` of the upper stack (a view per tensor in ``dense``), then its
    row block of the first fc layer, ``fc_block``; one optimizer ``state``
    steps it in place. ``forward`` is its worker program; ``backward`` and
    ``apply`` need only its own pass.
    """

    def __init__(self, r, graph, table, params, full_fc):
        n, dtype = table.n_shards, table.dtype
        self.r = r
        self.graph = graph
        self.table = table
        self.fields = range(r, graph.n_fields, n)
        tensors = list(params.values())
        if full_fc is not None:
            d, h = graph.embedding_dim, graph.first_fc_width
            tensors.append(full_fc.reshape(graph.n_fields, d, h)[r::n].reshape(-1, h))
        self.flat = np.concatenate([t.ravel() for t in tensors])
        ends = np.cumsum([0] + [t.size for t in tensors])
        views = [self.flat[a:b].reshape(t.shape) for a, b, t in zip(ends, ends[1:], tensors)]
        self.dense = dict(zip(params, views))
        self.replica = self.flat[: ends[len(params)]]
        self.fc_block = views[-1] if full_fc is not None else None
        self.state = init_dense_state(graph.dense_opt, self.flat.size, dtype)
        if graph.uses_cross:
            bounds = np.linspace(0, graph.first_fc_width, n + 1).astype(int)
            self.cross_range = (int(bounds[r]), int(bounds[r + 1]))
        self.sparse_opts = {"linear": graph.first_order_opt, "latent": graph.embedding_opt}

    def forward(self, slice_, backprop=True):
        """The rank's forward program; yields ``(op, partial)`` at each aggregation.

        Returns the rank's logit and its ``RankPass``. Only a pass made for
        backprop keeps the state backward reads; any other keeps none.
        """
        graph = self.graph
        dense = self.dense
        B = slice_.batch_size
        uf, uk, inv = unique_with_inverse(slice_.fields, slice_.keys)
        rows, weights = self.table.lookup(self.r, uf, uk)
        latents = np.take(weights["latent"], inv, axis=0) if "latent" in weights else None
        agg_m1 = pooled = cache = None
        ids, values = slice_.sample_ids, slice_.values
        logit = np.zeros(B, dtype=self.table.dtype)

        if graph.uses_linear:
            partial = linear_partial(np.take(weights["linear"], inv, axis=0), values, ids, B)
            logit = logit + dense["bias"][0]
            logit = logit + (yield "linear.partial", partial)

        if graph.uses_second_order:
            m1, m2 = second_order_partials(latents, values, ids, B)
            agg_m1 = yield "fm2.m1", m1
            agg_m2 = yield "fm2.m2", m2
            logit = logit + second_order_combine(agg_m1, agg_m2)

        if graph.uses_tower:
            pooled = pooled_fields(
                slice_, self.table.n_shards, latents, len(self.fields), graph.embedding_dim
            )
            agg = yield "tower.first_fc", tower_partial(pooled, self.fc_block)
            if graph.uses_mlp:
                deep, cache = mlp_forward(dense, graph.hidden_widths, agg)
            else:
                # each cross layer aggregates one scalar per sample, summed over
                # the ranks' disjoint coordinate ranges of the running vector
                lo, hi = self.cross_range
                x, xs, ss = agg, [agg], []
                for k in range(graph.cross_depth):
                    s = yield f"cross.{k}", cross_partial(x, dense[f"cross{k}.w"], lo, hi)
                    x = cross_combine(agg, s, dense[f"cross{k}.b"], x)
                    ss.append(s)
                    xs.append(x)
                deep = vecmath.matmul_rows(x, dense["out.w"])[:, 0] + dense["out.b"][0]
                cache = {"xs": xs, "ss": ss}
            logit = logit + deep
        if not backprop:
            return logit, RankPass(slice_=slice_, pairs=(uf, uk, inv))
        return logit, RankPass(
            slice_=slice_, pairs=(uf, uk, inv), rows=rows, weights=weights, latents=latents,
            agg_m1=agg_m1, pooled=pooled, cache=cache,
        )

    def backward(self, rp, delta):
        """Fill the rank's own ``RankPass`` with its gradients, given the logit
        gradient ``delta`` every rank holds."""
        graph = self.graph
        sl = rp.slice_
        uf, _, inv = rp.pairs
        rp.grads, rp.dense_grads = {}, {}

        if graph.uses_linear:
            rp.dense_grads["bias"] = np.array([np.sum(delta)], dtype=delta.dtype)
            rp.grads["linear"] = vecmath.scatter_add_rows(
                inv, (delta[sl.sample_ids] * sl.values)[:, None], len(uf))

        latent_contrib = None
        if graph.uses_second_order:
            x = sl.values[:, None]
            latent_contrib = delta[sl.sample_ids][:, None] * (
                np.take(rp.agg_m1, sl.sample_ids, axis=0) * x - rp.latents * x * x
            )

        if graph.uses_tower:
            if graph.uses_mlp:
                g_agg, stack_grads = mlp_backward(self.dense, graph.hidden_widths, rp.cache, delta)
            else:
                g_agg, stack_grads = cross_backward(self.dense, graph.cross_depth, rp.cache, delta)
            rp.dense_grads.update(stack_grads)
            rp.fc_grads = vecmath.matmul_rows(rp.pooled.T, g_agg)
            g_pooled = vecmath.matmul_rows(g_agg, self.fc_block.T)
            n_local = len(self.fields)
            g_pooled = g_pooled.reshape(sl.batch_size * n_local, graph.embedding_dim)
            slots = pooled_slots(sl, self.table.n_shards, n_local)
            contrib = np.take(g_pooled, slots, axis=0) * sl.values[:, None]
            latent_contrib = contrib if latent_contrib is None else latent_contrib + contrib

        if latent_contrib is not None:
            rp.grads["latent"] = vecmath.scatter_add_rows(inv, latent_contrib, len(uf))

    def apply(self, rp):
        """The rank's optimizer step on its table rows, its fc block and its replica,
        from the weights its forward read and the gradients its backward made."""
        if len(rp.rows):
            for part, g in rp.grads.items():
                slots = self.table.slot_values(self.r, rp.rows, part)
                new_w, new_slots = optim_step(self.sparse_opts[part], rp.weights[part], slots, g)
                self.table.apply_update(self.r, rp.rows, part, new_w, new_slots)
        grads = [rp.dense_grads[name].ravel() for name in self.dense]
        if self.fc_block is not None:
            grads.append(rp.fc_grads.ravel())
        self.flat[:], self.state = dense_step(
            self.graph.dense_opt, self.flat, self.state, np.concatenate(grads))


class SubstitutedModel:
    """Executes one model graph over a worker group.

    Weights-rich state is sharded by field: one table whose rows hold each
    pair's linear and latent parts, plus each ``Rank``'s row block of the
    first fully-connected layer. Everything above the aggregation points is
    replicated on every rank and must stay bitwise identical across them.
    Forward checks that every rank computed the same logit, and train_step
    compares the replicas every iteration.
    """

    def __init__(self, graph, group, dtype=np.float32):
        self.graph = graph
        self.group = group
        self.dtype = np.dtype(dtype)

        parts = []
        if graph.uses_linear:
            parts.append(TablePart("linear", 1, "zeros", graph.first_order_opt.slot_widths(1)))
        if graph.uses_second_order or graph.uses_tower:
            d = graph.embedding_dim
            parts.append(TablePart("latent", d, "uniform", graph.embedding_opt.slot_widths(d)))
        self.table = ShardedWeightTable(group.n_workers, parts, seed=graph.seed, dtype=self.dtype)
        params, full_fc = build_dense_params(graph, self.dtype)
        self.ranks = [Rank(r, graph, self.table, params, full_fc) for r in range(group.n_workers)]

    def check_batch(self, batch):
        """Reject feature columns of unequal length and sample ids outside
        [0, batch_size) again, which catches a batch changed after it was
        built; then labels other than 0 and 1, fields outside [0, n_fields)
        and non-finite values, naming the sample."""
        batch._check_columns()
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

    def _check_live(self, fwd):
        """Reject a pass that another engine made, or that an earlier epoch made."""
        if fwd.engine is not self:
            raise ProtocolError(f"forward pass of {len(fwd.ranks)} ranks was not made by "
                                f"this engine's {len(self.ranks)} ranks")
        if fwd.epoch != self.group.epoch:
            raise ProtocolError(f"forward pass of epoch {fwd.epoch} is stale: the group "
                                f"is at epoch {self.group.epoch}")

    def forward(self, batch, phase=PHASE_FORWARD):
        """Every rank's forward program, run in lockstep; one collective per aggregation.

        Its collectives are charged to ``phase``: held-out evaluation passes
        ``PHASE_EVAL``, so the training forward phase holds training traffic
        only, and its rank passes keep no backward state. Any phase but
        ``PHASE_FORWARD`` and ``PHASE_EVAL`` raises ``ValueError`` before any
        collective. Every rank computes the logit with its own replica of the
        upper stack, so a replica that diverged shows up here as a different
        logit.
        """
        if phase not in (PHASE_FORWARD, PHASE_EVAL):
            raise ValueError(
                f"forward runs in phase {PHASE_FORWARD!r} or {PHASE_EVAL!r}, got {phase!r}")
        self.check_batch(batch)
        group = self.group
        group.set_phase(phase)
        slices = batch.shard_slices(len(self.ranks))
        backprop = phase == PHASE_FORWARD
        outs = group.run(rank.forward(sl, backprop) for rank, sl in zip(self.ranks, slices))
        logit = outs[0][0]
        for r, (rank_logit, _) in enumerate(outs[1:], start=1):
            if rank_logit.tobytes() != logit.tobytes():
                raise ConsistencyError(f"logit on worker {r} diverged from worker 0")
        return ForwardPass(
            probs=vecmath.sigmoid(logit), logit=logit, epoch=group.epoch, phase=phase,
            batch=batch, ranks=[rank_pass for _, rank_pass in outs], engine=self,
        )

    def backward(self, fwd):
        """Fill every rank's pass with its gradients and return ``fwd``, which
        ``apply_gradients`` takes. Performs no collective calls.

        Aggregation distributes the incoming gradient unchanged to every
        local partial, and each worker already holds all aggregated values,
        so everything below decomposes into shard-local work. A training
        pass this engine made in the current epoch is backpropagated once;
        any other backward, an eval pass's included, is rejected before
        anything is written.
        """
        self._check_live(fwd)
        if fwd.phase != PHASE_FORWARD:
            raise ProtocolError(f"forward pass of phase {fwd.phase!r} is not backpropagated; "
                                f"only a {PHASE_FORWARD!r} pass is")
        if any(rp.grads is not None for rp in fwd.ranks):
            raise ProtocolError("forward pass was backpropagated before; each is "
                                "backpropagated once")
        self.group.set_phase(PHASE_BACKWARD)
        delta = ((fwd.probs - fwd.batch.labels) / fwd.batch.batch_size).astype(self.dtype)
        for rank, rp in zip(self.ranks, fwd.ranks):
            rank.backward(rp, delta)
        return fwd

    def apply_gradients(self, fwd):
        """Shard-local optimizer step; replicated tensors update identically.

        The sparse step starts from the weights the forward pass read, so it
        ends the pass's epoch before any rank writes: every other pass of that
        epoch, training or eval, goes stale, and an apply that fails partway is
        not repeated. A pass never backpropagated is rejected before any write.
        """
        self._check_live(fwd)
        if any(rp.grads is None for rp in fwd.ranks):
            raise ProtocolError("forward pass was never backpropagated")
        self.group.advance_epoch()
        self.group.set_phase(PHASE_OPTIMIZER)
        for rank, rp in zip(self.ranks, fwd.ranks):
            rank.apply(rp)

    def check_replicas(self):
        """Replicated tensors must stay bitwise identical across workers."""
        first = self.ranks[0]
        for rank in self.ranks[1:]:
            if rank.replica.tobytes() != first.replica.tobytes():
                name = next(name for name, arr in first.dense.items()
                            if arr.tobytes() != rank.dense[name].tobytes())
                raise ConsistencyError(
                    f"replica of {name} on worker {rank.r} diverged from worker 0")

    def train_step(self, batch):
        """Forward, backward, update (which ends the epoch), replica check."""
        fwd = self.forward(batch)
        self.apply_gradients(self.backward(fwd))
        self.check_replicas()
        return fwd

    def save_checkpoint(self, path):
        """Write one ``.npz`` at ``path``, replaced whole or not at all.

        Its arrays are the table's ``records()``, ``{part}-shard-{i:04d}``;
        each rank's fc row block, ``fc-block-{r:04d}``; and worker 0's
        replica tensors, ``dense-{name}`` with dots as underscores.
        """
        arrays = self.table.records()
        arrays.update((f"fc-block-{rank.r:04d}", rank.fc_block)
                      for rank in self.ranks if rank.fc_block is not None)
        arrays.update((f"dense-{name.replace('.', '_')}", arr)
                      for name, arr in self.ranks[0].dense.items())
        with replacing(path) as fh:
            np.savez(fh, **arrays)
