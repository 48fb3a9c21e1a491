"""Unsharded reference models used to verify the sharded engine.

Two deliberately different routes:

- ``forward_exact`` evaluates the model unsharded in the engine dtype using
  the same kernels and the same operation order as the engine, so a one-
  worker engine run must match it bit for bit.
- ``forward_wide`` is an independent double-precision evaluation that shares
  no kernels with the engine: the second-order term is the brute-force
  pairwise sum, matrix products go through plain ``np.dot``, and samples are
  processed one at a time. Agreement is only expected within float32
  rounding, which is what the equivalence tolerance checks.
"""

from __future__ import annotations

import numpy as np

from . import vecmath
from .models import (
    BatchSlice,
    cross_combine,
    cross_partial,
    join_fc_blocks,
    linear_partial,
    mlp_forward,
    pooled_fields,
    second_order_combine,
    second_order_partials,
    tower_partial,
)


def _full_slice(batch):
    return BatchSlice(
        batch_size=batch.batch_size,
        sample_ids=batch.sample_ids,
        fields=batch.fields,
        keys=batch.keys,
        values=batch.values,
    )


class MonolithicModel:
    """Single-address-space copy of a substituted model's weights."""

    def __init__(self, graph, linear_map, latent_map, full_fc, dense, dtype):
        self.graph = graph
        self.linear_map = linear_map
        self.latent_map = latent_map
        self.full_fc = full_fc
        self.dense = dense
        self.dtype = np.dtype(dtype)

    @classmethod
    def from_engine(cls, engine):
        """Snapshot an engine's weights into one flat namespace.

        The per-worker row blocks of the first fully-connected layer are
        reassembled into the full matrix in global field order.
        """
        graph = engine.graph
        parts = engine.table.parts
        linear_map = engine.table.weight_map("linear") if "linear" in parts else {}
        latent_map = engine.table.weight_map("latent") if "latent" in parts else {}
        full_fc = None
        if graph.uses_tower:
            blocks = [rank.fc_block for rank in engine.ranks]
            full_fc = join_fc_blocks(blocks, graph.n_fields, graph.embedding_dim)
        dense = {name: arr.copy() for name, arr in engine.ranks[0].dense.items()}
        return cls(graph, linear_map, latent_map, full_fc, dense, engine.dtype)

    # -- exact route (engine kernels, unsharded) ---------------------------

    def _gather_linear(self, fields, keys):
        out = np.zeros((len(fields), 1), dtype=self.dtype)
        for i, (f, k) in enumerate(zip(fields, keys)):
            out[i] = self.linear_map[(int(f), int(k))]
        return out

    def _gather_latent(self, fields, keys, dtype=None):
        d = self.graph.embedding_dim
        out = np.zeros((len(fields), d), dtype=dtype or self.dtype)
        for i, (f, k) in enumerate(zip(fields, keys)):
            out[i] = self.latent_map[(int(f), int(k))]
        return out

    def forward_exact(self, batch):
        """Unsharded forward with the engine's own kernels and op order."""
        graph = self.graph
        sl = _full_slice(batch)
        B = batch.batch_size
        logit = np.zeros(B, dtype=self.dtype)

        if graph.uses_linear:
            logit = logit + self.dense["bias"][0]
            w = self._gather_linear(sl.fields, sl.keys)
            logit = logit + linear_partial(w, sl.values, sl.sample_ids, B)

        latents = None
        if graph.uses_second_order or graph.uses_tower:
            latents = self._gather_latent(sl.fields, sl.keys)

        if graph.uses_second_order:
            m1, m2 = second_order_partials(latents, sl.values, sl.sample_ids, B)
            logit = logit + second_order_combine(m1.copy(), m2.copy())

        if graph.uses_tower:
            pooled = pooled_fields(sl, 1, latents, graph.n_fields, graph.embedding_dim)
            agg = tower_partial(pooled, self.full_fc).copy()
            if graph.uses_mlp:
                deep, _ = mlp_forward(self.dense, graph.hidden_widths, agg)
                logit = logit + deep
            else:
                x0 = agg
                x = x0
                h = graph.first_fc_width
                for k in range(graph.cross_depth):
                    wk = self.dense[f"cross{k}.w"]
                    s = cross_partial(x, wk, 0, h).copy()
                    x = cross_combine(x0, s, self.dense[f"cross{k}.b"], x)
                head = vecmath.matmul_rows(x, self.dense["out.w"])[:, 0]
                logit = logit + (head + self.dense["out.b"][0])

        return vecmath.sigmoid(logit)

    # -- wide route (independent, double precision) ------------------------

    def _sample_features(self, batch, i):
        mask = batch.sample_ids == i
        return batch.fields[mask], batch.keys[mask], batch.values[mask].astype(np.float64)

    def forward_wide(self, batch):
        """Per-sample double-precision evaluation sharing nothing with the engine."""
        graph = self.graph
        B = batch.batch_size
        d = graph.embedding_dim
        dense64 = {name: arr.astype(np.float64) for name, arr in self.dense.items()}
        fc64 = self.full_fc.astype(np.float64) if self.full_fc is not None else None
        logits = np.zeros(B, dtype=np.float64)

        for i in range(B):
            fields, keys, values = self._sample_features(batch, i)
            z = 0.0

            if graph.uses_linear:
                z += float(dense64["bias"][0])
                for f, k, v in zip(fields, keys, values):
                    z += float(self.linear_map[(int(f), int(k))][0]) * float(v)

            if graph.uses_second_order or graph.uses_tower:
                vx = [
                    self.latent_map[(int(f), int(k))].astype(np.float64) * float(v)
                    for f, k, v in zip(fields, keys, values)
                ]

            if graph.uses_second_order:
                # brute-force pairwise interactions
                acc = 0.0
                for a in range(len(vx)):
                    for b in range(a + 1, len(vx)):
                        acc += float(np.dot(vx[a], vx[b]))
                z += acc

            if graph.uses_tower:
                concat = np.zeros(graph.n_fields * d, dtype=np.float64)
                for (f, _, _), e in zip(zip(fields, keys, values), vx):
                    concat[int(f) * d : (int(f) + 1) * d] += e
                x0 = np.dot(concat, fc64)
                if graph.uses_mlp:
                    hcur = np.maximum(x0, 0.0)
                    for li in range(len(graph.hidden_widths)):
                        hcur = np.maximum(
                            np.dot(hcur, dense64[f"mlp{li}.w"]) + dense64[f"mlp{li}.b"], 0.0
                        )
                    z += float(np.dot(hcur, dense64["out.w"][:, 0]) + dense64["out.b"][0])
                else:
                    x = x0.copy()
                    for k in range(graph.cross_depth):
                        s = float(np.dot(x, dense64[f"cross{k}.w"]))
                        x = x0 * s + dense64[f"cross{k}.b"] + x
                    z += float(np.dot(x, dense64["out.w"][:, 0]) + dense64["out.b"][0])

            logits[i] = z

        return vecmath.sigmoid(logits)

    def loss_wide(self, batch, labels=None):
        """Mean log loss of the wide route, for finite-difference checks."""
        labels = batch.labels if labels is None else np.asarray(labels, dtype=np.float64)
        p = self.forward_wide(batch)
        return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))

    def perturbable_parameters(self):
        """(label, array) pairs covering every trainable tensor, for FD probes.

        Arrays are the oracle's own storage; perturbing them in place and
        calling loss_wide gives the finite-difference side of a gradient
        check.
        """
        out = []
        for (f, k) in sorted(self.linear_map):
            out.append((f"linear[{f},{k}]", self.linear_map[(f, k)]))
        for (f, k) in sorted(self.latent_map):
            out.append((f"latent[{f},{k}]", self.latent_map[(f, k)]))
        if self.full_fc is not None:
            out.append(("first_fc", self.full_fc))
        for name in sorted(self.dense):
            out.append((f"dense.{name}", self.dense[name]))
        return out
