"""Sharded dynamic weight table with co-located optimizer state.

Placement follows the field id: field f lives on shard f mod N, so a worker
only ever touches weights for fields it owns. Entries are created lazily on
first lookup, and the initial vector is a pure function of (seed, field, key).
That makes table contents independent of insertion order and of the shard
count, which is what lets runs at different N start from identical weights.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .errors import ConsistencyError, PlacementError

CHECKPOINT_MAGIC = b"SHRDTBL1"
CHECKPOINT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def shard_of(field_id, n_shards):
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return int(field_id) % int(n_shards)


def hash_text(text, seed=0):
    """Seeded 64-bit hash of a string, stable across runs and platforms."""
    key = int(seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def hash_feature(field_id, token, seed=0):
    """Key for a raw categorical token, hashed together with its field id."""
    return hash_text(f"{field_id}:{token}", seed)


def seeded_uniform_init(seed, scale=0.01):
    """Initializer drawing uniform(-scale, scale) per (field, key), order-free."""

    def init(field_id, key, dim, dtype):
        ss = np.random.SeedSequence((int(seed), int(field_id), int(key)))
        rng = np.random.default_rng(ss)
        return rng.uniform(-scale, scale, dim).astype(dtype)

    return init


def zeros_init(field_id, key, dim, dtype):
    return np.zeros(dim, dtype=dtype)


class _Shard:
    """One shard: growable row arrays plus a sorted per-field key index.

    ``_index`` maps a field id to (keys, rows): that field's keys in ascending
    uint64 order and the row each one occupies, so a batch of lookups is one
    ``searchsorted`` per field and a batch of inserts is one merge per field.
    """

    def __init__(self, dim, slot_widths, dtype):
        self.dim = dim
        self.slot_widths = dict(slot_widths)
        self.dtype = np.dtype(dtype)
        self._index = {}
        self.n_rows = 0
        cap = 64
        self.fields = np.zeros(cap, dtype=np.int64)
        self.keys = np.zeros(cap, dtype=np.uint64)
        self.weights = np.zeros((cap, dim), dtype=self.dtype)
        self.slots = {name: np.zeros((cap, w), dtype=self.dtype) for name, w in slot_widths.items()}

    def _grow(self, need):
        cap = self.weights.shape[0]
        if need <= cap:
            return
        new_cap = max(need, cap * 2)

        def grown(arr):
            out = np.zeros((new_cap,) + arr.shape[1:], dtype=arr.dtype)
            out[: self.n_rows] = arr[: self.n_rows]
            return out

        self.fields = grown(self.fields)
        self.keys = grown(self.keys)
        self.weights = grown(self.weights)
        self.slots = {name: grown(arr) for name, arr in self.slots.items()}

    def find(self, fields, keys):
        """Row of each (field, key) pair, -1 where the pair has no entry."""
        rows = np.full(len(fields), -1, dtype=np.int64)
        for f in np.unique(fields):
            entry = self._index.get(int(f))
            if entry is None:
                continue
            index_keys, index_rows = entry
            sel = np.flatnonzero(fields == f)
            want = keys[sel]
            pos = np.minimum(np.searchsorted(index_keys, want), len(index_keys) - 1)
            hit = index_keys[pos] == want
            rows[sel[hit]] = index_rows[pos[hit]]
        return rows

    def append(self, fields, keys, weights, slots=None):
        """Add entries for new, distinct (field, key) pairs; returns their rows."""
        start = self.n_rows
        rows = np.arange(start, start + len(fields), dtype=np.int64)
        self._grow(start + len(fields))
        self.fields[rows] = fields
        self.keys[rows] = keys
        self.weights[rows] = weights
        for name, arr in (slots or {}).items():
            self.slots[name][rows] = arr
        self.n_rows += len(fields)
        for f in np.unique(fields):
            sel = fields == f
            new_keys = keys[sel]
            new_rows = rows[sel]
            order = np.argsort(new_keys, kind="stable")
            new_keys, new_rows = new_keys[order], new_rows[order]
            entry = self._index.get(int(f))
            if entry is not None:
                pos = np.searchsorted(entry[0], new_keys)
                new_keys = np.insert(entry[0], pos, new_keys)
                new_rows = np.insert(entry[1], pos, new_rows)
            self._index[int(f)] = (new_keys, new_rows)
        return rows

    def ensure_rows(self, fields, keys, init):
        """Rows for (fields, keys), inserting missing pairs with ``init``.

        New weights are all computed before any is committed, so an ``init``
        that raises leaves the shard unchanged.
        """
        fields = np.asarray(fields, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        rows = self.find(fields, keys)
        miss = rows < 0
        if miss.any():
            new_f, new_k, inverse = unique_with_inverse(fields[miss], keys[miss])
            weights = np.empty((len(new_f), self.dim), dtype=self.dtype)
            for i, (f, k) in enumerate(zip(new_f.tolist(), new_k.tolist())):
                weights[i] = init(f, k, self.dim, self.dtype)
            rows[miss] = self.append(new_f, new_k, weights)[inverse]
        return rows

    def rows_of(self, fields, keys):
        fields = np.asarray(fields, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        rows = self.find(fields, keys)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            i = missing[0]
            raise ConsistencyError(
                f"update addressed entry (field={int(fields[i])}, key={int(keys[i])}) that was "
                "never created by a lookup"
            )
        return rows


class ShardedWeightTable:
    """Dynamic (field, key) -> vector table partitioned over N shards.

    ``lookup`` inserts missing entries with the table initializer;
    ``apply_update`` replaces weights and optimizer slots for existing
    entries. Both verify that the caller owns the fields it touches.
    """

    def __init__(self, n_shards, dim, seed=0, init="uniform", init_scale=0.01,
                 slot_widths=None, dtype=np.float32, name="table"):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if dim < 1:
            raise ValueError(f"need a positive dim, got {dim}")
        self.n_shards = int(n_shards)
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        if self.dtype not in _DTYPE_CODES:
            raise ValueError(f"unsupported dtype {dtype}")
        self.name = name
        self.slot_widths = dict(slot_widths or {})
        if init == "uniform":
            self._init = seeded_uniform_init(seed, init_scale)
        elif init == "zeros":
            self._init = zeros_init
        elif callable(init):
            self._init = init
        else:
            raise ValueError(f"unknown initializer {init!r}")
        self._shards = [
            _Shard(self.dim, self.slot_widths, self.dtype) for _ in range(self.n_shards)
        ]

    def _check_placement(self, shard_idx, fields):
        if not 0 <= shard_idx < self.n_shards:
            raise PlacementError(f"shard {shard_idx} out of range for {self.n_shards} shards")
        fields = np.asarray(fields)
        if fields.size and not np.all(fields % self.n_shards == shard_idx):
            bad = fields[fields % self.n_shards != shard_idx][0]
            raise PlacementError(
                f"field {int(bad)} does not belong to shard {shard_idx} of {self.n_shards}"
            )

    def lookup(self, shard_idx, fields, keys):
        """Weights for (fields, keys) on one shard, inserting missing entries.

        Returns a copy; table state only changes through apply_update.
        """
        self._check_placement(shard_idx, fields)
        shard = self._shards[shard_idx]
        rows = shard.ensure_rows(fields, keys, self._init)
        return shard.weights[rows]

    def slot_values(self, shard_idx, fields, keys):
        """Optimizer slot arrays for existing entries, as copies."""
        self._check_placement(shard_idx, fields)
        shard = self._shards[shard_idx]
        rows = shard.rows_of(fields, keys)
        return {name: arr[rows] for name, arr in shard.slots.items()}

    def apply_update(self, shard_idx, fields, keys, weights, slots):
        self._check_placement(shard_idx, fields)
        shard = self._shards[shard_idx]
        rows = shard.rows_of(fields, keys)
        weights = np.asarray(weights, dtype=self.dtype)
        if weights.shape != (len(rows), self.dim):
            raise ConsistencyError(
                f"update shape {weights.shape} does not match ({len(rows)}, {self.dim})"
            )
        if set(slots) != set(shard.slot_widths):
            raise ConsistencyError(
                f"update slots {sorted(slots)} do not match table slots "
                f"{sorted(shard.slot_widths)}"
            )
        shard.weights[rows] = weights
        for name, arr in slots.items():
            shard.slots[name][rows] = np.asarray(arr, dtype=self.dtype)
        return rows

    def n_entries(self, shard_idx=None):
        if shard_idx is None:
            return sum(s.n_rows for s in self._shards)
        return self._shards[shard_idx].n_rows

    def entries(self, shard_idx):
        """(field, key, weight, slots) for one shard, sorted by field then key."""
        shard = self._shards[shard_idx]
        n = shard.n_rows
        order = np.lexsort((shard.keys[:n], shard.fields[:n]))
        for row in order:
            yield (
                int(shard.fields[row]),
                int(shard.keys[row]),
                shard.weights[row].copy(),
                {name: arr[row].copy() for name, arr in shard.slots.items()},
            )

    def weight_map(self):
        """Plain dict snapshot {(field, key): weight copy} across all shards."""
        out = {}
        for shard in self._shards:
            n = shard.n_rows
            for f, k, w in zip(shard.fields[:n].tolist(), shard.keys[:n].tolist(),
                               shard.weights[:n]):
                out[(f, k)] = w.copy()
        return out

    def save(self, directory):
        """One self-describing binary file per shard, byte-deterministic.

        Record layout after the header: field u32, key u64, d u32, then d
        weight floats and the slot floats, all little-endian, records sorted
        by (field, key).
        """
        os.makedirs(directory, exist_ok=True)
        slot_names = sorted(self.slot_widths)
        paths = []
        for idx, shard in enumerate(self._shards):
            path = os.path.join(directory, f"{self.name}-shard-{idx:04d}.bin")
            header = bytearray()
            header += CHECKPOINT_MAGIC
            header += struct.pack("<IIB", CHECKPOINT_VERSION, self.dim, _DTYPE_CODES[self.dtype])
            header += struct.pack("<B", len(slot_names))
            for name in slot_names:
                raw = name.encode("ascii")
                header += struct.pack("<B", len(raw)) + raw
                header += struct.pack("<I", self.slot_widths[name])
            header += struct.pack("<Q", shard.n_rows)

            fcode = "<f4" if self.dtype == np.float32 else "<f8"
            rec_dtype = [("field", "<u4"), ("key", "<u8"), ("d", "<u4"), ("w", fcode, (self.dim,))]
            for name in slot_names:
                rec_dtype.append((f"s_{name}", fcode, (self.slot_widths[name],)))
            n = shard.n_rows
            order = np.lexsort((shard.keys[:n], shard.fields[:n]))
            recs = np.zeros(n, dtype=rec_dtype)
            recs["field"] = shard.fields[:n][order]
            recs["key"] = shard.keys[:n][order]
            recs["d"] = self.dim
            recs["w"] = shard.weights[:n][order]
            for name in slot_names:
                recs[f"s_{name}"] = shard.slots[name][:n][order]
            with open(path, "wb") as fh:
                fh.write(bytes(header))
                fh.write(recs.tobytes())
            paths.append(path)
        return paths

    @classmethod
    def load(cls, directory, name, n_shards, seed=0, init="uniform", init_scale=0.01):
        """Rebuild a table from the files written by save."""
        table = None
        for idx in range(n_shards):
            path = os.path.join(directory, f"{name}-shard-{idx:04d}.bin")
            with open(path, "rb") as fh:
                raw = fh.read()
            if raw[:8] != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a shard checkpoint")
            off = 8
            version, dim, code = struct.unpack_from("<IIB", raw, off)
            off += 9
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            (n_slots,) = struct.unpack_from("<B", raw, off)
            off += 1
            slot_widths = {}
            slot_names = []
            for _ in range(n_slots):
                (ln,) = struct.unpack_from("<B", raw, off)
                off += 1
                nm = raw[off : off + ln].decode("ascii")
                off += ln
                (w,) = struct.unpack_from("<I", raw, off)
                off += 4
                slot_widths[nm] = w
                slot_names.append(nm)
            (n_rows,) = struct.unpack_from("<Q", raw, off)
            off += 8
            dtype = _CODE_DTYPES[code]
            if table is None:
                table = cls(n_shards, dim, seed=seed, init=init, init_scale=init_scale,
                            slot_widths=slot_widths, dtype=dtype, name=name)
            fcode = "<f4" if dtype == np.float32 else "<f8"
            rec_dtype = [("field", "<u4"), ("key", "<u8"), ("d", "<u4"), ("w", fcode, (dim,))]
            for nm in slot_names:
                rec_dtype.append((f"s_{nm}", fcode, (slot_widths[nm],)))
            recs = np.frombuffer(raw[off:], dtype=rec_dtype, count=n_rows)
            table._shards[idx].append(
                recs["field"].astype(np.int64), recs["key"].astype(np.uint64), recs["w"],
                {nm: recs[f"s_{nm}"] for nm in slot_names},
            )
        return table


def unique_with_inverse(fields, keys):
    """Sorted unique (field, key) pairs plus the inverse index for each input."""
    fields = np.asarray(fields, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    order = np.lexsort((keys, fields))
    f = fields[order]
    k = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (f[1:] != f[:-1]) | (k[1:] != k[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return f[first], k[first], inverse


def unique_keys(batch, shard_idx, n_shards):
    """Deduplicated, sorted (field, key) pairs of a batch that live on one shard."""
    mask = batch.fields % n_shards == shard_idx
    fields, keys, _ = unique_with_inverse(batch.fields[mask], batch.keys[mask])
    return fields, keys
