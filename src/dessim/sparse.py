"""Sharded dynamic weight table with co-located optimizer state.

Placement follows the field id: field f lives on shard f mod N, so a worker
only ever touches weights for fields it owns. Entries are created lazily on
first lookup, and the initial vector is a pure function of (seed, field,
key). That makes table contents independent of insertion order and of the
shard count, which is what lets runs at different N start from identical
weights.

Each shard finds its rows through one index over all of its fields: the
(field, key) pairs sorted by ``key ^ mix(field)``, where ``mix`` is
splitmix64's finalizer, a bijection on 64 bits. Together with the stored
field that value fixes the key, so a match is exact; the rare distinct pairs
that share a value are told apart by their fields (see ``_RowIndex``). Field
ids must lie in ``[0, 2**32)``, the range of the index and checkpoint
columns. The index is a large sorted base plus a small sorted delta that
takes new pairs, merged into the base once it outgrows a fixed share of it,
so an insert copies the delta rather than the whole index: the two-level
form of the log-structured merge tree (O'Neil et al., Acta Informatica 1996).

Pairs are resolved to rows once: ``lookup`` returns each pair's row with
its weights, and ``slot_values`` and ``apply_update`` address rows. A row is
the pair's position in the shard's row arrays, assigned in the order the
index creates rows. Rows never move and are never freed, so a row stays
valid for the life of the table; only the index is re-sorted. ``rows_of``
resolves pairs that must already exist.

Tables keyed by the same pairs share one index per shard (``index=``), so
the shard holds each pair's 16 index bytes once, and a step's pairs are
found, and new ones inserted, once for all such tables. One table's
``lookup`` resolves the pairs; each other table takes the rows it returned
(``lookup(..., rows=rows)``), initializes the rows it has not stored yet and
gathers the rest. Each table still stores its own weights and slots and
writes its own checkpoint files.

Text keys (``hash_text``) are keyed BLAKE2b-64 digests, the key being the
hash seed's 8 little-endian bytes. One keyed state per seed is built once and
copied per text; ``text_hasher`` hands out a copy that has also absorbed a
prefix, so a caller hashing many texts under one prefix pays only for each
text's own bytes.

Initializers are batched: one call per lookup receives every new (field,
key) pair and returns one row each. The default, ``seeded_uniform_init``,
is a counter-based hash: each value is splitmix64 of the seed, the field,
the key and the column, mapped to uniform(-scale, scale) in float64 and
cast. Every value depends only on those four, never on which other pairs
share the call, so a row is the same whatever the insertion order or
shard count.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct

import numpy as np

from .artifacts import replacing
from .errors import ConsistencyError, DimensionError, PlacementError

CHECKPOINT_MAGIC = b"SHRDTBL1"
CHECKPOINT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def shard_of(field_id, n_shards):
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return int(field_id) % int(n_shards)


@functools.lru_cache(maxsize=64)
def _keyed_blake2b(seed):
    if not 0 <= seed < 2**64:
        raise ValueError(f"hash seed {seed} outside [0, 2**64)")
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))


def text_hasher(prefix, seed=0):
    """A fresh keyed hash state that has absorbed ``prefix``.

    Finishing a copy of it on more text gives that text's key with the
    prefix: ``h = state.copy(); h.update(text.encode("utf-8"))`` then
    ``int.from_bytes(h.digest(), "little") == hash_text(prefix + text,
    seed)``. BLAKE2b streams, so a prebuilt state costs each text only its
    own bytes, not the key block or the prefix again. Raises ``ValueError``
    naming the seed when it is outside ``[0, 2**64)``.
    """
    state = _keyed_blake2b(int(seed)).copy()
    state.update(prefix.encode("utf-8"))
    return state


def hash_text(text, seed=0):
    """Seeded 64-bit hash of a string, stable across runs and platforms.

    The keyed BLAKE2b-64 digest of the UTF-8 text, with the seed's 8
    little-endian bytes as the key, read as a little-endian integer.
    """
    return int.from_bytes(text_hasher(text, seed).digest(), "little")


def hash_feature(field_id, token, seed=0):
    """Key for a raw categorical token, hashed together with its field id."""
    return hash_text(f"{field_id}:{token}", seed)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's increment, 2**64 over the golden ratio
_M64 = (1 << 64) - 1


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _mix64(z):
    """splitmix64's finalizer (Steele et al., OOPSLA'14) of each value, a bijection on uint64."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _splitmix64(z):
    """splitmix64's output for each uint64 state z: the finalizer of z + golden."""
    return _mix64(z + _GOLDEN)


def seeded_uniform_init(seed, scale=0.01):
    """Batched initializer: uniform(-scale, scale) per (field, key), order-free.

    Each row is a counter-based hash. The seed's 64-bit words, low first, are
    folded into one state by ``s = splitmix64(s ^ word)`` from ``s = 0``. A
    pair's stream starts at ``b = splitmix64(splitmix64(s ^ field) ^ key)``
    and column j draws ``x = splitmix64(b + j * golden)``. The top p bits of
    x, p being the dtype's mantissa precision (24 for float32, 53 for
    float64), give ``u = (x >> (64 - p)) * 2**-p``; the row holds ``-scale +
    2 * scale * u``, computed in float64 and cast to the dtype. With p bits
    the cast cannot round up to ``scale`` or past it, so every value lies in
    ``[-scale, scale)`` in the dtype. A negative seed raises ``ValueError``
    here, a negative field when it reaches the initializer.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    state = _splitmix64(np.array([seed & _M64], dtype=np.uint64))
    while seed >> 64:
        seed >>= 64
        state = _splitmix64(state ^ np.uint64(seed & _M64))
    low = -float(scale)
    span = float(scale) - low

    def init(fields, keys, dim, dtype):
        fields = np.asarray(fields, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if len(fields) and fields.min() < 0:
            raise ValueError(f"fields must be nonnegative, got {int(fields.min())}")
        base = _splitmix64(_splitmix64(state ^ fields.astype(np.uint64)) ^ keys)
        x = _splitmix64(base[:, None] + _GOLDEN * np.arange(dim, dtype=np.uint64))
        bits = np.finfo(dtype).nmant + 1
        u = (x >> np.uint64(64 - bits)).astype(np.float64) * 2.0**-bits
        return (low + span * u).astype(dtype)

    return init


def zeros_init(fields, keys, dim, dtype):
    return np.zeros((len(fields), dim), dtype=dtype)


# The shard index stores fields as uint32 and rows as int32. Every shard
# starts from the same read-only empty columns; inserts return new arrays.
_FIELD_LIMIT = 1 << 32
_ROW_LIMIT = 1 << 31
_EMPTY_INDEX = _read_only(
    np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int32)
)
# The delta merges into the base once it holds more than this share of the
# base's entries. A smaller share copies the delta less per insert but the
# base more often; 1/8 was about optimal at ~100k entries per shard.
_MAX_DELTA_SHARE = 1 / 8


def _probe(index, h, fields):
    """Row of each (h, field) in one sorted ``(hash, field, row)`` index, -1 if absent.

    One ``searchsorted`` on the hash column, then a walk over each run of
    equal ``h`` until the field matches or the run ends.
    """
    hashes, index_fields, index_rows = index
    rows = np.full(len(h), -1, dtype=np.int64)
    n = len(hashes)
    if not n:
        return rows
    pos = np.searchsorted(hashes, h)
    idx = np.arange(len(h))
    while True:
        at = np.minimum(pos, n - 1)
        same = (pos < n) & (hashes[at] == h)
        hit = same & (index_fields[at] == fields)
        rows[idx[hit]] = index_rows[at[hit]]
        walk = same & ~hit
        if not walk.any():
            return rows
        idx, fields, h, pos = idx[walk], fields[walk], h[walk], pos[walk] + 1


def _inserted(index, new):
    """``index`` with the sorted entries ``new`` inserted: one ``np.insert`` per column."""
    at = np.searchsorted(index[0], new[0])
    return tuple(np.insert(col, at, vals) for col, vals in zip(index, new))


class _RowIndex:
    """One shard's (field, key) -> row index, shared by the tables built on it.

    The index holds every (field, key) pair of the shard as ``(hash, field,
    row)`` columns, uint64, uint32 and int32 (16 bytes per entry), sorted by
    ``h = key ^ mix(field)`` with ``mix`` splitmix64's finalizer. A hit needs
    an equal ``h`` and an equal field, which is exact: ``key = h ^
    mix(field)``, so the two fix the key. Distinct pairs share an ``h`` only
    with distinct fields, which is astronomically rare but kept correct:
    ``_probe`` walks each run of equal ``h`` until the field matches or the
    run ends, a loop that in practice runs once.

    Each pair sits in exactly one of two sorted indexes, ``_base`` and
    ``_delta``. ``add`` inserts new pairs into the delta, which costs a copy
    of the delta, not of the whole index. Once the delta holds more than
    ``_MAX_DELTA_SHARE`` of the base's entries, one ``np.insert`` per column
    merges it into the base and the delta starts empty again. A ``resolve``
    that inserts nothing merges a non-empty delta too, so an index that has
    stopped growing answers each find with one probe, and one that alternates
    inserts with quiet lookups copies itself no more often than a single
    sorted index would. ``find`` probes the base, then the delta for the
    pairs the base lacks. Rows are assigned in ``add`` order, ``0 ..
    n_rows - 1``, and never move, so merging re-sorts the index only and a
    row found once stays valid. The index is the only record of which
    (field, key) a row holds.
    """

    def __init__(self):
        self._base = self._delta = _EMPTY_INDEX
        self.n_rows = 0

    def find(self, fields, keys):
        """Row of each (field, key) pair, -1 where the pair has no entry."""
        h = keys ^ _mix64(fields)
        rows = _probe(self._base, h, fields)
        miss = np.flatnonzero(rows < 0)
        if miss.size:
            rows[miss] = _probe(self._delta, h[miss], fields[miss])
        return rows

    def resolve(self, fields, keys):
        """Row of each pair, giving each distinct missing pair the next free row.

        The new rows follow ``n_rows`` in ascending (field, key) order of
        their pairs and are not indexed until ``add`` receives those pairs.
        Missing pairs that arrive strictly ascending, as the engine's
        deduplicated pairs do, are taken as they are; others are
        deduplicated first. A call that finds every pair merges the delta.
        """
        rows = self.find(fields, keys)
        miss = np.flatnonzero(rows < 0)
        if miss.size:
            f, k = fields[miss], keys[miss]
            if np.all((f[1:] > f[:-1]) | ((f[1:] == f[:-1]) & (k[1:] > k[:-1]))):
                rows[miss] = np.arange(self.n_rows, self.n_rows + miss.size)
            else:
                rows[miss] = self.n_rows + unique_with_inverse(f, k)[2]
        elif len(self._delta[0]):
            self._merge()
        return rows

    def add(self, fields, keys, name):
        """Index new, distinct (field, key) pairs as the next rows, in order."""
        start = self.n_rows
        if start + len(fields) > _ROW_LIMIT:
            raise DimensionError(f"table {name!r}: a shard holds at most {_ROW_LIMIT} rows")
        h = keys ^ _mix64(fields)
        order = np.argsort(h, kind="stable")
        self._delta = _inserted(self._delta, (
            h[order], fields[order].astype(np.uint32), (start + order).astype(np.int32)
        ))
        self.n_rows += len(fields)
        if len(self._delta[0]) > _MAX_DELTA_SHARE * len(self._base[0]):
            self._merge()

    def _merge(self):
        self._base, self._delta = _inserted(self._base, self._delta), _EMPTY_INDEX

    def sorted_entries(self):
        """(fields, keys, rows) of every entry, in ascending (field, key) order."""
        h, fields, rows = (np.concatenate(cols) for cols in zip(self._base, self._delta))
        keys = h ^ _mix64(fields)
        order = np.lexsort((keys, fields))
        return fields[order].astype(np.int64), keys[order], rows[order].astype(np.int64)


class _Shard:
    """One table's rows on one shard: weights and optimizer slots, by row.

    Rows come from the shard's ``_RowIndex``, which the table owns or shares
    with the other tables built on it; array row i holds the pair the index
    gave row i. The table stores rows ``0 .. n_rows - 1`` and stores a row
    the first time a lookup returns it, so every table on one index must be
    handed the rows the index creates in creation order. The engine does so
    by passing each step's rows from one table's lookup to the next.
    """

    def __init__(self, name, dim, slot_widths, dtype, index):
        self.name = name
        self.dim = dim
        self.slot_widths = dict(slot_widths)
        self.dtype = np.dtype(dtype)
        self.index = index
        self.n_rows = 0
        cap = 64
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

        self.weights = grown(self.weights)
        self.slots = {name: grown(arr) for name, arr in self.slots.items()}

    def store(self, weights, slots=None):
        """Store the next rows, ``n_rows`` on, with these weights and slots."""
        start = self.n_rows
        end = start + len(weights)
        self._grow(end)
        self.weights[start:end] = weights
        for name, arr in (slots or {}).items():
            self.slots[name][start:end] = arr
        self.n_rows = end

    def sorted_entries(self):
        """(fields, keys, rows) of every stored row, in ascending (field, key) order."""
        fields, keys, rows = self.index.sorted_entries()
        mine = rows < self.n_rows
        return fields[mine], keys[mine], rows[mine]

    def ensure_rows(self, fields, keys, init, rows=None):
        """Rows for (fields, keys), storing with ``init`` each row not stored yet.

        Without ``rows`` the index resolves the pairs and indexes the new
        ones; ``rows`` are the pairs' rows on a shared index. Each row past
        ``n_rows`` is initialized from its pair: ``init`` is called once with
        those pairs in row order and must return one row per pair. Its result
        is checked before anything is committed, so an ``init`` that raises
        or returns the wrong shape leaves the shard unchanged, and so does a
        lookup whose new rows skip a row this table has not stored.
        """
        index = self.index
        if rows is None:
            rows = index.resolve(fields, keys)
        start = self.n_rows
        fresh = np.flatnonzero(rows >= start)
        if not fresh.size:
            return rows
        at = np.full(int(rows[fresh].max()) + 1 - start, -1, dtype=np.intp)
        at[rows[fresh] - start] = fresh
        if at.min() < 0:
            raise ConsistencyError(
                f"table {self.name!r}: row {start + int(np.argmax(at < 0))} of the shard index "
                "was never looked up in this table"
            )
        new_f, new_k = fields[at], keys[at]
        weights = np.asarray(init(new_f, new_k, self.dim, self.dtype))
        want = (len(at), self.dim)
        real = np.issubdtype(weights.dtype, np.integer) or np.issubdtype(
            weights.dtype, np.floating)
        if weights.shape != want or not real:
            raise DimensionError(
                f"table {self.name!r}: initializer returned {weights.dtype} "
                f"{weights.shape} for {want} new rows"
            )
        indexed = index.n_rows - start
        if indexed < len(at):
            index.add(new_f[indexed:], new_k[indexed:], self.name)
        self.store(weights)
        return rows

    def rows_of(self, fields, keys):
        fields = np.asarray(fields, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        rows = self.index.find(fields, keys)
        missing = np.flatnonzero((rows < 0) | (rows >= self.n_rows))
        if missing.size:
            i = missing[0]
            raise ConsistencyError(
                f"update addressed entry (field={int(fields[i])}, key={int(keys[i])}) that was "
                "never created by a lookup"
            )
        return rows


class ShardedWeightTable:
    """Dynamic (field, key) -> vector table partitioned over N shards.

    ``lookup`` resolves (field, key) pairs to rows, inserting missing
    entries with the table initializer, and verifies that the caller owns
    the fields it touches. ``slot_values`` and ``apply_update`` read and
    replace the optimizer slots and weights of rows a lookup returned.

    Tables keyed by the same pairs can share one row index per shard:
    ``index`` is a table with the same shard count whose index this table
    uses instead of its own. A lookup in one of them resolves the pairs and
    indexes the new ones; passing its rows to ``lookup(..., rows=rows)`` in
    another stores the rows that one has not stored yet, without searching.

    ``init`` is "uniform" (``seeded_uniform_init``), "zeros", or a callable
    ``init(fields, keys, dim, dtype)``. A callable receives arrays: the new
    pairs of one lookup, fields as int64 and keys as uint64, each pair once.
    It returns an integer or floating array of shape ``(len(fields), dim)``;
    any other result raises ``DimensionError`` and inserts nothing.
    """

    def __init__(self, n_shards, dim, seed=0, init="uniform", init_scale=0.01,
                 slot_widths=None, dtype=np.float32, name="table", index=None):
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
        if index is not None and index.n_shards != self.n_shards:
            raise ValueError(
                f"table {name!r} has {self.n_shards} shards, but the index of table "
                f"{index.name!r} has {index.n_shards}"
            )
        self._shards = [
            _Shard(self.name, self.dim, self.slot_widths, self.dtype,
                   _RowIndex() if index is None else index._shards[i].index)
            for i in range(self.n_shards)
        ]

    def _check_placement(self, shard_idx, fields):
        if not 0 <= shard_idx < self.n_shards:
            raise PlacementError(f"shard {shard_idx} out of range for {self.n_shards} shards")
        fields = np.asarray(fields)
        if not fields.size:
            return
        outside = (fields < 0) | (fields >= _FIELD_LIMIT)
        if outside.any():
            raise DimensionError(
                f"table {self.name!r}: field {int(fields[outside][0])} is outside [0, 2**32)"
            )
        if not np.all(fields % self.n_shards == shard_idx):
            bad = fields[fields % self.n_shards != shard_idx][0]
            raise PlacementError(
                f"field {int(bad)} does not belong to shard {shard_idx} of {self.n_shards}"
            )

    def lookup(self, shard_idx, fields, keys, rows=None):
        """Rows and weights for (fields, keys) on one shard, inserting missing entries.

        Returns ``(rows, weights)``: the row of each pair, which
        ``slot_values`` and ``apply_update`` take, and a copy of its weights.
        Stored weights and slots change only through apply_update.

        ``rows``, if given, are the pairs' rows from a lookup in a table on
        the same index; the index is then not searched. A row the index has
        not created, or ``rows`` that are not a 1-D integer array as long as
        ``fields``, raise ``ConsistencyError`` and leave the table unchanged.
        """
        self._check_placement(shard_idx, fields)
        shard = self._shards[shard_idx]
        fields = np.asarray(fields, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if rows is not None:
            rows = self._checked_rows(shard_idx, rows, shard.index.n_rows)
            if len(rows) != len(fields):
                raise ConsistencyError(
                    f"table {self.name!r}: {len(rows)} rows for {len(fields)} pairs"
                )
        rows = shard.ensure_rows(fields, keys, self._init, rows)
        return rows, shard.weights[rows]

    def rows_of(self, shard_idx, fields, keys):
        """Rows of existing (fields, keys) on one shard.

        Raises ``ConsistencyError`` naming the first pair that no lookup has
        created.
        """
        self._check_placement(shard_idx, fields)
        return self._shards[shard_idx].rows_of(fields, keys)

    def _shard_rows(self, shard_idx, rows):
        """The shard and ``rows`` as a 1-D integer array of rows it holds."""
        if not 0 <= shard_idx < self.n_shards:
            raise PlacementError(f"shard {shard_idx} out of range for {self.n_shards} shards")
        shard = self._shards[shard_idx]
        return shard, self._checked_rows(shard_idx, rows, shard.n_rows)

    def _checked_rows(self, shard_idx, rows, n_rows):
        """``rows`` as a 1-D integer array of rows in ``[0, n_rows)`` of the shard."""
        rows = np.asarray(rows)
        if not rows.size:
            return np.empty(0, dtype=np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ConsistencyError(
                f"table {self.name!r}: rows must be a 1-D integer array, got {rows.dtype} "
                f"{rows.shape}"
            )
        bad = np.flatnonzero((rows < 0) | (rows >= n_rows))
        if bad.size:
            raise ConsistencyError(
                f"table {self.name!r}: row {int(rows[bad[0]])} is outside [0, {n_rows}) "
                f"of shard {shard_idx}"
            )
        return rows

    def slot_values(self, shard_idx, rows):
        """Optimizer slot arrays of existing rows, as copies."""
        shard, rows = self._shard_rows(shard_idx, rows)
        return {name: arr[rows] for name, arr in shard.slots.items()}

    def apply_update(self, shard_idx, rows, weights, slots):
        """Replace the weights and optimizer slots of existing rows.

        Every argument is checked before anything is written: a row outside
        the shard, a weight shape other than ``(len(rows), dim)`` or slot
        names other than the table's raise ``ConsistencyError`` and leave the
        table unchanged.
        """
        shard, rows = self._shard_rows(shard_idx, rows)
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

    def n_entries(self, shard_idx=None):
        if shard_idx is None:
            return sum(s.n_rows for s in self._shards)
        return self._shards[shard_idx].n_rows

    def entries(self, shard_idx):
        """(field, key, weight, slots) for one shard, sorted by field then key."""
        shard = self._shards[shard_idx]
        fields, keys, rows = shard.sorted_entries()
        for f, k, row in zip(fields.tolist(), keys.tolist(), rows.tolist()):
            yield (
                f,
                k,
                shard.weights[row].copy(),
                {name: arr[row].copy() for name, arr in shard.slots.items()},
            )

    def weight_map(self):
        """Plain dict snapshot {(field, key): weight copy} across all shards."""
        out = {}
        for shard in self._shards:
            fields, keys, rows = shard.sorted_entries()
            for f, k, w in zip(fields.tolist(), keys.tolist(), shard.weights[rows]):
                out[(f, k)] = w
        return out

    def save(self, directory):
        """One self-describing binary file per shard, byte-deterministic.

        Record layout after the header: field u32, key u64, d u32, then d
        weight floats and the slot floats, all little-endian, records sorted
        by (field, key). Each file is written under a temporary name and
        then renamed, so a file at the final name is never half-written.
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
            fields, keys, rows = shard.sorted_entries()
            recs = np.zeros(len(rows), dtype=rec_dtype)
            recs["field"] = fields
            recs["key"] = keys
            recs["d"] = self.dim
            recs["w"] = shard.weights[rows]
            for name in slot_names:
                recs[f"s_{name}"] = shard.slots[name][rows]
            with replacing(path) as fh:
                fh.write(bytes(header))
                fh.write(recs.tobytes())
            paths.append(path)
        return paths

    @classmethod
    def load(cls, directory, name, n_shards, seed=0, init="uniform", init_scale=0.01):
        """Rebuild a table from the files written by save.

        Raises ``ValueError`` for fewer than one shard, and ``ValueError``
        naming the file when it is not a shard checkpoint, when its dim,
        dtype or slot widths differ from shard 0's, when its length disagrees
        with the record count in its header, when a record's field belongs to
        another shard, or when a (field, key) pair repeats.
        """
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        table = None
        for idx in range(n_shards):
            path = os.path.join(directory, f"{name}-shard-{idx:04d}.bin")
            with open(path, "rb") as fh:
                raw = fh.read()
            if raw[:8] != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a shard checkpoint")
            try:
                dim, dtype, slot_widths, n_rows, off = _read_header(raw, path)
            except struct.error as exc:
                raise ValueError(f"{path}: truncated header") from exc
            if table is None:
                table = cls(n_shards, dim, seed=seed, init=init, init_scale=init_scale,
                            slot_widths=slot_widths, dtype=dtype, name=name)
            elif (dim, dtype, slot_widths) != (table.dim, table.dtype, table.slot_widths):
                raise ValueError(
                    f"{path}: dim {dim}, dtype {dtype.name}, slots {slot_widths} differ from "
                    f"shard 0's dim {table.dim}, dtype {table.dtype.name}, slots "
                    f"{table.slot_widths}"
                )
            fcode = "<f4" if dtype == np.float32 else "<f8"
            rec_dtype = [("field", "<u4"), ("key", "<u8"), ("d", "<u4"), ("w", fcode, (dim,))]
            for nm in slot_widths:
                rec_dtype.append((f"s_{nm}", fcode, (slot_widths[nm],)))
            rec_dtype = np.dtype(rec_dtype)
            if len(raw) - off != n_rows * rec_dtype.itemsize:
                raise ValueError(
                    f"{path}: {len(raw) - off} record bytes, but the header gives "
                    f"{n_rows} records of {rec_dtype.itemsize} bytes"
                )
            recs = np.frombuffer(raw, dtype=rec_dtype, count=n_rows, offset=off)
            fields = recs["field"].astype(np.int64)
            keys = recs["key"].astype(np.uint64)
            foreign = np.flatnonzero(fields % n_shards != idx)
            if foreign.size:
                raise ValueError(
                    f"{path}: field {int(fields[foreign[0]])} does not belong to shard "
                    f"{idx} of {n_shards}"
                )
            uf, uk, inverse = unique_with_inverse(fields, keys)
            if len(uf) != n_rows:
                i = int(np.argmax(np.bincount(inverse) > 1))
                raise ValueError(f"{path}: (field={int(uf[i])}, key={int(uk[i])}) repeats")
            shard = table._shards[idx]
            shard.index.add(fields, keys, name)
            shard.store(recs["w"], {nm: recs[f"s_{nm}"] for nm in slot_widths})
        return table


def _read_header(raw, path):
    """(dim, dtype, slot widths, record count, record offset) of a shard file."""
    off = 8
    version, dim, code = struct.unpack_from("<IIB", raw, off)
    off += 9
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    (n_slots,) = struct.unpack_from("<B", raw, off)
    off += 1
    slot_widths = {}
    for _ in range(n_slots):
        (ln,) = struct.unpack_from("<B", raw, off)
        off += 1
        nm = raw[off : off + ln].decode("ascii")
        off += ln
        (w,) = struct.unpack_from("<I", raw, off)
        off += 4
        slot_widths[nm] = w
    (n_rows,) = struct.unpack_from("<Q", raw, off)
    off += 8
    return dim, _CODE_DTYPES[code], slot_widths, n_rows, off


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

