"""Sharded dynamic weight table with co-located optimizer state.

Placement follows the field id: field f lives on shard f mod N, so a worker
only ever touches weights for fields it owns. A table row holds all of one
(field, key) pair's state, in named parts (``TablePart``): each part has its
own width, initializer and optimizer slots, as a model's linear weight and
latent vector do. Rows are created lazily on first lookup, and each part's
initial vector is a pure function of (seed, field, key). That makes table
contents independent of insertion order and of the shard count, which is
what lets runs at different N start from identical weights.

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
the weights of every part, and ``slot_values`` and ``apply_update`` address
rows of one part. A row is the pair's position in the shard's row arrays,
assigned in the order the index creates rows: a lookup's new pairs in
ascending ``(h, field)`` order, ``h`` being the index's sort value. Row i of
every part holds the pair the index gave row i. Rows never move and are
never freed, so a row stays valid for the life of the table; only the index
is re-sorted. ``unique_with_inverse`` returns a batch's pairs in that same
order, so a lookup of them searches the index with sorted needles, which
numpy's binary search answers faster than scattered ones, and takes the new
pairs without sorting them again. Rows are read with ``np.take``, the same
copy as fancy indexing at a fraction of its cost for narrow rows.

Text keys (``hash_text``) are keyed BLAKE2b-64 digests, the key being the
hash seed's 8 little-endian bytes. One keyed state per seed is built once and
copied per text; ``text_hasher`` hands out a copy that has also absorbed a
prefix, so a caller hashing many texts under one prefix pays only for each
text's own bytes.

Initializers are batched: one call per lookup and part receives every new
(field, key) pair and returns one row each. The "uniform" initializer,
``seeded_uniform_init``, is a counter-based hash: each value is splitmix64
of the seed, the field, the key and the column, mapped to uniform(-0.01,
0.01) in float64 and cast. Every value depends only on those four, never on
which other pairs share the call, so a row is the same whatever the
insertion order or shard count.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct
from typing import NamedTuple

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
    """One shard's (field, key) -> row index.

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
    pairs the base lacks; it is fastest when the pairs arrive in ascending
    ``(h, field)`` order, as ``unique_with_inverse`` gives them. Rows are
    assigned in ``add`` order, ``0 .. n_rows - 1``, and never move, so
    merging re-sorts the index only and a row found once stays valid. The
    index is the only record of which (field, key) a row holds.
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

        Returns ``(rows, new_fields, new_keys)``: the new pairs in row order,
        which follow ``n_rows`` in ascending ``(h, field)`` order and are not
        indexed until ``add`` receives them. Missing pairs that arrive
        strictly ascending in that order, as the engine's pairs from
        ``unique_with_inverse`` do, are taken as they are; others are
        deduplicated first. A call that finds every pair merges the delta.
        """
        rows = self.find(fields, keys)
        miss = np.flatnonzero(rows < 0)
        f, k = fields[miss], keys[miss]
        if miss.size:
            h = k ^ _mix64(f)
            if np.all((h[1:] > h[:-1]) | ((h[1:] == h[:-1]) & (f[1:] > f[:-1]))):
                rows[miss] = np.arange(self.n_rows, self.n_rows + miss.size)
            else:
                f, k, inverse = unique_with_inverse(f, k)
                rows[miss] = self.n_rows + inverse
        elif len(self._delta[0]):
            self._merge()
        return rows, f, k

    def add(self, fields, keys):
        """Index new, distinct (field, key) pairs as the next rows, in order."""
        start = self.n_rows
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


class TablePart(NamedTuple):
    """One named part of every table row.

    Each row holds ``dim`` weights of the part, set at creation by ``init``
    ("uniform", ``seeded_uniform_init`` of the table seed, or "zeros"), and
    one optimizer slot array per ``slot_widths`` entry, ``{slot: width}``,
    zero at creation. The name names the part's checkpoint files.
    """

    name: str
    dim: int
    init: str = "uniform"
    slot_widths: dict | None = None


class _Shard:
    """One shard's rows: its index, and each part's weights and optimizer slots by row.

    Row i of every part holds the pair the index gave row i, and the index's
    ``n_rows`` counts the rows stored. The arrays keep spare capacity past it.
    """

    def __init__(self, parts, dtype):
        self.index = _RowIndex()
        cap = 64
        self.weights = {p.name: np.zeros((cap, p.dim), dtype=dtype) for p in parts}
        self.slots = {
            p.name: {s: np.zeros((cap, w), dtype=dtype) for s, w in p.slot_widths.items()}
            for p in parts
        }

    def insert(self, fields, keys, weights, slots=None):
        """Store new, distinct pairs as the next rows, ``index.n_rows`` on, and index them.

        ``weights`` is ``{part: weights}`` and ``slots`` is ``{part: {slot:
        values}}``; slots not given are zero. The rows count only once the
        index holds their pairs, so an insert that raises changes nothing.
        """
        start = self.index.n_rows
        end = start + len(fields)
        if end > _ROW_LIMIT:
            raise DimensionError(f"a shard holds at most {_ROW_LIMIT} rows")

        def fit(arr):
            if end <= arr.shape[0]:
                return arr
            out = np.zeros((max(end, 2 * arr.shape[0]),) + arr.shape[1:], dtype=arr.dtype)
            out[:start] = arr[:start]
            return out

        for part, w in weights.items():
            self.weights[part] = fit(self.weights[part])
            self.weights[part][start:end] = w
            part_slots = self.slots[part]
            for name in part_slots:
                part_slots[name] = fit(part_slots[name])
                part_slots[name][start:end] = 0 if slots is None else slots[part][name]
        self.index.add(fields, keys)


def _record_dtype(dim, dtype, slot_widths):
    """A shard file's record: field u32, key u64, d u32, the weights, then the slots in order."""
    fcode = "<f4" if dtype == np.float32 else "<f8"
    return np.dtype(
        [("field", "<u4"), ("key", "<u8"), ("d", "<u4"), ("w", fcode, (dim,))]
        + [(f"s_{name}", fcode, (width,)) for name, width in slot_widths.items()]
    )


class ShardedWeightTable:
    """Dynamic (field, key) -> row table partitioned over N shards.

    Every row holds one vector per part of ``parts``, ``TablePart``s with
    distinct names. ``lookup`` resolves (field, key) pairs to rows, creating
    missing rows with each part's initializer, and verifies that the caller
    owns the fields it touches. ``slot_values`` and ``apply_update`` read and
    replace one part's optimizer slots and weights of rows a lookup returned.
    """

    def __init__(self, n_shards, parts, seed=0, dtype=np.float32):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = int(n_shards)
        self.dtype = np.dtype(dtype)
        if self.dtype not in _DTYPE_CODES:
            raise ValueError(f"unsupported dtype {dtype}")
        parts = [TablePart(p.name, int(p.dim), p.init, dict(p.slot_widths or {})) for p in parts]
        self.parts = {p.name: p for p in parts}
        if not parts or len(self.parts) != len(parts):
            raise ValueError(f"need parts with distinct names, got {[p.name for p in parts]}")
        inits = {"uniform": seeded_uniform_init(seed), "zeros": zeros_init}
        for p in parts:
            if p.dim < 1 or p.init not in inits:
                raise ValueError(
                    f"part {p.name!r} needs a positive dim and init 'uniform' or 'zeros', "
                    f"got {p.dim} and {p.init!r}"
                )
        self._inits = {p.name: inits[p.init] for p in parts}
        self._shards = [_Shard(parts, self.dtype) for _ in range(self.n_shards)]

    def _check_placement(self, shard_idx, fields):
        if not 0 <= shard_idx < self.n_shards:
            raise PlacementError(f"shard {shard_idx} out of range for {self.n_shards} shards")
        if not fields.size:
            return
        outside = (fields < 0) | (fields >= _FIELD_LIMIT)
        if outside.any():
            raise DimensionError(f"field {int(fields[outside][0])} is outside [0, 2**32)")
        if not np.all(fields % self.n_shards == shard_idx):
            bad = fields[fields % self.n_shards != shard_idx][0]
            raise PlacementError(
                f"field {int(bad)} does not belong to shard {shard_idx} of {self.n_shards}"
            )

    def lookup(self, shard_idx, fields, keys):
        """Rows and weights for (fields, keys) on one shard, creating missing rows.

        Returns ``(rows, {part: weights})``: the row of each pair, which
        ``slot_values`` and ``apply_update`` take, and a copy of each part's
        weights. Every part of the new rows is initialized before any of them
        is stored or indexed, so an initializer that raises leaves the table
        unchanged. Stored weights and slots change only through apply_update.
        Fields and keys other than 1-D arrays of one length, or fields
        without an integer dtype, raise ``DimensionError`` before anything
        is read or written.
        """
        fields, keys = np.asarray(fields), np.asarray(keys, dtype=np.uint64)
        if fields.ndim != 1 or fields.shape != keys.shape:
            raise DimensionError(
                f"fields and keys must be 1-D and of one length, got shapes "
                f"{fields.shape} and {keys.shape}"
            )
        if fields.size and fields.dtype.kind not in "iu":
            raise DimensionError(
                f"fields must be integers, got {fields.dtype.name} field {fields[0].item()!r}"
            )
        self._check_placement(shard_idx, fields)
        shard = self._shards[shard_idx]
        fields = fields.astype(np.int64, copy=False)
        rows, new_f, new_k = shard.index.resolve(fields, keys)
        if len(new_f):
            shard.insert(new_f, new_k, {
                name: self._inits[name](new_f, new_k, part.dim, self.dtype)
                for name, part in self.parts.items()
            })
        return rows, {name: np.take(w, rows, axis=0) for name, w in shard.weights.items()}

    def _shard_rows(self, shard_idx, rows, part):
        """The shard and ``rows`` as a 1-D integer array of rows it holds."""
        if not 0 <= shard_idx < self.n_shards:
            raise PlacementError(f"shard {shard_idx} out of range for {self.n_shards} shards")
        shard = self._shards[shard_idx]
        rows = np.asarray(rows)
        if not rows.size:
            return shard, np.empty(0, dtype=np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ConsistencyError(
                f"part {part!r}: rows must be a 1-D integer array, got {rows.dtype} {rows.shape}"
            )
        n_rows = shard.index.n_rows
        bad = np.flatnonzero((rows < 0) | (rows >= n_rows))
        if bad.size:
            raise ConsistencyError(
                f"part {part!r}: row {int(rows[bad[0]])} is outside [0, {n_rows}) "
                f"of shard {shard_idx}"
            )
        return shard, rows

    def slot_values(self, shard_idx, rows, part):
        """One part's optimizer slot arrays of existing rows, as copies."""
        shard, rows = self._shard_rows(shard_idx, rows, part)
        return {name: np.take(arr, rows, axis=0) for name, arr in shard.slots[part].items()}

    def apply_update(self, shard_idx, rows, part, weights, slots):
        """Replace one part's weights and optimizer slots of existing rows.

        Every argument is checked before anything is written: a row outside
        the shard, a weight shape other than ``(len(rows), dim)``, or slots
        other than the part's, by name or by ``(len(rows), width)`` shape,
        raise ``ConsistencyError`` and leave the table unchanged.
        """
        shard, rows = self._shard_rows(shard_idx, rows, part)
        dim = self.parts[part].dim
        weights = np.asarray(weights, dtype=self.dtype)
        if weights.shape != (len(rows), dim):
            raise ConsistencyError(
                f"part {part!r}: update shape {weights.shape} does not match ({len(rows)}, {dim})"
            )
        part_slots = shard.slots[part]
        slots = {name: np.asarray(arr, dtype=self.dtype) for name, arr in slots.items()}
        got = {name: arr.shape for name, arr in slots.items()}
        want = {name: (len(rows), arr.shape[1]) for name, arr in part_slots.items()}
        if got != want:
            raise ConsistencyError(f"part {part!r}: update slots {got} do not match {want}")
        shard.weights[part][rows] = weights
        for name, arr in slots.items():
            part_slots[name][rows] = arr

    def n_entries(self, shard_idx=None):
        if shard_idx is None:
            return sum(s.index.n_rows for s in self._shards)
        return self._shards[shard_idx].index.n_rows

    def weight_map(self, part):
        """Plain dict snapshot {(field, key): weight copy} of one part across all shards."""
        out = {}
        for shard in self._shards:
            fields, keys, rows = shard.index.sorted_entries()
            for f, k, w in zip(fields.tolist(), keys.tolist(), shard.weights[part][rows]):
                out[(f, k)] = w
        return out

    def save(self, directory):
        """One self-describing binary file per part and shard, byte-deterministic.

        Record layout after the header: field u32, key u64, d u32, then d
        weight floats and the slot floats, all little-endian, records sorted
        by (field, key). Each file is written under a temporary name and
        then renamed, so a file at the final name is never half-written.
        """
        os.makedirs(directory, exist_ok=True)
        entries = [shard.index.sorted_entries() for shard in self._shards]
        paths = []
        for part in self.parts.values():
            header = bytearray(CHECKPOINT_MAGIC)
            header += struct.pack("<IIB", CHECKPOINT_VERSION, part.dim, _DTYPE_CODES[self.dtype])
            slot_widths = dict(sorted(part.slot_widths.items()))
            header += struct.pack("<B", len(slot_widths))
            for name, width in slot_widths.items():
                raw = name.encode("ascii")
                header += struct.pack("<B", len(raw)) + raw
                header += struct.pack("<I", width)
            rec_dtype = _record_dtype(part.dim, self.dtype, slot_widths)
            for idx, (shard, (fields, keys, rows)) in enumerate(zip(self._shards, entries)):
                path = os.path.join(directory, f"{part.name}-shard-{idx:04d}.bin")
                recs = np.zeros(len(rows), dtype=rec_dtype)
                recs["field"] = fields
                recs["key"] = keys
                recs["d"] = part.dim
                recs["w"] = shard.weights[part.name][rows]
                for name, arr in shard.slots[part.name].items():
                    recs[f"s_{name}"] = arr[rows]
                with replacing(path) as fh:
                    fh.write(bytes(header) + struct.pack("<Q", len(rows)))
                    fh.write(recs.tobytes())
                paths.append(path)
        return paths

    @classmethod
    def load(cls, directory, parts, n_shards, seed=0, dtype=np.float32):
        """Rebuild a table of these parts from the files written by save.

        Raises ``ValueError`` for fewer than one shard, and ``ValueError``
        naming the file when it is not a shard checkpoint, when its dim,
        dtype or slot widths differ from its part's, when its length disagrees
        with the record count in its header, when a record's field belongs to
        another shard, when a (field, key) pair repeats, or when its (field,
        key) column differs from the first part's file of the same shard.
        """
        table = cls(n_shards, parts, seed=seed, dtype=dtype)
        for idx, shard in enumerate(table._shards):
            first = None
            weights, slots = {}, {}
            for part in table.parts.values():
                path = os.path.join(directory, f"{part.name}-shard-{idx:04d}.bin")
                with open(path, "rb") as fh:
                    raw = fh.read()
                if raw[:8] != CHECKPOINT_MAGIC:
                    raise ValueError(f"{path}: not a shard checkpoint")
                try:
                    dim, file_dtype, slot_widths, n_rows, off = _read_header(raw, path)
                except struct.error as exc:
                    raise ValueError(f"{path}: truncated header") from exc
                if (dim, file_dtype, slot_widths) != (part.dim, table.dtype, part.slot_widths):
                    raise ValueError(
                        f"{path}: dim {dim}, dtype {file_dtype.name}, slots {slot_widths} differ "
                        f"from part {part.name!r}: dim {part.dim}, dtype {table.dtype.name}, "
                        f"slots {part.slot_widths}"
                    )
                rec_dtype = _record_dtype(dim, file_dtype, slot_widths)
                if len(raw) - off != n_rows * rec_dtype.itemsize:
                    raise ValueError(
                        f"{path}: {len(raw) - off} record bytes, but the header gives "
                        f"{n_rows} records of {rec_dtype.itemsize} bytes"
                    )
                recs = np.frombuffer(raw, dtype=rec_dtype, count=n_rows, offset=off)
                fields = recs["field"].astype(np.int64)
                keys = recs["key"].astype(np.uint64)
                if first is None:
                    first = path, fields, keys
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
                elif not (np.array_equal(fields, first[1]) and np.array_equal(keys, first[2])):
                    raise ValueError(f"{path}: (field, key) pairs differ from {first[0]}'s")
                weights[part.name] = recs["w"]
                slots[part.name] = {name: recs[f"s_{name}"] for name in part.slot_widths}
            shard.insert(first[1], first[2], weights, slots)
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
    """Unique (field, key) pairs in ascending ``(h, field)`` order, plus each input's inverse.

    ``h = key ^ mix(field)`` is the row index's sort value (see
    ``_RowIndex``), so the pairs come out in the order the index searches
    and inserts them. Since ``h`` and the field fix the key, one sort by
    ``h`` groups equal pairs; only when a run of equal ``h`` holds distinct
    fields, the rare collision case, are the occurrences sorted again by
    ``(h, field)``.
    """
    fields = np.asarray(fields, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    h = keys ^ _mix64(fields)
    order = np.argsort(h)
    hs, fs = h[order], fields[order]
    same_h = hs[1:] == hs[:-1]
    other_field = fs[1:] != fs[:-1]
    if np.any(same_h & other_field):
        order = np.lexsort((fields, h))
        hs, fs = h[order], fields[order]
        same_h = hs[1:] == hs[:-1]
        other_field = fs[1:] != fs[:-1]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ~same_h | other_field
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return fs[first], keys[order[first]], inverse

