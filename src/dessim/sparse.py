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
Each insert and merge sorts the index's hash column once, a stable merge
of two sorted runs, and gathers all three columns through that one order
(``_inserted``).

Pairs are resolved to rows once: ``lookup`` computes each pair's ``h``
once, finds, assigns and indexes rows with it, and returns each pair's row
with the weights of every part; ``slot_values`` and ``apply_update`` address
rows of one part. A row is the pair's position in the shard's row arrays,
assigned in the order the index creates rows: a lookup's new pairs in
ascending ``(h, field)`` order, ``h`` being the index's sort value. Row i of
every part holds the pair the index gave row i. Rows never move and are
never freed, so a row stays valid for the life of the table; only the index
is re-sorted. ``unique_with_inverse`` returns a batch's pairs in that same
order, so a lookup of them searches the index with sorted needles, which
numpy's binary search answers faster than scattered ones, and takes the new
pairs without sorting them again. Rows are read with ``np.take``, the same
copy as fancy indexing at a fraction of its cost for narrow rows, and
written through a row-sized ``np.void`` view, the same bytes as fancy
assignment at about half its cost for rows of 8 float32.

Initializers are batched: one call per lookup and part receives every new
(field, key) pair and returns one row each. The "uniform" initializer,
``seeded_uniform_init``, is a counter-based hash: each value is splitmix64
of the seed, the field, the key and the column, mapped to uniform(-0.01,
0.01) in float64 and cast. Every value depends only on those four, never on
which other pairs share the call, so a row is the same whatever the
insertion order or shard count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionError, PlacementError

_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

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
    """``index`` with the entries ``new`` inserted, each before any old entry of equal hash.

    One stable argsort of the new hashes, then the old, orders them all, so
    equal hashes keep the new entries first, in their given order. Each
    column is gathered through that one order. Sorted entries make two
    sorted runs, which the sort merges in one pass.
    """
    order = np.argsort(np.concatenate((new[0], index[0])), kind="stable")
    return tuple(np.concatenate((vals, col))[order] for col, vals in zip(index, new))


def _write_rows(arr, rows, values):
    """``arr[rows] = values`` for a table array, each row copied as one ``np.void`` of its bytes.

    ``values`` is cast to ``arr``'s dtype and made C-contiguous first, as
    ``arr`` always is, so the copy moves the same bytes as the assignment.
    """
    row = np.dtype((np.void, arr.shape[1] * arr.itemsize))
    values = np.ascontiguousarray(values, dtype=arr.dtype)
    arr.view(row).reshape(-1)[rows] = values.view(row).reshape(-1)


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
    ``_MAX_DELTA_SHARE`` of the base's entries, ``_inserted`` merges it into
    the base, one sort for all three columns, and the delta starts empty
    again. A ``resolve`` that inserts nothing merges a non-empty delta too,
    so an index that has stopped growing answers each find with one probe,
    and one that alternates inserts with quiet lookups copies itself no more
    often than a single sorted index would. ``find`` probes the base, then
    the delta for the pairs the base lacks; it is fastest when the pairs
    arrive in ascending ``(h, field)`` order, as ``unique_with_inverse``
    gives them. ``find``, ``resolve`` and ``add`` take each pair's ``h``
    from the caller, which computes it once per lookup. Rows are assigned in
    ``add`` order, ``0 .. n_rows - 1``, and never move, so merging re-sorts
    the index only and a row found once stays valid. The index is the only
    record of which (field, key) a row holds.
    """

    def __init__(self):
        self._base = self._delta = _EMPTY_INDEX
        self.n_rows = 0

    def find(self, h, fields):
        """Row of each (h, field) pair, -1 where the pair has no entry."""
        rows = _probe(self._base, h, fields)
        miss = np.flatnonzero(rows < 0)
        if miss.size:
            rows[miss] = _probe(self._delta, h[miss], fields[miss])
        return rows

    def resolve(self, h, fields, keys):
        """Row of each pair, giving each distinct missing pair the next free row.

        Returns ``(rows, new)``: ``new`` holds, in row order, the position
        of one occurrence of each new pair. New pairs follow ``n_rows`` in
        ascending ``(h, field)`` order and are not indexed until ``add``
        receives them. Missing pairs that arrive strictly ascending in that
        order, as the engine's pairs from ``unique_with_inverse`` do, are
        taken as they are; others are deduplicated first. A call that finds
        every pair merges the delta.
        """
        rows = self.find(h, fields)
        new = np.flatnonzero(rows < 0)
        if new.size:
            hm, f = h[new], fields[new]
            if np.all((hm[1:] > hm[:-1]) | ((hm[1:] == hm[:-1]) & (f[1:] > f[:-1]))):
                rows[new] = np.arange(self.n_rows, self.n_rows + new.size)
            else:
                _, _, inverse = unique_with_inverse(f, keys[new])
                rows[new] = self.n_rows + inverse
                first = np.empty(inverse.max() + 1, dtype=np.intp)
                first[inverse] = new
                new = first
        elif len(self._delta[0]):
            self._merge()
        return rows, new

    def add(self, h, fields):
        """Index new, distinct (h, field) pairs as the next rows, in order."""
        end = self.n_rows + len(fields)
        self._delta = _inserted(self._delta, (
            h, fields.astype(np.uint32), np.arange(self.n_rows, end, dtype=np.int32)
        ))
        self.n_rows = end
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
    zero at creation. The name names the part's checkpoint arrays.
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

    def insert(self, h, fields, weights, slots=None):
        """Store new, distinct (h, field) pairs as the next rows, ``index.n_rows`` on; index them.

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
        self.index.add(h, fields)


def _record_dtype(part, dtype):
    """A part's shard-file record: field u32, key u64, the weights, then the slots by name."""
    fcode = np.dtype(dtype).newbyteorder("<")
    return np.dtype(
        [("field", "<u4"), ("key", "<u8"), ("w", fcode, (part.dim,))]
        + [(f"s_{name}", fcode, (width,)) for name, width in sorted(part.slot_widths.items())]
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
        if self.dtype not in _DTYPES:
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
        h = keys ^ _mix64(fields)
        rows, new = shard.index.resolve(h, fields, keys)
        if len(new):
            new_f, new_k = fields[new], keys[new]
            shard.insert(h[new], new_f, {
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
        _write_rows(shard.weights[part], rows, weights)
        for name, arr in slots.items():
            _write_rows(part_slots[name], rows, arr)

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

    def records(self):
        """``{f"{part}-shard-{i:04d}": records}`` for every part and shard, byte-deterministic.

        Each value is a 1-D structured array of ``_record_dtype`` records,
        one per pair, sorted by (field, key).
        """
        entries = [shard.index.sorted_entries() for shard in self._shards]
        out = {}
        for part in self.parts.values():
            rec_dtype = _record_dtype(part, self.dtype)
            for idx, (shard, (fields, keys, rows)) in enumerate(zip(self._shards, entries)):
                recs = np.zeros(len(rows), dtype=rec_dtype)
                recs["field"] = fields
                recs["key"] = keys
                recs["w"] = shard.weights[part.name][rows]
                for name, arr in shard.slots[part.name].items():
                    recs[f"s_{name}"] = arr[rows]
                out[f"{part.name}-shard-{idx:04d}"] = recs
        return out

    @classmethod
    def load(cls, records, parts, n_shards, seed=0, dtype=np.float32):
        """Rebuild a table of these parts from a mapping of the arrays ``records`` returns.

        ``records`` is any mapping by name, a dict or an open ``NpzFile``.
        Raises ``ValueError`` for fewer than one shard, and ``ValueError``
        naming the array when it is missing, when it cannot be read (an
        ``NpzFile`` member that is not a ``.npy`` readable without pickle),
        when its dtype or shape is not its part's record array, when a
        record's field belongs to another shard, when a (field, key) pair
        repeats, or when its (field, key) column differs from the first
        part's array of the same shard. A first-part array of shard
        ``n_shards`` means the table was saved at a larger shard count, whose
        extra rows would be lost: ``ValueError`` naming that array.
        """
        table = cls(n_shards, parts, seed=seed, dtype=dtype)
        extra = f"{next(iter(table.parts))}-shard-{n_shards:04d}"
        if extra in records:
            raise ValueError(f"{extra}: the table was saved at more than {n_shards} shards")
        for idx, shard in enumerate(table._shards):
            first = None
            weights, slots = {}, {}
            for part in table.parts.values():
                member = f"{part.name}-shard-{idx:04d}"
                if member not in records:
                    raise ValueError(f"{member}: missing")
                try:
                    recs = records[member]
                except ValueError as exc:  # an npz member that is not a .npy without pickle
                    raise ValueError(f"{member}: {exc}") from None
                want = _record_dtype(part, table.dtype)
                if recs.dtype != want or recs.ndim != 1:
                    raise ValueError(
                        f"{member}: records {recs.dtype} of shape {recs.shape} differ from "
                        f"part {part.name!r}: 1-D {want}"
                    )
                fields = recs["field"].astype(np.int64)
                keys = recs["key"].astype(np.uint64)
                if first is None:
                    first = member, fields, keys
                    foreign = np.flatnonzero(fields % n_shards != idx)
                    if foreign.size:
                        raise ValueError(
                            f"{member}: field {int(fields[foreign[0]])} does not belong to shard "
                            f"{idx} of {n_shards}"
                        )
                    uf, uk, inverse = unique_with_inverse(fields, keys)
                    if len(uf) != len(recs):
                        i = int(np.argmax(np.bincount(inverse) > 1))
                        raise ValueError(
                            f"{member}: (field={int(uf[i])}, key={int(uk[i])}) repeats")
                elif not (np.array_equal(fields, first[1]) and np.array_equal(keys, first[2])):
                    raise ValueError(f"{member}: (field, key) pairs differ from {first[0]}'s")
                weights[part.name] = recs["w"]
                slots[part.name] = {name: recs[f"s_{name}"] for name in part.slot_widths}
            fields, keys = first[1:]
            shard.insert(keys ^ _mix64(fields), fields, weights, slots)
        return table


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

