"""Sharded table behavior: placement, lazy init, updates, persistence."""

import re

import numpy as np
import pytest

from dessim import sparse
from dessim.errors import ConsistencyError, DimensionError, PlacementError
from dessim.models import SparseBatch
from dessim.sparse import (
    ShardedWeightTable,
    TablePart,
    seeded_uniform_init,
    unique_with_inverse,
)


class TestInitializers:
    def test_seeded_uniform_reproducible(self):
        init = seeded_uniform_init(42, scale=0.01)
        a = init([3], [17], 8, np.float32)
        b = init([3], [17], 8, np.float32)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= 0.01)

    def test_seeded_uniform_distinct_per_key(self):
        init = seeded_uniform_init(42)
        assert not np.array_equal(init([3], [17], 8, np.float32), init([3], [18], 8, np.float32))
        assert not np.array_equal(init([3], [17], 8, np.float32), init([4], [17], 8, np.float32))


M64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix_finalizer(z):
    """splitmix64's finalizer on a Python int: the field mix the index keys on."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def splitmix64(z):
    """splitmix64's output for state z, on Python ints."""
    return splitmix_finalizer((z + GOLDEN) & M64)


def finalizer_inverse(z):
    """The x with splitmix_finalizer(x) == z: each xorshift and product undone in turn."""
    z = z ^ (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & M64
    z = z ^ (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & M64
    return z ^ (z >> 30) ^ (z >> 60)


def hash_order(pairs):
    """(field, key) pairs in the row index's order: by ``h = key ^ mix(field)``, then field."""
    return sorted(pairs, key=lambda fk: (fk[1] ^ splitmix_finalizer(fk[0] & M64), fk[0]))


def seed_state(seed):
    """The seed's 64-bit words, low first, folded by s = splitmix64(s ^ word)."""
    state = splitmix64(seed & M64)
    while seed >> 64:
        seed >>= 64
        state = splitmix64(state ^ (seed & M64))
    return state


def per_key_uniform(seed, field_id, key, dim, dtype, scale):
    """One key's draws in plain Python ints and floats: the values seeded_uniform_init keeps."""
    base = splitmix64(splitmix64(seed_state(seed) ^ field_id) ^ key)
    bits = np.finfo(dtype).nmant + 1
    low = -float(scale)
    span = float(scale) - low
    draws = []
    for j in range(dim):
        x = splitmix64((base + j * GOLDEN) & M64)
        draws.append(low + span * ((x >> (64 - bits)) * 2.0**-bits))
    return np.array(draws, dtype=np.float64).astype(dtype)


EDGE_KEYS = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)


class TestBatchedUniformInit:
    """seeded_uniform_init against the per-key pure-Python route, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_bitwise_against_per_key_route(self, seed):
        rng = np.random.default_rng(seed % 1000)
        for n in (0, 1, 1000):
            keys = np.concatenate([
                EDGE_KEYS,
                rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            ])[:n]
            # fields past 32 bits, as the hash takes all 64 bits of a field
            fields = np.concatenate([[0, 7, 2**32, 2**40 + 3], rng.integers(0, 40, n)])[:n]
            for dim in (1, 3, 8):
                for dtype in (np.float32, np.float64):
                    for scale in (0.01, 1.0):
                        got = seeded_uniform_init(seed, scale)(fields, keys, dim, dtype)
                        assert got.shape == (n, dim) and got.dtype == dtype
                        want = np.array(
                            [per_key_uniform(seed, int(f), int(k), dim, dtype, scale)
                             for f, k in zip(fields, keys)],
                            dtype=dtype,
                        ).reshape(n, dim)
                        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (
                            n, dim, dtype, scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_stay_in_half_open_range(self, dtype):
        """Every draw lies in [-scale, scale) in the dtype, the two extreme draws included.

        Two keys are solved, through splitmix64's inverse, so that column 0
        hashes to 0 and to 2**64 - 1, the lowest and the highest draw.
        """
        seed, field = 3, 5
        prefix = splitmix64(seed_state(seed) ^ field)
        extremes = []
        for x in (0, M64):
            base = (finalizer_inverse(x) - GOLDEN) & M64
            extremes.append(((finalizer_inverse(base) - GOLDEN) & M64) ^ prefix)
        rng = np.random.default_rng(8)
        keys = np.concatenate([
            np.array(extremes, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64, endpoint=True),
        ])
        fields = np.full(len(keys), field)
        top = 1.0 - 2.0 ** -(np.finfo(dtype).nmant + 1)
        scales = np.concatenate([[1e-30, 0.01, 0.1, 1.0, 3.0, 1e30],
                                 10.0 ** rng.uniform(-6, 6, 50)])
        for scale in scales.tolist():
            got = seeded_uniform_init(seed, scale)(fields, keys, 4, dtype)
            limit = dtype(scale)
            assert np.all(got >= -limit) and np.all(got < limit), scale
            assert got[0, 0] == dtype(-scale)
            assert got[1, 0] == dtype(-scale + 2 * scale * top)
            assert got[1, 0] == got.max()

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError):
            table_of(2, 4, seed=-1)
        with pytest.raises(ValueError):
            seeded_uniform_init(-3)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            seeded_uniform_init(0)([-1], [4], 2, np.float32)

    def test_lookup_independent_of_insertion_order_and_shard_count(self):
        rng = np.random.default_rng(31)
        fields = rng.integers(0, 12, 400)
        keys = np.concatenate([EDGE_KEYS, rng.integers(0, 2**64 - 1, 395, dtype=np.uint64)])
        for n_shards in (1, 3, 4):
            table = table_of(n_shards, 3, seed=11)
            order = rng.permutation(len(keys))
            for chunk in np.array_split(order, 9):
                for shard in range(n_shards):
                    mine = chunk[fields[chunk] % n_shards == shard]
                    table.lookup(shard, fields[mine], keys[mine])
            for shard in range(n_shards):
                mine = np.flatnonzero(fields % n_shards == shard)
                got = table.lookup(shard, fields[mine], keys[mine])[1]["table"]
                for row, i in zip(got, mine):
                    want = per_key_uniform(11, int(fields[i]), int(keys[i]), 3, np.float32, 0.01)
                    assert np.array_equal(row, want)


def table_of(n_shards, dim, seed=0, init="uniform", slot_widths=None, dtype=np.float32,
             name="table"):
    """A table of one part, which names its files as the persistence tests expect."""
    return ShardedWeightTable(n_shards, [TablePart(name, dim, init, slot_widths)], seed=seed,
                              dtype=dtype)


def make_table(n_shards=2, dim=4, init="uniform"):
    return table_of(n_shards, dim, seed=5, init=init, slot_widths={"acc": dim})


def saved(table):
    """Each of the table's record arrays by name, as its dtype, shape and bytes."""
    return {name: (recs.dtype, recs.shape, recs.tobytes())
            for name, recs in table.records().items()}


def weights(table, shard, fields, keys):
    """The one part's weights of a lookup."""
    return table.lookup(shard, fields, keys)[1]["table"]


class TestLookup:
    def test_zeros_init(self):
        table = make_table(init="zeros")
        w = weights(table, 0, [0, 2], [10, 11])
        assert np.array_equal(w, np.zeros((2, 4), dtype=np.float32))

    def test_existing_key_returns_stored_value(self):
        table = make_table(init="zeros")
        rows, _ = table.lookup(0, [0], [10])
        new = np.full((1, 4), 0.25, dtype=np.float32)
        table.apply_update(0, rows, "table", new, {"acc": np.zeros((1, 4), np.float32)})
        assert np.array_equal(weights(table, 0, [0], [10]), new)

    def test_fresh_uniform_reproducible_across_tables(self):
        a = weights(make_table(), 1, [1, 3], [7, 9])
        b = weights(make_table(), 1, [1, 3], [7, 9])
        assert np.array_equal(a, b)

    def test_insertion_order_independent(self):
        t1 = make_table()
        t2 = make_table()
        t1.lookup(0, [0], [1])
        t1.lookup(0, [2], [5])
        # reversed discovery order in the second table
        t2.lookup(0, [2], [5])
        t2.lookup(0, [0], [1])
        assert np.array_equal(weights(t1, 0, [0, 2], [1, 5]), weights(t2, 0, [0, 2], [1, 5]))

    def test_lookup_returns_copy(self):
        table = make_table()
        w = weights(table, 0, [0], [1])
        w[:] = 99.0
        assert not np.array_equal(weights(table, 0, [0], [1]), w)

    def test_duplicate_keys_share_one_entry(self):
        table = make_table()
        w = weights(table, 0, [0, 0], [3, 3])
        assert np.array_equal(w[0], w[1])
        assert table.n_entries(0) == 1

    def test_foreign_field_rejected(self):
        table = make_table(n_shards=4)
        with pytest.raises(PlacementError):
            table.lookup(1, [2], [0])  # field 2 lives on shard 2

    def test_shard_index_out_of_range(self):
        table = make_table(n_shards=2)
        with pytest.raises(PlacementError):
            table.lookup(2, [0], [0])

    @pytest.mark.parametrize("fields, keys, match", [
        ([0, 2, 4], [7], r"shapes \(3,\) and \(1,\)"),
        ([0, 2], [7, 8, 9], r"shapes \(2,\) and \(3,\)"),
        ([[0, 2]], [[7, 8]], r"shapes \(1, 2\) and \(1, 2\)"),
        ([0], [[7]], r"shapes \(1,\) and \(1, 1\)"),
        ([0.5], [1], "float64 field 0.5"),
        (np.array([0.0, 2.0]), [1, 2], "float64 field 0.0"),
    ])
    def test_malformed_pairs_rejected_and_table_unchanged(self, fields, keys, match):
        table = make_table(n_shards=2)
        table.lookup(0, [0, 2], [7, 8])
        before = saved(table)
        with pytest.raises(DimensionError, match=match):
            table.lookup(0, fields, keys)
        assert table.n_entries() == 2
        assert saved(table) == before

    def test_empty_lookup_of_any_dtype(self):
        table = make_table(n_shards=2)
        rows, got = table.lookup(1, [], [])
        assert rows.shape == (0,) and got["table"].shape == (0, 4)
        assert table.n_entries() == 0

    @pytest.mark.parametrize("parts, match", [
        ([], "distinct names"),
        ([TablePart("a", 1), TablePart("a", 2)], "distinct names"),
        ([TablePart("a", 0)], "'a' needs a positive dim"),
        ([TablePart("a", 2, "normal")], "'a' needs .*'normal'"),
    ])
    def test_bad_parts_rejected(self, parts, match):
        with pytest.raises(ValueError, match=match):
            ShardedWeightTable(2, parts)


def find(table, shard, fields, keys):
    """Rows of the pairs in one shard's index, -1 where absent; inserts nothing."""
    fields = np.asarray(fields, dtype=np.int64)
    h = np.asarray(keys, dtype=np.uint64) ^ sparse._mix64(fields)
    return table._shards[shard].index.find(h, fields)


class TestIndex:
    """The sorted per-field index against a plain dict shadow."""

    def test_lookup_and_rows_against_dict_shadow(self):
        rng = np.random.default_rng(21)
        init = seeded_uniform_init(5)
        table = table_of(3, 2, seed=5, slot_widths={"acc": 2})
        shadow = {}
        # keys span the whole uint64 range, and every key recurs in many fields
        pool = np.concatenate([
            rng.integers(0, 2**63, 40, dtype=np.uint64) * np.uint64(2),
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        ])
        for _ in range(300):
            shard = int(rng.integers(0, 3))
            n = int(rng.integers(0, 30))
            fields = rng.integers(0, 10, n) * 3 + shard
            keys = pool[rng.integers(0, len(pool), n)]
            rows, got = table.lookup(shard, fields, keys)
            for (f, k), row in zip(zip(fields.tolist(), keys.tolist()), got["table"]):
                want = shadow.setdefault((f, k), init([f], [k], 2, np.float32)[0])
                assert np.array_equal(row, want)
            assert table.n_entries() == len(shadow)
            assert np.array_equal(find(table, shard, fields, keys), rows)
            if n and rng.random() < 0.5:
                uf, uk, _ = unique_with_inverse(fields, keys)
                new = rng.uniform(-1, 1, (len(uf), 2)).astype(np.float32)
                rows = table.lookup(shard, uf, uk)[0]
                table.apply_update(shard, rows, "table", new, {"acc": new * 2})
                assert len(set(rows.tolist())) == len(uf)
                for f, k, w in zip(uf.tolist(), uk.tolist(), new):
                    shadow[(f, k)] = w
                assert np.array_equal(table.slot_values(shard, rows, "table")["acc"], new * 2)
        got = table.weight_map("table")
        assert got.keys() == shadow.keys()
        for fk, want in shadow.items():
            assert np.array_equal(got[fk], want)

    def test_raising_initializer_leaves_table_unchanged(self, monkeypatch):
        def keyed_init(seed):
            def init(fields, keys, dim, dtype):
                if np.any(keys == 13):
                    raise RuntimeError("init failed")
                return np.repeat(keys.astype(dtype)[:, None], dim, axis=1)

            return init

        monkeypatch.setattr(sparse, "seeded_uniform_init", keyed_init)
        table = table_of(2, 2, slot_widths={"acc": 2})
        table.lookup(0, [0, 2], [1, 2])
        before = table.weight_map("table")
        with pytest.raises(RuntimeError, match="init failed"):
            table.lookup(0, [0, 2, 2], [1, 5, 13])
        assert table.n_entries() == 2
        assert table.weight_map("table").keys() == before.keys()
        assert find(table, 0, [2, 2], [5, 13]).tolist() == [-1, -1]
        assert np.array_equal(weights(table, 0, [2, 0], [5, 1]), [[5, 5], [1, 1]])

    def test_custom_initializer_receives_each_new_pair_once(self, monkeypatch):
        # one call per lookup and part, with every new pair once, in row order:
        # the index's (h, field) order
        calls = []
        real_init = sparse.seeded_uniform_init

        def recording_init(seed):
            init = real_init(seed)

            def record(fields, keys, dim, dtype):
                calls.append((fields.dtype, keys.dtype, fields.tolist(), keys.tolist(), dim))
                return init(fields, keys, dim, dtype)

            return record

        monkeypatch.setattr(sparse, "seeded_uniform_init", recording_init)
        table = ShardedWeightTable(1, [TablePart("a", 2), TablePart("b", 3)])
        table.lookup(0, [4, 1, 4, 1], [2**64 - 1, 5, 2**64 - 1, 6])
        table.lookup(0, [1, 4], [5, 2**64 - 1])
        fields, keys = zip(*hash_order([(1, 5), (1, 6), (4, 2**64 - 1)]))
        pairs = [np.int64, np.uint64, list(fields), list(keys)]
        assert calls == [(*pairs, 2), (*pairs, 3)]

    def test_unsorted_duplicated_pairs_create_one_entry_each(self, monkeypatch):
        # only pairs that do not arrive strictly ascending are deduplicated
        dedups = []
        real_dedup = sparse.unique_with_inverse

        def dedup(fields, keys):
            dedups.append(len(fields))
            return real_dedup(fields, keys)

        monkeypatch.setattr(sparse, "unique_with_inverse", dedup)
        table = make_table(n_shards=1)
        first = hash_order([(2, 7), (0, 1)])[::-1]  # descending, so deduplicated
        table.lookup(0, *zip(*first))
        assert dedups == [2]
        fields = np.array([3, 0, 3, 1, 0, 2, 3, 0])
        keys = np.array([4, 9, 4, 2**64 - 1, 9, 7, 0, 1], dtype=np.uint64)
        rows, got = table.lookup(0, fields, keys)
        assert dedups == [2, 6]  # six occurrences of the four pairs the table lacks
        assert table.n_entries() == 6
        # new rows follow the table's rows in ascending (h, field) order
        pairs = list(zip(fields.tolist(), keys.tolist()))
        row_of = {fk: row for row, fk in enumerate(
            hash_order(first) + hash_order(set(pairs) - set(first)))}
        assert rows.tolist() == [row_of[fk] for fk in pairs]
        assert np.array_equal(got["table"], seeded_uniform_init(5)(fields, keys, 4, np.float32))
        ascending = hash_order([(0, 10), (3, 1), (4, 0)])
        assert table.lookup(0, *zip(*ascending))[0].tolist() == [6, 7, 8]
        assert dedups == [2, 6]  # strictly ascending: taken as they are


# Pairs on shard 0 of 2, by index value: H three times (a three-way
# collision), then H + 1 and H - 1 on either side of that run, and one far away.
H = 0x0123456789ABCDEF
COLLIDING_FIELDS = np.array([0, 2, 4, 4, 6, 2])
COLLIDING_KEYS = np.array(
    [(h ^ splitmix_finalizer(f)) for f, h in zip((0, 2, 4, 4, 6), (H, H, H, H + 1, H - 1))]
    + [5], dtype=np.uint64,
)


class TestHashCollisions:
    """Distinct pairs whose index values ``key ^ mix(field)`` are equal."""

    @pytest.mark.parametrize("chunks", [
        [[0], [1], [2], [3], [4], [5]],
        [[5], [4], [3], [2], [1], [0]],
        [[0, 1, 2, 3, 4, 5]],
        [[2, 4], [0, 3], [1, 5]],
    ])
    def test_against_dict_shadow(self, chunks):
        init = seeded_uniform_init(4)
        table = table_of(2, 3, seed=4, slot_widths={"acc": 3})
        fields, keys = COLLIDING_FIELDS, COLLIDING_KEYS
        shadow = {}
        for chunk in chunks:
            # every lookup repeats the pairs already inserted, so hits and misses mix
            seen = [i for i in range(len(fields)) if (int(fields[i]), int(keys[i])) in shadow]
            sel = np.array(seen + chunk)
            got = weights(table, 0, fields[sel], keys[sel])
            for i, row in zip(sel.tolist(), got):
                fk = (int(fields[i]), int(keys[i]))
                want = shadow.setdefault(fk, init([fk[0]], [fk[1]], 3, np.float32)[0])
                assert np.array_equal(row, want), fk
        assert table.n_entries() == len(fields)
        index = table._shards[0].index
        hashes = np.concatenate([index._base[0], index._delta[0]])
        assert len(set(hashes.tolist())) == len(fields) - 2

        sel = np.array([2, 0, 4])
        new = np.arange(9, dtype=np.float32).reshape(3, 3)
        rows = table.lookup(0, fields, keys)[0]
        table.apply_update(0, rows[sel], "table", new, {"acc": -new})
        for i, w in zip(sel.tolist(), new):
            shadow[(int(fields[i]), int(keys[i]))] = w
        acc = table.slot_values(0, rows, "table")["acc"]
        assert np.array_equal(acc[[2, 0, 4]], -new)
        assert not acc[[1, 3, 5]].any()
        # a pair absent from the index whose value collides with three present ones
        absent = H ^ splitmix_finalizer(8)
        assert find(table, 0, [8, 0], [absent, keys[0]]).tolist() == [-1, rows[0]]

        got = table.weight_map("table")
        assert got.keys() == shadow.keys()
        for fk, want in shadow.items():
            assert np.array_equal(got[fk], want)
        loaded = ShardedWeightTable.load(table.records(), list(table.parts.values()), 2, seed=4)
        loaded_rows, loaded_weights = loaded.lookup(0, fields, keys)
        assert np.array_equal(loaded_weights["table"], weights(table, 0, fields, keys))
        assert np.array_equal(loaded.slot_values(0, loaded_rows, "table")["acc"], acc)
        assert loaded.n_entries() == len(fields)

    def test_equal_small_keys_across_fields(self, tmp_path):
        # as in the synthetic streams: every field draws from the same small ids
        rng = np.random.default_rng(12)
        table = table_of(1, 2, seed=3)
        fields = np.repeat(np.arange(10), 50)
        keys = np.tile(np.arange(50, dtype=np.uint64), 10)
        for chunk in np.array_split(rng.permutation(len(keys)), 7):
            table.lookup(0, fields[chunk], keys[chunk])
        assert table.n_entries() == len(keys)
        got = weights(table, 0, fields, keys)
        for row, f, k in zip(got, fields.tolist(), keys.tolist()):
            assert np.array_equal(row, per_key_uniform(3, f, k, 2, np.float32, 0.01))
        assert list(table.weight_map("table")) == list(zip(fields.tolist(), keys.tolist()))

    def test_dedup_of_interleaved_repeats(self):
        # the three pairs whose h is H, given a, b, a, b, ... among the others
        pick = np.array([0, 1, 2, 0, 1, 2, 4, 1, 0, 3, 2, 5, 1, 0, 0, 2])
        fields, keys = COLLIDING_FIELDS[pick], COLLIDING_KEYS[pick]
        uf, uk, inv = unique_with_inverse(fields, keys)
        pairs = list(zip(COLLIDING_FIELDS.tolist(), COLLIDING_KEYS.tolist()))
        assert list(zip(uf.tolist(), uk.tolist())) == hash_order(pairs)
        assert np.array_equal(uf[inv], fields) and np.array_equal(uk[inv], keys)
        for got, want in zip((uf, uk, inv), unique_reference(fields, keys)):
            assert np.array_equal(got, want)

        table = table_of(2, 3)
        rows = table.lookup(0, uf, uk)[0]
        assert len(set(rows.tolist())) == len(pairs)
        assert np.array_equal(table.lookup(0, fields, keys)[0], rows[inv])
        assert table.n_entries() == len(pairs)


def in_index(index, field, key):
    """Whether one (hash, field, row) index holds the pair."""
    h = int(key) ^ splitmix_finalizer(int(field))
    return any(int(hh) == h and int(ff) == field for hh, ff in zip(index[0], index[1]))


class TestDeltaIndex:
    """The base-plus-delta index against a dict shadow, across many merges."""

    def test_against_dict_shadow_across_merges(self):
        rng = np.random.default_rng(23)
        init = seeded_uniform_init(6)
        table = table_of(2, 2, seed=6)
        index = table._shards[0].index
        shadow = {}  # (field, key) -> row, rows in append order
        pool_f = rng.integers(0, 20, 3000) * 2
        pool_k = rng.integers(0, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True)
        pool_k[:1000] %= np.uint64(40)  # small keys that recur in many fields
        twins = {}  # colliding pair index -> "base" or "delta" right after its insert
        sizes = [200, 5, 1, 3, 17, 60, 250, 2, 40, 700, 9, 1, 120, 33, 400, 6, 80, 1500]
        base_sizes = set()
        for step, size in enumerate(sizes):
            pick = rng.integers(0, len(pool_f), size)
            # repeat pairs already inserted, so hits and misses mix
            fields, keys = pool_f[pick], pool_k[pick]
            extra = {0: [0], 1: [1], 4: [2, 3], 9: [4, 5]}.get(step, [])
            fields = np.concatenate([fields, COLLIDING_FIELDS[extra], fields[: size // 3]])
            keys = np.concatenate([keys, COLLIDING_KEYS[extra], keys[: size // 3]])
            for f, k in hash_order(set(zip(fields.tolist(), keys.tolist())) - set(shadow)):
                shadow[(f, k)] = len(shadow)
            rows, got = table.lookup(0, fields, keys)
            want = [shadow[fk] for fk in zip(fields.tolist(), keys.tolist())]
            assert rows.tolist() == want
            for (f, k), w in zip(zip(fields.tolist(), keys.tolist()), got["table"]):
                assert np.array_equal(w, init([f], [k], 2, np.float32)[0])
            for i in extra:
                in_base = in_index(index._base, COLLIDING_FIELDS[i], COLLIDING_KEYS[i])
                twins[i] = "base" if in_base else "delta"

            all_f = np.array([f for f, _ in shadow], dtype=np.int64)
            all_k = np.array([k for _, k in shadow], dtype=np.uint64)
            assert find(table, 0, all_f, all_k).tolist() == list(shadow.values())
            assert table.n_entries(0) == len(shadow)
            cols = (index._base, index._delta)
            assert sum(col.nbytes for part in cols for col in part) == 16 * len(shadow)
            for part in cols:
                assert np.all(part[0][1:] >= part[0][:-1])
            h, f, r = (np.concatenate(c) for c in zip(*cols))
            assert sorted(r.tolist()) == list(range(len(shadow)))
            assert len(set(zip(h.tolist(), f.tolist()))) == len(shadow)
            base_sizes.add(len(index._base[0]))

            one = table_of(2, 2, seed=6)
            one.lookup(0, all_f, all_k)
            assert list(saved(table)) == ["table-shard-0000", "table-shard-0001"]
            assert saved(table) == saved(one)
        # the first twin was merged into the base before its partner arrived in the delta
        assert twins[0] == "base" and twins[1] == "delta"
        assert len(base_sizes) >= 5  # the delta merged several times

        # a lookup that inserts nothing folds a non-empty delta into the base
        rows, _ = table.lookup(0, [0], [2**64 - 1])
        assert len(index._delta[0]) == 1
        assert table.lookup(0, all_f[:50], all_k[:50])[0].tolist() == list(shadow.values())[:50]
        assert len(index._delta[0]) == 0 and len(index._base[0]) == len(shadow) + 1
        assert find(table, 0, [0], [2**64 - 1]).tolist() == rows.tolist() == [len(shadow)]


def inserted_reference(index, new):
    """The merge ``_inserted`` replaced: a stable sort of the new entries by
    hash, then one ``np.insert`` per column."""
    order = np.argsort(new[0], kind="stable")
    at = np.searchsorted(index[0], new[0][order])
    return tuple(np.insert(col, at, vals[order]) for col, vals in zip(index, new))


def index_columns(rng, n, pool):
    """``n`` random (hash, field, row) entries sorted by hash, hashes drawn from ``pool``."""
    h = np.sort(rng.choice(pool, n))
    fields = rng.integers(0, 2**32, n, dtype=np.uint32)
    rows = rng.integers(0, 2**31, n).astype(np.int32)
    return h, fields, rows


class TestInserted:
    """``_inserted`` against the per-column ``np.insert`` merge it replaced."""

    @pytest.mark.parametrize("n_old, n_new", [
        (0, 0), (0, 1), (1, 0), (1, 1), (0, 40), (40, 0), (1, 40), (40, 1), (300, 37), (37, 300),
    ])
    @pytest.mark.parametrize("pool_size", [3, 50, 10_000])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_np_insert_byte_for_byte(self, n_old, n_new, pool_size, shuffled):
        # a small pool of hashes makes runs of equal h, with distinct fields,
        # inside each side and across the two; a table's own inserts come
        # sorted, a load's in file order
        rng = np.random.default_rng(n_old * 1000 + n_new * 7 + pool_size)
        pool = np.concatenate([
            rng.integers(0, 2**64 - 1, pool_size - 2, dtype=np.uint64, endpoint=True),
            np.array([0, 2**64 - 1], dtype=np.uint64),
        ])
        old, new = index_columns(rng, n_old, pool), index_columns(rng, n_new, pool)
        if shuffled:
            perm = rng.permutation(n_new)
            new = tuple(col[perm] for col in new)
        got = sparse._inserted(old, new)
        want = inserted_reference(old, new)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_an_inserting_lookup_mixes_its_pairs_once(self, monkeypatch):
        # the lookup computes h = key ^ mix(field) once, and its index finds,
        # assigns and indexes rows with that h: the base, the delta and the
        # new pairs all read the one array
        table = table_of(1, 4, seed=3)
        rng = np.random.default_rng(8)
        fields = rng.integers(0, 6, 400)
        keys = rng.integers(0, 2**64 - 1, 400, dtype=np.uint64, endpoint=True)
        table.lookup(0, fields[:100], keys[:100])  # merged into the base
        table.lookup(0, fields[100:105], keys[100:105])  # stays in the delta
        index = table._shards[0].index
        assert len(index._base[0]) == 100 and len(index._delta[0]) == 5
        uf, uk, _ = unique_with_inverse(fields[50:], keys[50:])  # hits in both, and misses
        mixes, splitmixes = [], []
        real_mix, real_splitmix = sparse._mix64, sparse._splitmix64

        def mix(z):
            mixes.append(np.shape(z))
            return real_mix(z)

        def splitmix(z):  # the initializer's own mixing, one finalizer call each
            splitmixes.append(np.shape(z))
            return real_splitmix(z)

        monkeypatch.setattr(sparse, "_mix64", mix)
        monkeypatch.setattr(sparse, "_splitmix64", splitmix)
        rows, _ = table.lookup(0, uf, uk)
        assert table.n_entries() == 400
        assert len(mixes) - len(splitmixes) == 1
        assert (len(uf),) in mixes
        monkeypatch.undo()
        assert np.array_equal(find(table, 0, uf, uk), rows)


class TestSharedIndex:
    """A two-part table, one row index per shard, against two one-part tables."""

    LINEAR = TablePart("linear", 1, "zeros", {"acc": 1})
    LATENT = TablePart("latent", 3, "uniform", {"m": 3, "v": 3})

    def table(self):
        return ShardedWeightTable(2, [self.LINEAR, self.LATENT], seed=6)

    def test_against_standalone_tables_and_dict_shadow(self):
        rng = np.random.default_rng(29)
        init = seeded_uniform_init(6)
        both = self.table()
        solo = {p.name: ShardedWeightTable(2, [p], seed=6) for p in (self.LINEAR, self.LATENT)}
        shadow = {}  # (field, key) -> [row, linear weight, latent weight]
        pool_f = rng.integers(0, 20, 2000) * 2
        pool_k = rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64, endpoint=True)
        pool_k[:600] %= np.uint64(30)
        sizes = [150, 4, 1, 20, 300, 7, 60, 500, 2, 90, 900, 12]
        base_sizes = set()
        for step, size in enumerate(sizes):
            pick = rng.integers(0, len(pool_f), size)
            extra = {0: [0], 5: [1], 8: [2, 3, 4, 5]}.get(step, [])
            fields = np.concatenate([pool_f[pick], COLLIDING_FIELDS[extra]])
            keys = np.concatenate([pool_k[pick], COLLIDING_KEYS[extra]])
            if step % 2:  # the engine's case: unique pairs in ascending order
                fields, keys, _ = unique_with_inverse(fields, keys)
            for f, k in hash_order(set(zip(fields.tolist(), keys.tolist())) - set(shadow)):
                shadow[(f, k)] = [len(shadow), np.zeros(1, np.float32),
                                  init([f], [k], 3, np.float32)[0]]
            rows, got = both.lookup(0, fields, keys)
            assert list(got) == ["linear", "latent"]
            want = [shadow[fk] for fk in zip(fields.tolist(), keys.tolist())]
            assert rows.tolist() == [row for row, _, _ in want]
            assert np.array_equal(got["linear"], np.array([w for _, w, _ in want]).reshape(-1, 1))
            assert np.array_equal(got["latent"], np.array([w for _, _, w in want]).reshape(-1, 3))
            for name, table in solo.items():
                solo_rows, solo_got = table.lookup(0, fields, keys)
                assert np.array_equal(solo_rows, rows)
                assert np.array_equal(solo_got[name], got[name])

            # one update per step and part through the rows, mirrored on the solo tables
            uf, uk, _ = unique_with_inverse(fields, keys)
            urows = both.lookup(0, uf, uk)[0]
            new = {"linear": rng.uniform(-1, 1, (len(uf), 1)).astype(np.float32),
                   "latent": rng.uniform(-1, 1, (len(uf), 3)).astype(np.float32)}
            for name, table in solo.items():
                w = new[name]
                slots = {s: w * (i + 2) for i, s in enumerate(sorted(both.parts[name].slot_widths))}
                both.apply_update(0, urows, name, w, slots)
                table.apply_update(0, table.lookup(0, uf, uk)[0], name, w, slots)
                got_slots = both.slot_values(0, urows, name)
                assert all(np.array_equal(got_slots[s], v) for s, v in slots.items())
            for fk, v1, v3 in zip(zip(uf.tolist(), uk.tolist()), new["linear"], new["latent"]):
                shadow[fk][1:] = [v1, v3]

            index = both._shards[0].index
            assert index.n_rows == both.n_entries(0) == len(shadow)
            index_bytes = sum(col.nbytes for part in (index._base, index._delta) for col in part)
            assert index_bytes == 16 * len(shadow)
            base_sizes.add(len(index._base[0]))
        assert len(base_sizes) >= 4  # the delta merged several times

        solo_records = {}
        for name, table in solo.items():
            assert len(both.weight_map(name)) == len(shadow)
            solo_records.update(saved(table))
        assert sorted(solo_records) == sorted(saved(both))
        assert len(solo_records) == 4
        assert solo_records == saved(both)

    def state(self, table):
        index = table._shards[1].index
        return (saved(table), table.n_entries(), index.n_rows, len(index._base[0]),
                len(index._delta[0]))

    @pytest.mark.parametrize("bad", [
        np.array([-1, 0]),
        np.array([0, 2]),  # the shard holds rows 0 and 1 only
        np.array([0.0, 1.0]),
        np.array([[0, 1]]),
        np.array([0]),  # one row for two weight rows
        np.array([0, 1, 1]),
    ])
    def test_bad_rows_leave_table_unchanged(self, bad):
        both = self.table()
        both.lookup(1, [1, 3], [5, 6])
        before = self.state(both)
        w = np.ones((2, 3), np.float32)
        with pytest.raises(ConsistencyError, match="'latent'"):
            both.apply_update(1, bad, "latent", w, {"m": w, "v": w})
        assert self.state(both) == before

    def test_raising_initializer_leaves_index_and_table_unchanged(self, monkeypatch):
        # the latent part's initializer fails after the linear part's has run
        real_init = sparse.seeded_uniform_init

        def failing_init(seed):
            init = real_init(seed)

            def checked(fields, keys, dim, dtype):
                if np.any(keys == 13):
                    raise RuntimeError("init failed")
                return init(fields, keys, dim, dtype)

            return checked

        monkeypatch.setattr(sparse, "seeded_uniform_init", failing_init)
        both = self.table()
        both.lookup(1, [1, 3], [5, 6])
        before = self.state(both)
        with pytest.raises(RuntimeError, match="init failed"):
            both.lookup(1, [1, 3, 3], [5, 7, 13])
        assert self.state(both) == before
        assert find(both, 1, [3, 3], [7, 13]).tolist() == [-1, -1]
        rows, got = both.lookup(1, [3, 1], [7, 5])
        assert rows.tolist() == [2, hash_order([(1, 5), (3, 6)]).index((1, 5))]
        assert np.array_equal(got["latent"][0], seeded_uniform_init(6)([3], [7], 3, np.float32)[0])


class TestFieldRange:
    def test_field_outside_uint32_rejected_and_widest_round_trips(self):
        table = table_of(1, 2, init="zeros", slot_widths={"acc": 2}, name="lin")
        for bad in (2**32 + 5, -1):
            with pytest.raises(DimensionError, match=rf"field {bad} is outside"):
                table.lookup(0, [bad], [7])
        assert table.n_entries() == 0
        table.lookup(0, [2**32 - 1, 0], [7, 7])
        loaded = ShardedWeightTable.load(table.records(), list(table.parts.values()), 1)
        assert sorted(loaded.weight_map("lin")) == [(0, 7), (2**32 - 1, 7)]


class TestApplyUpdate:
    def test_round_trip_bitwise(self):
        table = make_table(init="zeros")
        rows, _ = table.lookup(0, [0], [42])
        w = np.array([[1.5, -2.0, 0.25, 8.0]], dtype=np.float32)
        s = {"acc": np.array([[0.1, 0.2, 0.3, 0.4]], dtype=np.float32)}
        table.apply_update(0, rows, "table", w, s)
        rows, got = table.lookup(0, [0], [42])
        assert np.array_equal(got["table"], w)
        assert np.array_equal(table.slot_values(0, rows, "table")["acc"], s["acc"])

    def test_zero_delta_leaves_table_identical(self):
        table = make_table()
        table.lookup(0, [0, 2], [1, 2])
        before = table.weight_map("table")
        rows, w = table.lookup(0, [0, 2], [1, 2])
        s = table.slot_values(0, rows, "table")
        table.apply_update(0, rows, "table", w["table"], s)
        after = table.weight_map("table")
        assert before.keys() == after.keys()
        for key in before:
            assert np.array_equal(before[key], after[key])

    def test_unknown_key_rejected(self):
        # no lookup has created a row for any pair yet
        table = make_table()
        with pytest.raises(ConsistencyError, match=r"row 0 is outside \[0, 0\)"):
            table.apply_update(
                0, [0], "table", np.zeros((1, 4), np.float32),
                {"acc": np.zeros((1, 4), np.float32)},
            )

    def test_wrong_slot_names_rejected(self):
        table = make_table()
        rows, _ = table.lookup(0, [0], [1])
        with pytest.raises(ConsistencyError):
            table.apply_update(
                0, rows, "table", np.zeros((1, 4), np.float32),
                {"momentum": np.zeros((1, 4), np.float32)},
            )

    def test_wrong_slot_shape_rejected_and_table_unchanged(self):
        table = table_of(1, 2, init="zeros", slot_widths={"a": 2, "b": 2})
        rows, _ = table.lookup(0, [0], [1])
        ones = np.ones((1, 2), np.float32)
        with pytest.raises(ConsistencyError, match=r"'table': update slots .*'b': \(1, 3\)"):
            table.apply_update(0, rows, "table", ones, {"a": ones, "b": np.ones((1, 3))})
        assert not weights(table, 0, [0], [1]).any()
        assert not any(v.any() for v in table.slot_values(0, rows, "table").values())

    def test_wrong_shape_rejected(self):
        table = make_table()
        rows, _ = table.lookup(0, [0], [1])
        with pytest.raises(ConsistencyError):
            table.apply_update(
                0, rows, "table", np.zeros((1, 3), np.float32),
                {"acc": np.zeros((1, 4), np.float32)},
            )

    @pytest.mark.parametrize("bad", [[-1], [3], [1, 3], [1.0]])
    def test_row_outside_shard_rejected_and_table_unchanged(self, bad):
        table = make_table()
        rows, _ = table.lookup(0, [0, 2, 4], [1, 2, 3])
        ones = np.ones((3, 4), np.float32)
        table.apply_update(0, rows, "table", ones, {"acc": ones})
        before = {fk: w.tobytes() for fk, w in table.weight_map("table").items()}
        acc = table.slot_values(0, rows, "table")["acc"].tobytes()
        w = np.zeros((len(bad), 4), np.float32)
        with pytest.raises(ConsistencyError, match=r"'table'.*row"):
            table.slot_values(0, bad, "table")
        with pytest.raises(ConsistencyError, match=r"'table'.*row"):
            table.apply_update(0, bad, "table", w, {"acc": w})
        assert {fk: w.tobytes() for fk, w in table.weight_map("table").items()} == before
        assert table.slot_values(0, rows, "table")["acc"].tobytes() == acc
        assert table.n_entries() == 3

    def test_thousand_random_updates_match_shadow_map(self):
        rng = np.random.default_rng(11)
        table = table_of(3, 2, init="zeros", slot_widths={"acc": 2})
        shadow = {}
        for _ in range(1000):
            field = int(rng.integers(0, 9))
            key = int(rng.integers(0, 50))
            shard = field % 3
            rows, _ = table.lookup(shard, [field], [key])
            shadow.setdefault((field, key), np.zeros(2, dtype=np.float32))
            w = rng.uniform(-1, 1, (1, 2)).astype(np.float32)
            table.apply_update(shard, rows, "table", w, {"acc": np.zeros((1, 2), np.float32)})
            shadow[(field, key)] = w[0].copy()
        got = table.weight_map("table")
        assert got.keys() == shadow.keys()
        for fk, want in shadow.items():
            assert np.array_equal(got[fk], want)

    def test_placement_invariant_full_scan(self):
        rng = np.random.default_rng(12)
        table = table_of(4, 2, init="zeros")
        for _ in range(200):
            field = int(rng.integers(0, 16))
            table.lookup(field % 4, [field], [int(rng.integers(0, 9))])
        for shard_idx in range(4):
            fields, _, _ = table._shards[shard_idx].index.sorted_entries()
            assert len(fields) and np.all(fields % 4 == shard_idx)


# Adam's slots: m and v as wide as the part, the step counter t one wide
ADAM_PARTS = [
    TablePart("narrow", 1, "uniform", {"m": 1, "v": 1, "t": 1}),
    TablePart("wide", 8, "uniform", {"m": 8, "v": 8, "t": 1}),
]


def table_arrays(table, shard_idx=0):
    """Every weight and slot array of one shard, by (part, name), as bytes."""
    shard = table._shards[shard_idx]
    out = {(part, "w"): arr.tobytes() for part, arr in shard.weights.items()}
    for part, slots in shard.slots.items():
        out.update({(part, name): arr.tobytes() for name, arr in slots.items()})
    return out


def given_as(values, form, dtype):
    """float64 ``values`` as the caller may pass them: float64 as they are, or in
    ``dtype`` in C order, in Fortran order or as a strided view."""
    if form == "float64":
        return values
    values = values.astype(dtype)
    if form == "fortran":
        return np.asfortranarray(values)
    if form == "strided":
        wide = np.zeros((2 * values.shape[0], 3 * values.shape[1]), dtype=values.dtype)
        view = wide[::2, ::3]
        view[...] = values
        return view
    return values


class TestRowWrites:
    """``apply_update``'s row writes leave the bytes that ``arr[rows] = values`` leaves."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("form", ["plain", "float64", "fortran", "strided"])
    def test_same_bytes_as_fancy_assignment(self, dtype, form):
        rng = np.random.default_rng(31)
        table = ShardedWeightTable(1, ADAM_PARTS, seed=2, dtype=dtype)
        all_rows, _ = table.lookup(0, np.zeros(90, dtype=np.int64), np.arange(90, dtype=np.uint64))
        for _ in range(3):
            rows = rng.permutation(all_rows)[:37]  # unsorted
            assert np.any(np.diff(rows) < 0)
            for part in table.parts.values():
                shard = table._shards[0]
                want_w = shard.weights[part.name].copy()
                want_slots = {name: arr.copy() for name, arr in shard.slots[part.name].items()}
                w = given_as(rng.uniform(-1, 1, (len(rows), part.dim)), form, dtype)
                slots = {name: given_as(rng.uniform(0, 2, (len(rows), width)), form, dtype)
                         for name, width in part.slot_widths.items()}
                want_w[rows] = w
                for name, arr in slots.items():
                    want_slots[name][rows] = arr
                table.apply_update(0, rows, part.name, w, slots)
                assert shard.weights[part.name].tobytes() == want_w.tobytes()
                for name, arr in shard.slots[part.name].items():
                    assert arr.dtype == dtype and arr.tobytes() == want_slots[name].tobytes()

    def test_empty_update_writes_nothing(self):
        table = ShardedWeightTable(1, ADAM_PARTS, seed=2)
        table.lookup(0, [0, 0], [1, 2])
        before = table_arrays(table)
        empty = np.zeros((0, 8), np.float32)
        table.apply_update(0, [], "wide", empty, {"m": empty, "v": empty, "t": empty[:, :1]})
        assert table_arrays(table) == before

    @pytest.mark.parametrize("rows, weights, slots, match", [
        ([0, 5], (2, 8), {"m": (2, 8), "v": (2, 8), "t": (2, 1)}, "row 5 is outside"),
        ([0, 1], (2, 7), {"m": (2, 8), "v": (2, 8), "t": (2, 1)}, "update shape"),
        ([0, 1], (2, 8), {"m": (2, 8), "v": (2, 8)}, "update slots"),
        ([0, 1], (2, 8), {"m": (2, 8), "v": (2, 8), "t": (2, 8)}, "update slots"),
    ])
    def test_rejected_update_leaves_every_array_unchanged(self, rows, weights, slots, match):
        table = ShardedWeightTable(1, ADAM_PARTS, seed=2)
        table.lookup(0, [0, 0, 0], [1, 2, 3])
        before = table_arrays(table)
        with pytest.raises(ConsistencyError, match=match):
            table.apply_update(0, rows, "wide", np.ones(weights, np.float32),
                               {name: np.ones(shape, np.float32) for name, shape in slots.items()})
        assert table_arrays(table) == before


# a table of one part of dim 1, initialized to zeros, without slots
ONE_WEIGHT = [TablePart("table", 1, "zeros")]


class TestPersistence:
    def populate(self, table, rng, n=60):
        for _ in range(n):
            field = int(rng.integers(0, 8))
            key = int(rng.integers(0, 1000))
            shard = field % table.n_shards
            rows, _ = table.lookup(shard, [field], [key])
            for part in table.parts.values():
                w = rng.uniform(-1, 1, (1, part.dim)).astype(np.float32)
                s = {name: rng.uniform(0, 1, (1, wd)).astype(np.float32)
                     for name, wd in part.slot_widths.items()}
                table.apply_update(shard, rows, part.name, w, s)

    def saved_rows(self, table, shard_idx):
        """Every pair of one shard, its rows and each part's weights and slots."""
        fields, keys, _ = table._shards[shard_idx].index.sorted_entries()
        rows, got = table.lookup(shard_idx, fields, keys)
        slots = {name: table.slot_values(shard_idx, rows, name) for name in table.parts}
        return fields.tolist(), keys.tolist(), got, slots

    TWO_PARTS = [TablePart("table", 3, "uniform", {"z": 3, "n": 3}),
                 TablePart("second", 2, "zeros", {"acc": 2})]

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        table = ShardedWeightTable(2, self.TWO_PARTS, seed=9)
        self.populate(table, rng)
        loaded = ShardedWeightTable.load(table.records(), self.TWO_PARTS, 2, seed=9)
        assert loaded.n_entries() == table.n_entries()
        for shard_idx in range(2):
            want = self.saved_rows(table, shard_idx)
            got = self.saved_rows(loaded, shard_idx)
            assert got[:2] == want[:2]
            for name in table.parts:
                assert np.array_equal(got[2][name], want[2][name])
                for slot in want[3][name]:
                    assert np.array_equal(got[3][name][slot], want[3][name][slot])

    def test_loaded_table_finds_every_saved_key(self):
        rng = np.random.default_rng(16)
        table = table_of(2, 3, seed=9, slot_widths={"z": 3})
        self.populate(table, rng, n=200)
        loaded = ShardedWeightTable.load(table.records(), list(table.parts.values()), 2, seed=9)
        n = loaded.n_entries()
        saved = table.weight_map("table")
        for shard_idx in range(2):
            pairs = [fk for fk in saved if fk[0] % 2 == shard_idx]
            fields = [f for f, _ in pairs]
            keys = [k for _, k in pairs]
            rows, got = loaded.lookup(shard_idx, fields, keys)
            assert np.array_equal(got["table"], np.stack([saved[fk] for fk in pairs]))
            table_rows = table.lookup(shard_idx, fields, keys)[0]
            assert np.array_equal(loaded.slot_values(shard_idx, rows, "table")["z"],
                                  table.slot_values(shard_idx, table_rows, "table")["z"])
        assert loaded.n_entries() == n

    def test_save_is_byte_deterministic(self):
        rng = np.random.default_rng(14)
        table = ShardedWeightTable(2, self.TWO_PARTS, seed=1)
        self.populate(table, rng)
        assert saved(table) == saved(table)

    def test_file_bytes_independent_of_insertion_order(self):
        t1 = table_of(1, 2, seed=3)
        t2 = table_of(1, 2, seed=3)
        t1.lookup(0, [0, 1, 2], [5, 6, 7])
        t2.lookup(0, [2, 0, 1], [7, 5, 6])
        assert saved(t1)["table-shard-0000"] == saved(t2)["table-shard-0000"]

    def test_load_rejects_foreign_file(self, tmp_path):
        pickled = {"table-shard-0000": np.array([{"field": 0}], dtype=object)}
        with pytest.raises(ValueError, match="table-shard-0000: records object"):
            ShardedWeightTable.load(pickled, ONE_WEIGHT, 1)
        path = tmp_path / "checkpoint.npz"
        np.savez(path, **pickled)
        with np.load(path, allow_pickle=False) as arrays:
            with pytest.raises(ValueError, match="table-shard-0000: Object arrays cannot be"):
                ShardedWeightTable.load(arrays, ONE_WEIGHT, 1)

    def saved_shard(self, n_shards=1):
        table = ShardedWeightTable(n_shards, ONE_WEIGHT)
        table.lookup(0, [0, 0, 0], [1, 2, 3])
        return table.records()

    @pytest.mark.parametrize("member", [
        "lin-shard-0000", "lat-shard-0000", "lin-shard-0001", "lat-shard-0001",
    ])
    def test_load_rejects_a_missing_array(self, member):
        parts = [TablePart("lin", 1, "zeros"), TablePart("lat", 2)]
        table = ShardedWeightTable(2, parts)
        table.lookup(1, [1, 3], [5, 6])
        records = table.records()
        del records[member]
        with pytest.raises(ValueError, match=f"^{member}: missing$"):
            ShardedWeightTable.load(records, parts, 2)

    def test_load_rejects_records_of_another_shape(self):
        records = self.saved_shard()
        records["table-shard-0000"] = records["table-shard-0000"].reshape(3, 1)
        with pytest.raises(ValueError, match=r"table-shard-0000: records.*shape \(3, 1\)"):
            ShardedWeightTable.load(records, ONE_WEIGHT, 1)

    def test_load_rejects_field_of_another_shard(self):
        records = self.saved_shard(n_shards=2)
        records["table-shard-0000"]["field"][0] = 3
        with pytest.raises(ValueError, match="table-shard-0000: field 3 .*shard 0 of 2"):
            ShardedWeightTable.load(records, ONE_WEIGHT, 2)

    def test_load_rejects_repeated_pair(self):
        records = self.saved_shard()
        recs = records["table-shard-0000"]
        recs[2] = recs[0]
        with pytest.raises(ValueError, match=r"table-shard-0000: \(field=0, key=1\) repeats"):
            ShardedWeightTable.load(records, ONE_WEIGHT, 1)

    def test_load_rejects_fewer_than_one_shard(self):
        records = self.saved_shard()
        for n_shards in (0, -1):
            with pytest.raises(ValueError, match="at least one shard"):
                ShardedWeightTable.load(records, ONE_WEIGHT, n_shards)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_load_rejects_a_table_saved_at_more_shards(self, n_shards):
        parts = [TablePart("lin", 1, "zeros"), TablePart("lat", 2)]
        table = ShardedWeightTable(4, parts)
        for field in range(8):
            table.lookup(field % 4, [field], [field + 10])
        records = table.records()
        with pytest.raises(ValueError, match=re.escape(
                f"lin-shard-{n_shards:04d}: the table was saved at more than {n_shards} shards")):
            ShardedWeightTable.load(records, parts, n_shards)
        assert ShardedWeightTable.load(records, parts, 4).n_entries() == 8

    @pytest.mark.parametrize("other", [
        {"dim": 3},
        {"dtype": np.float64},
        {"slot_widths": {"m": 2}},
        {"slot_widths": {"acc": 1}},
    ])
    def test_load_rejects_shard_unlike_shard_0(self, other):
        like = {"dim": 2, "dtype": np.float32, "slot_widths": {"acc": 2}}
        records = []
        for kw in (like, {**like, **other}):
            table = table_of(2, kw["dim"], seed=1, dtype=kw["dtype"],
                             slot_widths=kw["slot_widths"])
            table.lookup(1, [1, 3], [5, 6])
            records.append(table.records())
        records[0]["table-shard-0001"] = records[1]["table-shard-0001"]
        with pytest.raises(ValueError, match="table-shard-0001: .*differ from part 'table'"):
            ShardedWeightTable.load(records[0], list(table_of(2, **like).parts.values()), 2)

    @pytest.mark.parametrize("other_keys", [[5, 7], [5], [5, 6, 7]])
    def test_load_rejects_parts_whose_pairs_differ(self, other_keys):
        parts = [TablePart("lin", 1, "zeros"), TablePart("lat", 2)]
        records = []
        for keys in ([5, 6], other_keys):
            table = ShardedWeightTable(2, parts)
            table.lookup(1, [1] * len(keys), keys)
            records.append(table.records())
        records[0]["lat-shard-0001"] = records[1]["lat-shard-0001"]
        with pytest.raises(ValueError, match=re.escape(
                "lat-shard-0001: (field, key) pairs differ from lin-shard-0001's")):
            ShardedWeightTable.load(records[0], parts, 2)


def unique_reference(fields, keys):
    """np.unique over (h, field, key) records, ``h = key ^ mix(field)`` in Python ints:
    the definition unique_with_inverse keeps. The hash and the field fix the
    key, so the records sort and repeat as their (h, field) prefixes do."""
    pairs = np.empty(len(fields), dtype=[("h", np.uint64), ("f", np.int64), ("k", np.uint64)])
    pairs["h"] = [k ^ splitmix_finalizer(f & M64) for f, k in zip(fields.tolist(), keys.tolist())]
    pairs["f"] = fields
    pairs["k"] = keys
    uniq, inverse = np.unique(pairs, return_inverse=True)
    return uniq["f"], uniq["k"], inverse


def shard_unique(batch, shard, n_shards):
    """The unique pairs one rank's forward resolves: its slice, deduplicated, in (h, field) order."""
    sl = batch.shard_slices(n_shards)[shard]
    uf, uk, _ = unique_with_inverse(sl.fields, sl.keys)
    return uf, uk


class TestUniqueKeys:
    def test_matches_structured_unique(self):
        rng = np.random.default_rng(17)
        for n in (0, 1, 2, 7, 300):
            fields = rng.integers(-3, 5, n)
            keys = rng.choice(
                np.array([0, 1, 5, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64), n
            )
            got = unique_with_inverse(fields, keys)
            want = unique_reference(fields, keys)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_sorted_and_inverse(self):
        fields = np.array([3, 1, 3, 1])
        keys = np.array([7, 2, 7, 9], dtype=np.uint64)
        uf, uk, inv = unique_with_inverse(fields, keys)
        assert list(zip(uf.tolist(), uk.tolist())) == hash_order([(1, 2), (1, 9), (3, 7)])
        for i in range(4):
            assert uf[inv][i] == fields[i] and uk[inv][i] == keys[i]

    def test_duplicates_collapse(self):
        batch = SparseBatch.from_samples(
            [1.0], [[(0, 5, 1.0), (0, 5, 2.0), (2, 5, 1.0)]]
        )
        uf, uk = shard_unique(batch, 0, 2)
        assert uf.tolist() == [0, 2] and uk.tolist() == [5, 5]

    def test_empty_batch_slice(self):
        batch = SparseBatch.from_samples([0.0], [[(1, 3, 1.0)]])
        uf, uk = shard_unique(batch, 0, 2)  # field 1 lives on shard 1
        assert len(uf) == 0 and len(uk) == 0

    def test_against_set_oracle(self):
        rng = np.random.default_rng(15)
        samples = []
        for _ in range(512):
            feats = [
                (int(rng.integers(0, 10)), int(rng.integers(0, 40)), 1.0)
                for _ in range(int(rng.integers(1, 6)))
            ]
            samples.append(feats)
        batch = SparseBatch.from_samples(np.zeros(512) + 1, samples)
        for shard in range(3):
            want = hash_order(
                {(f, k) for feats in samples for f, k, _ in feats if f % 3 == shard}
            )
            uf, uk = shard_unique(batch, shard, 3)
            assert list(zip(uf.tolist(), uk.tolist())) == want
