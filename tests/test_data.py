"""Input pipeline: click-log parsing, hashing featurizer, synthetic stream."""

import math

import numpy as np
import pytest

from dessim.data import (
    CriteoRecord,
    SyntheticSpec,
    featurize,
    gen_synthetic,
    parse_criteo,
    read_criteo_batches,
)
from dessim.errors import ParseError
from dessim.models import ModelGraph, SparseBatch
from dessim.sparse import hash_text
from dessim.training import RunConfig, train


def make_line(label, ints, cats):
    cells = [str(label)]
    cells += ["" if x is None else str(x) for x in ints]
    cells += ["" if t is None else t for t in cats]
    return "\t".join(cells)


FULL_INTS = list(range(13))
FULL_CATS = [f"tok{j:02d}" for j in range(26)]


class TestParsing:
    def test_full_line(self):
        rec = parse_criteo(make_line(1, FULL_INTS, FULL_CATS) + "\n")
        assert rec.label == 1
        assert rec.integers == tuple(range(13))
        assert rec.categoricals == tuple(FULL_CATS)

    def test_empty_cells_become_none(self):
        ints = [None] * 13
        cats = [None] * 26
        rec = parse_criteo(make_line(0, ints, cats))
        assert rec.integers == (None,) * 13
        assert rec.categoricals == (None,) * 26

    def test_wrong_column_count_names_the_line(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_criteo("1\t2\t3", line_no=7)

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_criteo(make_line("click", FULL_INTS, FULL_CATS))

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_0_1_names_the_line(self, label):
        with pytest.raises(ParseError, match=r"label .*line 4"):
            parse_criteo(make_line(label, FULL_INTS, FULL_CATS), line_no=4)

    def test_non_integer_cell_names_line_and_column(self):
        ints = [1, 2, "x"] + [None] * 10
        with pytest.raises(ParseError, match=r"'x' in column 4 at line 7"):
            parse_criteo(make_line(1, ints, FULL_CATS), line_no=7)

    def test_wide_integer_cells(self):
        ints = [0, 1, -5, 2**31, 10**12] + [None] * 8
        rec = parse_criteo(make_line(0, ints, FULL_CATS))
        assert rec.integers == tuple(ints)


class TestFeaturizer:
    def test_integer_value_transform(self):
        rec = CriteoRecord(label=1, integers=(0, 1, -5) + (None,) * 10,
                           categoricals=(None,) * 26)
        feats = featurize(rec)
        by_field = {f: v for f, _, v in feats}
        assert by_field[0] == 0.0
        assert abs(by_field[1] - math.log(2.0)) < 1e-12
        assert by_field[2] == 0.0
        assert set(by_field) == {0, 1, 2}

    def test_integer_key_is_per_column_not_per_value(self):
        a = CriteoRecord(label=1, integers=(3,) + (None,) * 12,
                         categoricals=(None,) * 26)
        b = CriteoRecord(label=1, integers=(9,) + (None,) * 12,
                         categoricals=(None,) * 26)
        assert featurize(a)[0][1] == featurize(b)[0][1]

    def test_categorical_fields_offset_past_integers(self):
        rec = CriteoRecord(label=0, integers=(None,) * 13,
                           categoricals=("x",) + (None,) * 25)
        feats = featurize(rec)
        assert feats == [(13, feats[0][1], 1.0)]

    def test_same_token_same_key_across_records(self):
        rec = CriteoRecord(label=0, integers=(None,) * 13,
                           categoricals=(None, "abc") + (None,) * 24)
        assert featurize(rec) == featurize(rec)

    def test_token_keys_separate_by_column(self):
        rec = CriteoRecord(label=0, integers=(None,) * 13,
                           categoricals=("abc", "abc") + (None,) * 24)
        feats = featurize(rec)
        assert feats[0][1] != feats[1][1]

    def test_hash_seed_moves_keys(self):
        rec = CriteoRecord(label=0, integers=(None,) * 13,
                           categoricals=("abc",) + (None,) * 25)
        assert featurize(rec, hash_seed=0) != featurize(rec, hash_seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_bitwise_equal_to_per_token_reference(self, seed):
        records = [
            CriteoRecord(label=1, integers=(0, 1, -5, 2**31, 10**12) + (None,) * 8,
                         categoricals=("déjà", "キー", "", "a\u00e9b") + (None,) * 22),
            CriteoRecord(label=0, integers=(None,) * 12 + (7,),
                         categoricals=(None,) * 25 + ("ünï",)),
            CriteoRecord(label=0, integers=tuple(range(13)), categoricals=tuple(FULL_CATS)),
            CriteoRecord(label=1, integers=(None,) * 13, categoricals=(None,) * 26),
        ]
        for rec in records:
            assert feature_bits(featurize(rec, seed)) == feature_bits(
                reference_featurize(rec, seed))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_named(self, seed):
        rec = CriteoRecord(label=0, integers=(1,) + (None,) * 12,
                           categoricals=("abc",) + (None,) * 25)
        with pytest.raises(ValueError, match=f"seed {seed}"):
            featurize(rec, hash_seed=seed)


def reference_featurize(record, hash_seed=0):
    """One hash_text and one numpy log1p per cell: the keys and values featurize keeps."""
    out = []
    for i, x in enumerate(record.integers):
        if x is not None:
            value = float(np.log1p(x)) if x >= 0 else 0.0
            out.append((i, hash_text(f"I{i}", hash_seed), value))
    for j, token in enumerate(record.categoricals):
        if token is not None:
            out.append((13 + j, hash_text(f"C{j}:{token}", hash_seed), 1.0))
    return out


def feature_bits(feats):
    """Triples with each value as its exact bits, so 0.0 and -0.0 differ."""
    return [(type(f), f, type(k), k, type(v), v.hex()) for f, k, v in feats]


def reference_batches(path, batch_size, split, hash_seed=0):
    """The reader's batches from per-token reference features."""
    lines = path.read_text(encoding="utf-8").splitlines()
    keep = [(n, line) for n, line in enumerate(lines) if (n % 20 == 19) == (split == "test")]
    for start in range(0, len(keep), batch_size):
        records = [parse_criteo(line, n + 1) for n, line in keep[start : start + batch_size]]
        yield SparseBatch.from_samples(
            [r.label for r in records], [reference_featurize(r, hash_seed) for r in records])


class TestFileReader:
    @pytest.fixture
    def log_file(self, tmp_path):
        rng = np.random.default_rng(70)
        path = tmp_path / "clicks.tsv"
        lines = []
        for _ in range(100):
            ints = [int(rng.integers(0, 50)) if rng.random() < 0.8 else None
                    for _ in range(13)]
            cats = [f"t{int(rng.integers(0, 9))}" if rng.random() < 0.8 else None
                    for _ in range(26)]
            lines.append(make_line(int(rng.integers(0, 2)), ints, cats))
        path.write_text("\n".join(lines) + "\n")
        return path, lines

    def test_split_is_positional(self, log_file):
        path, lines = log_file
        train_labels = np.concatenate(
            [b.labels for b in read_criteo_batches(path, 32, split="train")])
        test_labels = np.concatenate(
            [b.labels for b in read_criteo_batches(path, 32, split="test")])
        want_test = [int(l.split("\t")[0]) for i, l in enumerate(lines) if i % 20 == 19]
        want_train = [int(l.split("\t")[0]) for i, l in enumerate(lines) if i % 20 != 19]
        assert test_labels.tolist() == want_test
        assert train_labels.tolist() == want_train

    def test_batching_with_remainder(self, log_file):
        path, _ = log_file
        sizes = [b.batch_size for b in read_criteo_batches(path, 32, split="all")]
        assert sizes == [32, 32, 32, 4]

    def test_limit_counts_file_lines(self, log_file):
        path, _ = log_file
        batches = list(read_criteo_batches(path, 64, split="all", limit=10))
        assert sum(b.batch_size for b in batches) == 10

    def test_unknown_split(self, log_file):
        path, _ = log_file
        with pytest.raises(ValueError):
            list(read_criteo_batches(path, 8, split="dev"))

    @pytest.mark.parametrize("batch_size", [1, 7, 128])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_batches_bitwise_equal_to_reference_reader(self, tmp_path, batch_size, split):
        rng = np.random.default_rng(71)
        wide = [0, 1, -5, 2**31, 10**12]
        tokens = ["déjà", "キー", "ünï", "x", "0a1b2c3d"]
        lines = []
        for _ in range(300):
            ints = [int(rng.choice(wide)) if rng.random() < 0.3 else
                    int(rng.integers(-3, 1000)) if rng.random() < 0.8 else None
                    for _ in range(13)]
            cats = [str(rng.choice(tokens)) + str(int(rng.integers(0, 50)))
                    if rng.random() < 0.9 else None for _ in range(26)]
            lines.append(make_line(int(rng.integers(0, 2)), ints, cats))
        path = tmp_path / "clicks.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = list(read_criteo_batches(path, batch_size, split=split, hash_seed=3))
        want = list(reference_batches(path, batch_size, split, hash_seed=3))
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            for name in ("labels", "sample_ids", "fields", "keys", "values"):
                a, b = getattr(g, name), getattr(w, name)
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_named(self, tmp_path, seed):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match=f"seed {seed}"):
            list(read_criteo_batches(path, 8, hash_seed=seed))

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.tsv"
        good = make_line(1, FULL_INTS, FULL_CATS)
        path.write_text(good + "\n" + "not\ta\tlog\tline\n")
        with pytest.raises(ParseError, match="line 2"):
            list(read_criteo_batches(path, 8))


class TestSyntheticSpec:
    def test_defaults_are_valid(self):
        spec = SyntheticSpec()
        assert spec.n_fields == 10
        assert spec.noise_rate == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_fields=0)
        with pytest.raises(ValueError):
            SyntheticSpec(min_active_fields=5, max_active_fields=3)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_rate=0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(positive_rate=1.0)

    def test_config_round_trip(self):
        spec = SyntheticSpec(n_fields=4, vocab_per_field=50,
                             min_active_fields=4, max_active_fields=4,
                             noise_rate=0.0, margin_scale=25.0)
        assert SyntheticSpec.from_config(spec.to_config()) == spec

    def test_config_unknown_key_rejected(self):
        doc = SyntheticSpec().to_config()
        doc["fields"] = 5
        with pytest.raises(ValueError, match="fields"):
            SyntheticSpec.from_config(doc)


class TestSyntheticStream:
    def test_same_seed_same_stream(self):
        spec = SyntheticSpec()
        a = list(gen_synthetic(spec, 300, 128, seed=5))
        b = list(gen_synthetic(spec, 300, 128, seed=5))
        assert len(a) == len(b) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.keys, y.keys)
            assert np.array_equal(x.sample_ids, y.sample_ids)

    def test_different_seed_different_stream(self):
        spec = SyntheticSpec()
        a = next(gen_synthetic(spec, 128, 128, seed=5))
        b = next(gen_synthetic(spec, 128, 128, seed=6))
        assert not np.array_equal(a.keys, b.keys)

    def test_batch_envelope(self):
        spec = SyntheticSpec(n_fields=6, vocab_per_field=30,
                             min_active_fields=2, max_active_fields=5)
        sizes = []
        for batch in gen_synthetic(spec, 100, 32, seed=9):
            sizes.append(batch.batch_size)
            assert batch.fields.min() >= 0 and batch.fields.max() < 6
            assert batch.keys.max() < 30
            assert np.all(batch.values == 1.0)
            per_sample = np.bincount(batch.sample_ids, minlength=batch.batch_size)
            assert per_sample.min() >= 2 and per_sample.max() <= 5
        assert sizes == [32, 32, 32, 4]

    def test_label_marginal_hits_positive_rate(self):
        spec = SyntheticSpec()
        n = 0
        pos = 0.0
        for batch in gen_synthetic(spec, 50_000, 4096, seed=11):
            pos += batch.labels.sum()
            n += batch.batch_size
        assert abs(pos / n - 0.5) < 0.02

    def test_noise_free_wide_margin_stream_is_learnable(self):
        # dense token occurrences and saturated probabilities: a linear
        # learner should rank nearly perfectly
        config = RunConfig(
            graph=ModelGraph(kind="lr", n_fields=4, seed=2),
            n_workers=1, batch_size=64, epochs=8, seed=3,
            synthetic=SyntheticSpec(
                n_fields=4, vocab_per_field=50, min_active_fields=4,
                max_active_fields=4, noise_rate=0.0, margin_scale=25.0,
            ),
            train_samples=12_000, test_samples=2_000,
        )
        result = train(config)
        assert result.snapshots[-1].auc >= 0.98
