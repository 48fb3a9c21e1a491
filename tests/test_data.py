"""Input pipeline: click-log parsing, hashing featurizer, synthetic stream."""

import hashlib
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dessim import data, training
from dessim.data import (
    SyntheticSpec,
    featurize,
    gen_synthetic,
    parse_criteo,
    read_criteo_batches,
)
from dessim.errors import ParseError
from dessim.models import ModelGraph, SparseBatch
from dessim.training import RunConfig, train

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import write_criteo_tsv  # noqa: E402


def make_line(label, ints, cats):
    cells = [str(label)]
    cells += ["" if x is None else str(x) for x in ints]
    cells += ["" if t is None else t for t in cats]
    return "\t".join(cells)


FULL_INTS = list(range(13))
FULL_CATS = [f"tok{j:02d}" for j in range(26)]

# Integer cells outside -?[0-9]{1,18}: int() parses them one at a time.
ODD_INTEGERS = ["+5", " 7", "7 ", "0_1", "007", "-0", "٣", " 12",
                str(10**18), str(2**63 - 1), str(2**63), str(2**64 - 1), "-" + "9" * 25,
                "0" * 30 + "4"]
BAD_INTEGERS = ["x", "-", "1.5", "0x10", "1_", "--1", "1 2", str(2**64), "9" * 21]


# ---------------------------------------------------------------------------
# the per-line reference: the reader as it was, one record and one token at a time

def reference_parse(line, line_no):
    """(label, integers, categoricals) of one line; empty cells are None."""
    where = f" at line {line_no}"
    parts = line.split("\t")
    if len(parts) != 40:
        raise ParseError(f"expected 40 tab-separated columns, got {len(parts)}{where}")
    try:
        label = int(parts[0])
    except ValueError:
        label = None
    if label not in (0, 1):
        raise ParseError(f"bad label {parts[0]!r}, expected 0 or 1{where}")
    ints = []
    for col, cell in enumerate(parts[1:14], 2):
        try:
            x = int(cell) if cell else None
        except ValueError:
            raise ParseError(f"bad integer {cell!r} in column {col}{where}") from None
        if x is not None and x >= 2**64:
            raise ParseError(f"integer {cell!r} in column {col} is 2**64 or more{where}")
        ints.append(x)
    return label, ints, [p if p else None for p in parts[14:]]


def reference_key(text):
    """The one-shot BLAKE2b-64 of the text, keyed with eight zero bytes, little-endian."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8, key=bytes(8)).digest()
    return int.from_bytes(digest, "little")


def reference_featurize(record):
    """One hash and one numpy log1p per cell: the keys and values featurize keeps."""
    _, ints, cats = record
    out = []
    for i, x in enumerate(ints):
        if x is not None:
            value = float(np.log1p(x)) if x >= 0 else 0.0
            out.append((i, reference_key(f"I{i}"), value))
    for j, token in enumerate(cats):
        if token is not None:
            out.append((13 + j, reference_key(f"C{j}:{token}"), 1.0))
    return out


def reference_lines(path):
    """The file's lines under universal newlines, split on the bytes."""
    lines = re.split(rb"\r\n|\r|\n", Path(path).read_bytes())
    if lines[-1] == b"":
        lines.pop()
    return [line.decode("utf-8") for line in lines]


def reference_batches(path, batch_size, split):
    """The reader's batches from per-line parsing and per-token hashing."""
    keep = [(n, line) for n, line in enumerate(reference_lines(path), 1)
            if (n % 20 == 0) == (split == "test")]
    for start in range(0, len(keep), batch_size):
        records = [reference_parse(line, n) for n, line in keep[start : start + batch_size]]
        yield SparseBatch.from_samples(
            [r[0] for r in records], [reference_featurize(r) for r in records])


def batch_bits(batches):
    return [[(name, str(getattr(b, name).dtype), getattr(b, name).tobytes())
             for name in ("labels", "sample_ids", "fields", "keys", "values")]
            for b in batches]


def features_of(text):
    """featurize's output for parsed text, as one (field, key, value) list per line."""
    feats = featurize(parse_criteo(text))
    return [list(zip(feats.fields[a:b].tolist(), feats.keys[a:b].tolist(),
                     feats.values[a:b].tolist()))
            for a, b in zip(feats.offsets[:-1], feats.offsets[1:])]


class TestParsing:
    def test_full_line(self):
        block = parse_criteo(make_line(1, FULL_INTS, FULL_CATS) + "\n")
        assert block.labels.tolist() == [1.0]
        assert block.integers.tolist() == [list(map(float, range(13)))]
        assert [col[0] for col in block.categoricals] == [t.encode() for t in FULL_CATS]
        assert block.present.all()

    def test_empty_cells_become_none(self):
        block = parse_criteo(make_line(0, [None] * 13, [None] * 26))
        assert not block.present.any()
        assert features_of(make_line(0, [None] * 13, [None] * 26)) == [[]]

    def test_wrong_column_count_names_the_line(self):
        with pytest.raises(ParseError, match="got 3 at line 7"):
            parse_criteo("1\t2\t3", 7)

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_criteo(make_line("click", FULL_INTS, FULL_CATS))

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_0_1_names_the_line(self, label):
        with pytest.raises(ParseError, match=r"label .*line 4"):
            parse_criteo(make_line(label, FULL_INTS, FULL_CATS), 4)

    def test_non_integer_cell_names_line_and_column(self):
        ints = [1, 2, "x"] + [None] * 10
        with pytest.raises(ParseError, match=r"'x' in column 4 at line 7"):
            parse_criteo(make_line(1, ints, FULL_CATS), 7)

    def test_wide_integer_cells(self):
        ints = [0, 1, -5, 2**31, 10**12, 10**18 - 1, 2**63, 2**64 - 1, -(2**70)] + [None] * 4
        block = parse_criteo(make_line(0, ints, FULL_CATS))
        want = [float(max(x, 0)) for x in ints[:9]] + [0.0] * 4
        assert block.integers.tolist() == [want]

    @pytest.mark.parametrize("cell", ODD_INTEGERS)
    def test_int_syntax_is_int_s(self, cell):
        block = parse_criteo(make_line(1, [cell] + FULL_INTS[1:], FULL_CATS))
        assert block.integers[0, 0] == float(max(int(cell), 0))

    @pytest.mark.parametrize("cell", BAD_INTEGERS)
    def test_bad_integer_message_matches_reference(self, cell):
        line = make_line(1, [3, 4, cell] + [None] * 10, FULL_CATS)
        with pytest.raises(ParseError) as want:
            reference_parse(line, 9)
        with pytest.raises(ParseError) as got:
            parse_criteo(line, 9)
        assert str(got.value) == str(want.value)
        assert "column 4 " in str(got.value) and "line 9" in str(got.value)

    def test_integer_of_2_64_names_line_and_column(self):
        ints = [1, 2**64 - 1, 2**64] + [None] * 10
        with pytest.raises(ParseError, match=r"'18446744073709551616' in column 4 .*at line 3"):
            parse_criteo(make_line(1, ints, FULL_CATS), 3)

    def test_lines_are_numbered_from_the_first(self):
        good = make_line(1, FULL_INTS, FULL_CATS)
        text = "\n".join([good, good, "1\t2"]) + "\n"
        with pytest.raises(ParseError, match="got 2 at line 12$"):
            parse_criteo(text, 10)
        with pytest.raises(ParseError, match="got 2 at line 90$"):
            parse_criteo(text, np.array([5, 60, 90]))

    def test_first_bad_line_wins_and_columns_are_checked_in_order(self):
        good = make_line(1, FULL_INTS, FULL_CATS)
        bad_int = make_line(0, [1, "y"] + [None] * 11, FULL_CATS)
        bad_label_and_int = make_line(5, [1, "y"] + [None] * 11, FULL_CATS)
        cases = [
            ([good, bad_int, "short"], "'y' in column 3 at line 2"),
            ([good, "short", bad_int], "got 1 at line 2"),
            ([bad_label_and_int, bad_int], "bad label '5', expected 0 or 1 at line 1"),
            ([good, bad_int, bad_label_and_int], "'y' in column 3 at line 2"),
        ]
        for lines, message in cases:
            with pytest.raises(ParseError) as err:
                parse_criteo("\n".join(lines))
            assert str(err.value).endswith(message)

    @pytest.mark.parametrize("text, n_lines", [
        ("", 0), ("L", 1), ("L\n", 1), ("L\r\n", 1), ("L\rL", 2), ("L\r\nL\rL\n", 3)])
    def test_universal_newlines(self, text, n_lines):
        line = make_line(1, FULL_INTS, FULL_CATS)
        block = parse_criteo(text.replace("L", line))
        assert len(block.labels) == n_lines
        assert all(col == [b"tok25"] * n_lines for col in block.categoricals[25:])


class TestFeaturizer:
    def test_integer_value_transform(self):
        feats = features_of(make_line(1, [0, 1, -5] + [None] * 10, [None] * 26))[0]
        by_field = {f: v for f, _, v in feats}
        assert by_field[0] == 0.0
        assert abs(by_field[1] - math.log(2.0)) < 1e-6
        assert by_field[2] == 0.0
        assert set(by_field) == {0, 1, 2}

    def test_integer_key_is_per_column_not_per_value(self):
        a, b = features_of("\n".join(make_line(1, [x] + [None] * 12, [None] * 26)
                                     for x in (3, 9)))
        assert a[0][1] == b[0][1]

    def test_categorical_fields_offset_past_integers(self):
        feats = features_of(make_line(0, [None] * 13, ["x"] + [None] * 25))[0]
        assert feats == [(13, feats[0][1], 1.0)]

    def test_same_token_same_key_across_records(self):
        line = make_line(0, [None] * 13, [None, "abc"] + [None] * 24)
        a, b = features_of(line + "\n" + line)
        assert a == b == features_of(line)[0]

    def test_token_keys_separate_by_column(self):
        feats = features_of(make_line(0, [None] * 13, ["abc", "abc"] + [None] * 24))[0]
        assert feats[0][1] != feats[1][1]

    @pytest.mark.parametrize("data_seed", [0, 1, 2**64 - 1])
    def test_bitwise_equal_to_per_token_reference(self, data_seed):
        """Fixed edge-case lines plus a random draw of odd lines per data seed."""
        lines = odd_log(np.random.default_rng(data_seed), 20) + [
            make_line(1, [0, 1, -5, 2**31, 10**12] + [None] * 8,
                      ["déjà", "キー", None, "aéb"] + [None] * 22),
            make_line(0, [None] * 12 + [7], [None] * 25 + ["ünï"]),
            make_line(0, FULL_INTS, FULL_CATS),
            make_line(1, [None] * 13, [None] * 26),
            make_line(1, ODD_INTEGERS[:13], ["ab", "ab\0", "ab\0\0", "0123456789abcdef0"]
                      + ["déjà"] * 22),
            make_line(0, ODD_INTEGERS[13:] + [None] * 12, ["ab\0", "ab", "ab", "0123456789abcdef1"]
                      + ["\ufefftok"] * 22),
        ]
        got = features_of("\n".join(lines))
        want = [reference_featurize(reference_parse(line, 1)) for line in lines]
        assert [feature_bits(g) for g in got] == [feature_bits(w) for w in want]

    def test_tokens_differing_by_a_trailing_nul_get_their_own_keys(self):
        feats = features_of(make_line(0, [None] * 13, ["ab", "ab"] + [None] * 24) + "\n"
                            + make_line(0, [None] * 13, ["ab\0", "ab\0\0"] + [None] * 24))
        keys = [k for sample in feats for _, k, _ in sample]
        assert len(set(keys)) == 4


def feature_bits(feats):
    """Triples with each value as its float32 bits, so 0.0 and -0.0 differ."""
    return [(int(f), int(k), np.float32(v).tobytes()) for f, k, v in feats]


def odd_log(rng, n_lines, tokens=("déjà", "キー", "ünï", "x", "0a1b2c3d")):
    """Lines with wide and non-canonical integers and varied tokens."""
    wide = [0, 1, -5, 2**31, 10**12, 2**64 - 1, 2**63]
    lines = []
    for _ in range(n_lines):
        ints = [ODD_INTEGERS[rng.integers(len(ODD_INTEGERS))] if rng.random() < 0.1 else
                wide[rng.integers(len(wide))] if rng.random() < 0.2 else
                int(rng.integers(-3, 1000)) if rng.random() < 0.8 else None
                for _ in range(13)]
        cats = [tokens[rng.integers(len(tokens))] + (
                    str(int(rng.integers(0, 50))) if rng.random() < 0.8 else "")
                if rng.random() < 0.9 else None for _ in range(26)]
        lines.append(make_line(int(rng.integers(0, 2)), ints, cats))
    return lines


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
        sizes = [b.batch_size for b in read_criteo_batches(path, 32, split="train")]
        assert sizes == [32, 32, 31]

    def test_unknown_split(self, tmp_path):
        missing = tmp_path / "never-opened.tsv"
        for split in ("dev", "all"):
            with pytest.raises(ValueError, match=f"unknown split '{split}'"):
                list(read_criteo_batches(missing, 8, split=split))
        with pytest.raises(TypeError, match="split"):
            list(read_criteo_batches(missing, 8))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_is_named(self, tmp_path, batch_size):
        missing = tmp_path / "never-opened.tsv"
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            next(read_criteo_batches(missing, batch_size, split="train"))
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            next(gen_synthetic(SyntheticSpec(), 100, batch_size, seed=1))

    @pytest.mark.parametrize("batch_size", [1, 7, 128])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_batches_bitwise_equal_to_reference_reader(self, tmp_path, batch_size, split):
        path = tmp_path / "clicks.tsv"
        path.write_text("\n".join(odd_log(np.random.default_rng(71), 300)) + "\n",
                        encoding="utf-8")
        got = list(read_criteo_batches(path, batch_size, split=split))
        want = list(reference_batches(path, batch_size, split))
        assert len(got) == len(want) > 0
        assert batch_bits(got) == batch_bits(want)

    @pytest.mark.parametrize("batch_size", [1, 7, 128])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_small_blocks_equal_reference_reader(self, tmp_path, monkeypatch, batch_size, split):
        # Blocks of a few lines split the file many times over; every
        # line-ending and token case below crosses some block edge.
        monkeypatch.setattr(data, "BLOCK_LINES", 3)
        rng = np.random.default_rng(72)
        tokens = ("0123456789abcdef", "déjà-vu-encore", "ab", "ab\0", "ab\0\0", "キー",
                  "\ufeffbom", "aéb")
        lines = odd_log(rng, 400, tokens)
        ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines), p=[0.6, 0.2, 0.2])
        text = "".join(line + end for line, end in zip(lines, ends))[:-1]  # no final newline
        path = tmp_path / "clicks.tsv"
        path.write_bytes(text.encode("utf-8"))
        got = list(read_criteo_batches(path, batch_size, split=split))
        want = list(reference_batches(path, batch_size, split))
        assert sum(b.batch_size for b in got) == (380 if split == "train" else 20)
        assert batch_bits(got) == batch_bits(want)

    def test_crlf_across_a_read_chunk_counts_once(self, tmp_path):
        # Text-mode files decode 8,192 bytes at a time; put a \r\n across that edge.
        line = make_line(1, FULL_INTS, FULL_CATS)
        head = "\n".join([line] * 40) + "\n"
        pad = 8191 - len(head.encode()) - len(line.encode())
        first = make_line(1, FULL_INTS, ["p" * (pad + 5)] + FULL_CATS[1:])
        text = head + first + "\r\n" + line + "\r\n"
        assert text.encode().index(b"\r\n", len(head)) == 8191
        path = tmp_path / "clicks.tsv"
        path.write_bytes(text.encode())
        got = list(read_criteo_batches(path, 64, split="train"))
        assert sum(b.batch_size for b in got) == 40
        assert batch_bits(got) == batch_bits(reference_batches(path, 64, "train"))

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "broken.tsv"
        good = make_line(1, FULL_INTS, FULL_CATS)
        path.write_text(good + "\n" + "not\ta\tlog\tline\n")
        with pytest.raises(ParseError, match="line 2"):
            list(read_criteo_batches(path, 8, split="train"))

    @pytest.mark.parametrize("bad", [
        "not\ta\tlog", "",
        make_line("click", FULL_INTS, FULL_CATS),
        make_line(1, [1, 2, 3, "1.5"] + [None] * 9, FULL_CATS),
        make_line(1, [2**64] + [None] * 12, FULL_CATS),
    ])
    @pytest.mark.parametrize("line_no", [29, 40])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_errors_in_a_later_block_match_reference(
            self, tmp_path, monkeypatch, bad, line_no, split):
        monkeypatch.setattr(data, "BLOCK_LINES", 8)
        lines = odd_log(np.random.default_rng(73), 60)
        lines[line_no - 1] = bad
        path = tmp_path / "broken.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            want = batch_bits(reference_batches(path, 8, split))
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                list(read_criteo_batches(path, 8, split=split))
            assert str(got.value) == str(err)
            assert f"line {line_no}" in str(err)
        else:
            assert (line_no % 20 == 0) != (split == "test")
            assert batch_bits(read_criteo_batches(path, 8, split=split)) == want

    def test_bom_reaches_the_label_cell(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text("\ufeff" + make_line(1, FULL_INTS, FULL_CATS) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad label '\\ufeff1', expected 0 or 1 at line 1$"):
            list(read_criteo_batches(path, 8, split="train"))

    def test_invalid_utf8_raises_decode_error(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        line = make_line(1, FULL_INTS, FULL_CATS)
        path.write_bytes((line + "\n" + line.replace("tok03", "t\xe9k")).encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            list(read_criteo_batches(path, 8, split="train"))

    def test_memory_is_per_block_not_per_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_LINES", 256)

        def peak(n_lines):
            path = write_criteo_tsv(tmp_path / f"clicks-{n_lines}.tsv", seed=3, n_lines=n_lines)
            tracemalloc.start()
            try:
                n = sum(b.batch_size for b in read_criteo_batches(path, 128, split="train"))
                return n, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (n_small, small), (n_large, large) = peak(1500), peak(6000)
        assert n_large == 4 * n_small
        # A block of 256 lines needs about 1 MB at its peak. Memory held
        # across blocks would grow with the file; the bound allows a quarter
        # of a block's peak and 256 KB on top of the small file's.
        assert large < 1.25 * small + 2**18, (small, large)
        assert large < 4 * 2**20, large


class TestCriteoTrainingBits:
    def runs(self, tmp_path, monkeypatch, epochs):
        """(metrics, ledger records, checkpoint bytes) of the block reader's run
        and of a run on the per-line reference reader's batch lists."""
        path = write_criteo_tsv(tmp_path / "clicks.tsv", seed=9, n_lines=2000)

        def run(name):
            cfg = RunConfig(graph=ModelGraph(kind="fm", n_fields=39, seed=4), n_workers=2,
                            batch_size=128, epochs=epochs, seed=4, data=str(path),
                            out_dir=str(tmp_path / name))
            result = train(cfg)
            checkpoint = Path(result.checkpoint_path).read_bytes()
            return ([s.deterministic_fields() for s in result.snapshots],
                    result.group.ledger.records(), checkpoint)

        got = run("block-reader")
        monkeypatch.setattr(training, "load_batches", lambda cfg, split: list(
            reference_batches(Path(cfg.data), cfg.batch_size, split)))
        return got, run("per-line-reader")

    def test_train_run_equals_per_line_reference_reader(self, tmp_path, monkeypatch):
        got, want = self.runs(tmp_path, monkeypatch, epochs=1)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_two_epochs_equal_per_line_reference_reader(self, tmp_path, monkeypatch):
        # The second epoch reads the training split from the file again.
        got, want = self.runs(tmp_path, monkeypatch, epochs=2)
        assert [s[0] for s in got[0]] == [15, 30]
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]


class TestStreamedTrainingSplit:
    def config(self, path, **overrides):
        base = dict(graph=ModelGraph(kind="fm", n_fields=39, seed=4), n_workers=2,
                    batch_size=128, epochs=2, seed=4, data=str(path))
        return RunConfig(**{**base, **overrides})

    def test_every_pass_reads_the_same_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_LINES", 64)
        path = write_criteo_tsv(tmp_path / "clicks.tsv", seed=8, n_lines=1000)
        source = training.load_batches(self.config(path, batch_size=32), "train")
        first, second = batch_bits(source), batch_bits(source)
        assert len(first) == math.ceil(950 / 32)
        assert first == second == batch_bits(reference_batches(path, 32, "train"))

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_a_run_reads_the_file_once_per_epoch_and_once_for_held_out(
            self, tmp_path, monkeypatch, epochs):
        # The check that the training split is not empty reads nothing.
        reads = []

        def counting(*args, **kwargs):
            reads.append(args)
            return read_criteo_batches(*args, **kwargs)

        monkeypatch.setattr(training, "read_criteo_batches", counting)
        path = write_criteo_tsv(tmp_path / "clicks.tsv", seed=8, n_lines=300)
        result = train(self.config(path, epochs=epochs))
        assert len(result.snapshots) == epochs
        assert len(reads) == 1 + epochs

    def test_train_holds_one_block_of_training_batches(self, tmp_path, monkeypatch):
        # Steps and evaluation are stubbed out, so what train allocates is the
        # engine, the held-out list and the training split as it is read.
        monkeypatch.setattr(training.SubstitutedModel, "train_step", lambda engine, batch: None)
        monkeypatch.setattr(training, "evaluate", lambda engine, batches: (0.5, 0.5))

        def peak(n_lines):
            path = write_criteo_tsv(tmp_path / f"clicks-{n_lines}.tsv", seed=3, n_lines=n_lines)
            cfg = self.config(path)
            tracemalloc.start()
            try:
                held_out = training.load_batches(cfg, "test")
                held_out_bytes = tracemalloc.get_traced_memory()[0]
                del held_out
                tracemalloc.reset_peak()
                train(cfg)
                return held_out_bytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (_, small), (held_out, large) = peak(1500), peak(6000)
        # Four times the lines may add only the larger held-out list: a run
        # that kept the training split would hold 5,700 lines of batches, not 512.
        assert large <= small + held_out, (small, large, held_out)


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
