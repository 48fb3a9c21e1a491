r"""Criteo-format ingestion and a seeded synthetic stream generator.

The Criteo reader works on blocks of lines: ``BLOCK_LINES`` lines of the
split, rounded to whole batches, so its working memory is one block however
long the file is. Lines come from a text-mode file, so universal newlines
and decoding are Python's: ``\n``, ``\r\n`` and a lone ``\r`` end a line,
invalid UTF-8 raises ``UnicodeDecodeError``, and a byte-order mark stays part
of the first cell. ``parse_criteo`` finds a block's tabs and newlines with
numpy and checks and parses its labels and integer cells as arrays.
``featurize`` hashes each distinct (column, token) of the block once and
scatters the keys back, and each ``SparseBatch`` is cut from the block's flat
arrays.

An integer cell matching ``-?[0-9]{1,18}`` is parsed as an array; any other
non-empty cell goes through ``int()`` one at a time, so the accepted syntax
is ``int()``'s (a sign, surrounding whitespace, underscores between digits,
non-ASCII digits). Values of 2**64 or more are rejected.

A feature key is the BLAKE2b-64 digest of a stable string, keyed with eight
zero bytes and read as a little-endian integer: "I{i}" for continuous column
i, "C{j}:{token}" for categorical column j and a token's UTF-8 bytes. So
identical tokens map to identical keys across runs and processes. The 13
integer-column keys are constants, and each categorical column keeps a hash
state that has already absorbed "C{j}:", both built at import, so a token
costs one state copy plus its own bytes. Integer values are one ``np.log1p``
over the block. The synthetic generator draws labels from a hidden logistic
model, which gives training runs a knowable signal level and a controllable
noise floor.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .artifacts import ConfigDocument
from .errors import ParseError
from .models import SampleFeatures, SparseBatch

N_INT_FEATURES = 13
N_CAT_FEATURES = 26
N_CRITEO_FIELDS = N_INT_FEATURES + N_CAT_FEATURES
CRITEO_COLUMNS = 1 + N_INT_FEATURES + N_CAT_FEATURES
BLOCK_LINES = 512  # lines per parsed block, before rounding to whole batches
HELD_OUT_EVERY = 20  # line n (from 1) is held out when n % 20 == 0

# An integer cell of an optional minus and at most this many ASCII digits
# fits int64 and is parsed as an array.
_ARRAY_DIGITS = 18
_TAB, _NEWLINE, _MINUS, _ZERO = 9, 10, 45, 48


@dataclass(frozen=True)
class CriteoBlock:
    """Parsed lines, in columns.

    ``labels`` is 0.0 or 1.0 per line. ``integers`` holds each integer cell
    as the nearest float64, with negative and empty cells as 0 (log(1+x)
    reads a negative x as 0). ``present`` marks the non-empty cells of the 39
    feature columns. ``categoricals`` holds, per categorical column, a list
    of its cells' UTF-8 bytes, ``b""`` where empty.
    """

    labels: np.ndarray
    integers: np.ndarray
    present: np.ndarray
    categoricals: tuple


def parse_criteo(text, first_line_no=1):
    r"""Parse 40-column tab-separated lines into a ``CriteoBlock``.

    ``\n``, ``\r\n`` and a lone ``\r`` end a line; the last need not end.
    Lines are numbered from ``first_line_no``, or by ``first_line_no[i]``
    when it is an array (the reader's blocks hold one split, which skips
    line numbers). Raises ``ParseError`` at the first bad line, naming it:
    for a column count other than 40, a label other than 0 or 1, or an
    integer cell that is not an integer or is 2**64 or more (naming its
    column too; the label is column 1).
    """
    raw = text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8")
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    line_ends = np.flatnonzero(buf == _NEWLINE)
    n = len(line_ends)
    if np.ndim(first_line_no) == 0:
        line_nos = first_line_no + np.arange(n)
    else:
        line_nos = np.asarray(first_line_no)
    tabs = np.flatnonzero(buf == _TAB)
    n_cols = np.diff(np.searchsorted(tabs, line_ends), prepend=0) + 1
    wrong = np.flatnonzero(n_cols != CRITEO_COLUMNS)
    n_ok = int(wrong[0]) if wrong.size else n
    errors = []  # (line index, column, message); the smallest is raised
    if n_ok < n:
        errors.append((n_ok, 0, f"expected {CRITEO_COLUMNS} tab-separated columns, "
                                f"got {n_cols[n_ok]}"))

    # Cell c of line i spans raw[starts[i, c]:ends[i, c]], for lines before the first bad count.
    bounds = tabs[: n_ok * (CRITEO_COLUMNS - 1)].reshape(n_ok, CRITEO_COLUMNS - 1)
    line_starts = np.concatenate(([0], line_ends[: n_ok - 1] + 1))[:n_ok]
    starts = np.column_stack((line_starts, bounds + 1))
    ends = np.column_stack((bounds, line_ends[:n_ok]))

    def cell(i, c):
        return raw[starts[i, c] : ends[i, c]].decode("utf-8")

    first = buf[starts[:, 0]]
    labels = (first - _ZERO).astype(np.float64)
    # Label cells other than "0" and "1" go through int(); bytes below "0" wrap past 1.
    for i in np.flatnonzero((ends[:, 0] - starts[:, 0] != 1) | (first - _ZERO > 1)).tolist():
        try:
            label = int(cell(i, 0))
        except ValueError:
            label = None
        if label not in (0, 1):
            errors.append((i, 1, f"bad label {cell(i, 0)!r}, expected 0 or 1"))
            break
        labels[i] = label

    integers, present_ints = _parse_integers(
        buf, starts[:, 1 : 1 + N_INT_FEATURES], ends[:, 1 : 1 + N_INT_FEATURES])
    for i, c in np.argwhere(present_ints & np.isnan(integers)).tolist():
        value = cell(i, 1 + c)
        try:
            x = int(value)
        except ValueError:
            errors.append((i, 2 + c, f"bad integer {value!r} in column {2 + c}"))
            break
        if x >= 2**64:
            errors.append((i, 2 + c, f"integer {value!r} in column {2 + c} is 2**64 or more"))
            break
        integers[i, c] = float(max(x, 0))
    if errors:
        i, _, message = min(errors)
        raise ParseError(f"{message} at line {line_nos[i]}")

    cells = raw.replace(b"\n", b"\t").split(b"\t")
    present = np.empty((n, N_CRITEO_FIELDS), dtype=bool)
    present[:, :N_INT_FEATURES] = present_ints
    present[:, N_INT_FEATURES:] = ends[:, 1 + N_INT_FEATURES :] > starts[:, 1 + N_INT_FEATURES :]
    return CriteoBlock(
        labels=labels,
        integers=integers,
        present=present,
        categoricals=tuple(
            cells[1 + N_INT_FEATURES + j : n * CRITEO_COLUMNS : CRITEO_COLUMNS]
            for j in range(N_CAT_FEATURES)
        ),
    )


def _parse_integers(buf, starts, ends):
    """Integer cells as float64, negative and empty ones as 0, and which are non-empty.

    Cells of an optional minus and 1 to 18 ASCII digits are parsed here;
    every other non-empty cell is NaN, for the caller to parse one at a time.
    """
    width = ends - starts
    present = width > 0
    negative = buf[starts] == _MINUS  # an empty cell's start is its closing tab
    span = int(min(width.max(initial=0), _ARRAY_DIGITS + 1))
    padded = np.concatenate((np.zeros(span, dtype=np.uint8), buf))
    # The last `span` bytes before each cell's end: window[..., k] is buf[end - span + k].
    window = np.lib.stride_tricks.sliding_window_view(padded, span)[ends]
    digits = window - _ZERO  # bytes below "0" wrap past 9
    digit = (np.arange(span) >= (span - width)[..., None]) & (digits <= 9)
    n_digits = digit.sum(axis=-1)
    ok = (n_digits == width - negative) & (n_digits >= 1) & (n_digits <= _ARRAY_DIGITS)
    digits[~digit] = 0
    value = np.zeros(starts.shape, dtype=np.int64)
    for k in range(span):
        value = value * 10 + digits[..., k]
    integers = np.where(ok & ~negative, value, 0).astype(np.float64)
    integers[present & ~ok] = np.nan
    return integers, present


_blake2b_64 = functools.partial(hashlib.blake2b, digest_size=8, key=bytes(8))
_INT_KEYS = np.frombuffer(b"".join(_blake2b_64(f"I{i}".encode()).digest()
                                   for i in range(N_INT_FEATURES)), dtype="<u8")
_CAT_STATES = tuple(_blake2b_64(f"C{j}:".encode()) for j in range(N_CAT_FEATURES))


def featurize(block):
    """A parsed block's features as a ``SampleFeatures``, line by line.

    Continuous column i keeps one key per field ("I{i}") and carries its
    signal in the value, log(1+x) for x >= 0 and 0 for negative x.
    Categorical column j contributes key hash("C{j}:{token}") with value 1;
    each distinct token of a column is hashed once per block. Empty cells
    emit nothing. Within a sample, features follow field order.
    """
    n = len(block.labels)
    keys = np.empty((n, N_CRITEO_FIELDS), dtype=np.uint64)
    values = np.ones((n, N_CRITEO_FIELDS), dtype=np.float32)
    keys[:, :N_INT_FEATURES] = _INT_KEYS
    values[:, :N_INT_FEATURES] = np.log1p(block.integers)
    for j, (state, column) in enumerate(zip(_CAT_STATES, block.categoricals)):
        digests = dict.fromkeys(column)
        for token in digests:
            h = state.copy()
            h.update(token)
            digests[token] = h.digest()
        keys[:, N_INT_FEATURES + j] = np.frombuffer(
            b"".join(map(digests.__getitem__, column)), dtype="<u8")
    present = block.present
    return SampleFeatures(
        offsets=np.concatenate(([0], np.cumsum(present.sum(axis=1)))),
        fields=np.broadcast_to(np.arange(N_CRITEO_FIELDS), present.shape)[present],
        keys=keys[present],
        values=values[present],
    )


def read_criteo_batches(path, batch_size, split):
    """Yield SparseBatch objects of one split of a Criteo TSV file.

    The split is ``"train"`` or ``"test"`` and is positional: every
    twentieth line is test, the rest train. Sample order within a split
    follows file order. The split's lines are parsed ``BLOCK_LINES`` at a
    time, rounded to whole batches, so memory in use is one block plus the
    batches the caller keeps. Another split or a batch size below 1 raises
    ``ValueError`` before the file is opened.
    """
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    held_out = split == "test"
    block_lines = batch_size * max(1, BLOCK_LINES // batch_size)
    with open(path, "rt", encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(fh, 1)
                    if (n % HELD_OUT_EVERY == 0) == held_out)
        while chunk := list(islice(numbered, block_lines)):
            line_nos, lines = zip(*chunk)
            block = parse_criteo("".join(lines), np.array(line_nos))
            features = featurize(block)
            labels = block.labels
            # Free the block's per-cell objects before the batches are made,
            # so that long-lived batches do not pin the memory they held.
            del block, chunk, lines
            for start in range(0, len(labels), batch_size):
                stop = start + batch_size
                yield SparseBatch.from_samples(labels[start:stop], features[start:stop])


@dataclass(frozen=True)
class SyntheticSpec(ConfigDocument):
    """Hidden-logistic-model generator settings."""

    n_fields: int = 10
    vocab_per_field: int = 1000
    min_active_fields: int = 10
    max_active_fields: int = 10
    truth_seed: int = 7
    noise_rate: float = 0.1
    positive_rate: float = 0.5
    margin_scale: float = 2.0

    def __post_init__(self):
        if self.n_fields < 1 or self.vocab_per_field < 1:
            raise ValueError("need positive field count and vocabulary")
        if not 1 <= self.min_active_fields <= self.max_active_fields <= self.n_fields:
            raise ValueError("active-field range must fit inside [1, n_fields]")
        if not 0 <= self.noise_rate < 0.5:
            raise ValueError("noise rate must lie in [0, 0.5)")
        if not 0 < self.positive_rate < 1:
            raise ValueError("positive rate must lie in (0, 1)")


class SyntheticTruth:
    """Hidden weights plus a bias calibrated to hit the positive rate.

    The bias is found by bisection on a seeded probe of raw logits, because
    for wide logit distributions E[sigmoid(z + b)] is far from
    sigmoid(E[z] + b) and a closed-form bias would miss the target rate.
    """

    def __init__(self, spec):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence((spec.truth_seed, 11)))
        self.weights = rng.uniform(
            -spec.margin_scale, spec.margin_scale, (spec.n_fields, spec.vocab_per_field)
        )
        probe_rng = np.random.default_rng(np.random.SeedSequence((spec.truth_seed, 12)))
        probe_tokens = probe_rng.integers(spec.vocab_per_field, size=(4096, spec.n_fields))
        probe = self.weights[np.arange(spec.n_fields)[None, :], probe_tokens].sum(axis=1)
        lo, hi = -40.0, 40.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.mean(1.0 / (1.0 + np.exp(-(probe + mid)))) < spec.positive_rate:
                lo = mid
            else:
                hi = mid
        self.bias = 0.5 * (lo + hi)


def gen_synthetic(spec, n_samples, batch_size, seed):
    """Yield seeded SparseBatch objects; the same arguments replay the stream.

    A batch size below 1 raises ``ValueError``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    truth = SyntheticTruth(spec)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 21)))
    remaining = int(n_samples)
    while remaining > 0:
        b = min(batch_size, remaining)
        remaining -= b
        tokens = rng.integers(spec.vocab_per_field, size=(b, spec.n_fields))
        if spec.min_active_fields == spec.n_fields:
            active = np.ones((b, spec.n_fields), dtype=bool)
        else:
            counts = rng.integers(spec.min_active_fields, spec.max_active_fields + 1, size=b)
            order = np.argsort(rng.random((b, spec.n_fields)), axis=1)
            active = order < counts[:, None]
        # inactive fields do not contribute signal
        contrib = truth.weights[np.arange(spec.n_fields)[None, :], tokens]
        z = (contrib * active).sum(axis=1) + truth.bias
        p = 1.0 / (1.0 + np.exp(-z))
        labels = (rng.random(b) < p).astype(np.float64)
        flip = rng.random(b) < spec.noise_rate
        labels = np.where(flip, 1.0 - labels, labels)

        sample_ids, fields = np.nonzero(active)
        keys = tokens[sample_ids, fields].astype(np.uint64)
        values = np.ones(len(sample_ids), dtype=np.float32)
        yield SparseBatch(
            labels=labels,
            sample_ids=sample_ids.astype(np.int64),
            fields=fields.astype(np.int64),
            keys=keys,
            values=values,
        )
