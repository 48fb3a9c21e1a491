"""Criteo-format ingestion and a seeded synthetic stream generator.

Feature keys are 64-bit hashes of stable strings ("I{i}" for continuous
columns, "C{j}:{token}" for categorical ones; see ``sparse.hash_text``), so
identical tokens map to identical keys across runs and processes. Per hash
seed, the 13 integer-column keys are constants, and each categorical column
keeps a keyed hash state that has already absorbed "C{j}:", so a token costs
one state copy plus its own bytes. Integer values come from a bounded memo
of ``float(np.log1p(x))``; ``math.log1p`` can differ from numpy's in the last
bit. The synthetic generator draws labels from a hidden logistic model, which
gives training runs a knowable signal level and a controllable noise floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ParseError
from .models import SparseBatch
from .sparse import hash_text, text_hasher

N_INT_FEATURES = 13
N_CAT_FEATURES = 26
N_CRITEO_FIELDS = N_INT_FEATURES + N_CAT_FEATURES
CRITEO_COLUMNS = 1 + N_INT_FEATURES + N_CAT_FEATURES


@dataclass(frozen=True)
class CriteoRecord:
    label: int
    integers: tuple
    categoricals: tuple


def _where(line_no):
    return f" at line {line_no}" if line_no is not None else ""


def parse_criteo(line, line_no=None):
    """One 40-column TSV line; empty cells become None.

    Raises ``ParseError`` naming the line for a wrong column count, a label
    other than 0 or 1, or an integer cell that is not an integer (naming its
    column too; the label is column 1).
    """
    parts = line.rstrip("\n").split("\t")
    if len(parts) != CRITEO_COLUMNS:
        raise ParseError(
            f"expected {CRITEO_COLUMNS} tab-separated columns, got {len(parts)}{_where(line_no)}"
        )
    try:
        label = int(parts[0])
    except ValueError:
        label = None
    if label not in (0, 1):
        raise ParseError(f"bad label {parts[0]!r}, expected 0 or 1{_where(line_no)}")
    cells = parts[1 : 1 + N_INT_FEATURES]
    try:
        ints = tuple([int(p) if p else None for p in cells])
    except ValueError:
        for col, cell in enumerate(cells, 2):
            try:
                int(cell or 0)
            except ValueError:
                raise ParseError(
                    f"bad integer {cell!r} in column {col}{_where(line_no)}"
                ) from None
        raise
    cats = tuple([p if p else None for p in parts[1 + N_INT_FEATURES :]])
    return CriteoRecord(label=label, integers=ints, categoricals=cats)


@functools.lru_cache(maxsize=4096)
def _int_value(x):
    """log(1+x) for x >= 0, else 0, by numpy: ``math.log1p`` can differ in the last bit."""
    return float(np.log1p(x)) if x >= 0 else 0.0


@functools.lru_cache(maxsize=16)
def _column_hashers(hash_seed):
    """Per seed: the integer columns' keys and the categorical columns' states."""
    int_keys = tuple(hash_text(f"I{i}", hash_seed) for i in range(N_INT_FEATURES))
    cat_states = tuple(text_hasher(f"C{j}:", hash_seed) for j in range(N_CAT_FEATURES))
    return int_keys, cat_states


def featurize(record, hash_seed=0):
    """(field, key, value) triples for one record.

    Continuous column i keeps one key per field ("I{i}") and carries its
    signal in the value, log(1+x) for x >= 0 and 0 for negative x.
    Categorical column j contributes key hash("C{j}:{token}") with value 1.
    Missing cells emit nothing. A hash seed outside ``[0, 2**64)`` raises
    ``ValueError``.
    """
    int_keys, cat_states = _column_hashers(hash_seed)
    out = [(i, int_keys[i], _int_value(x)) for i, x in enumerate(record.integers) if x is not None]
    for j, token in enumerate(record.categoricals):
        if token is not None:
            h = cat_states[j].copy()
            h.update(token.encode("utf-8"))
            out.append((N_INT_FEATURES + j, int.from_bytes(h.digest(), "little"), 1.0))
    return out


def read_criteo_batches(path, batch_size, split="all", hash_seed=0, limit=None):
    """Yield SparseBatch objects from a Criteo TSV file.

    The train/test split is positional: every twentieth line is test, the
    rest train. Sample order within a split follows file order. An unknown
    split or a hash seed outside ``[0, 2**64)`` raises ``ValueError`` before
    the file is opened.
    """
    if split not in ("train", "test", "all"):
        raise ValueError(f"unknown split {split!r}")
    _column_hashers(hash_seed)  # checks the seed even when the file has no records
    labels, samples = [], []
    n_used = 0
    with open(path, "rt", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            if limit is not None and line_no >= limit:
                break
            is_test = line_no % 20 == 19
            if split == "train" and is_test:
                continue
            if split == "test" and not is_test:
                continue
            record = parse_criteo(line, line_no=line_no + 1)
            labels.append(record.label)
            samples.append(featurize(record, hash_seed))
            n_used += 1
            if n_used == batch_size:
                yield SparseBatch.from_samples(labels, samples)
                labels, samples = [], []
                n_used = 0
    if labels:
        yield SparseBatch.from_samples(labels, samples)


@dataclass(frozen=True)
class SyntheticSpec:
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

    def to_config(self):
        return {
            "n_fields": self.n_fields,
            "vocab_per_field": self.vocab_per_field,
            "min_active_fields": self.min_active_fields,
            "max_active_fields": self.max_active_fields,
            "truth_seed": self.truth_seed,
            "noise_rate": self.noise_rate,
            "positive_rate": self.positive_rate,
            "margin_scale": self.margin_scale,
        }

    @staticmethod
    def from_config(doc):
        unknown = set(doc) - {f.name for f in dc_fields(SyntheticSpec)}
        if unknown:
            raise ValueError(f"unknown synthetic spec keys: {', '.join(sorted(unknown))}")
        return SyntheticSpec(**doc)


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

    def logits(self, tokens):
        fields = np.arange(self.spec.n_fields)[None, :]
        return self.weights[fields, tokens].sum(axis=1) + self.bias


def gen_synthetic(spec, n_samples, batch_size, seed):
    """Yield seeded SparseBatch objects; the same arguments replay the stream."""
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
        z = truth.logits(tokens)
        # inactive fields do not contribute signal
        if spec.min_active_fields != spec.n_fields:
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
