"""Dense kernel contracts: layout and thread independence, rounding, dimension checks, clamping."""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dessim
from dessim import vecmath
from dessim.collectives import WorkerGroup
from dessim.data import SyntheticSpec, gen_synthetic
from dessim.errors import DimensionError
from dessim.models import ModelGraph, SparseBatch, SubstitutedModel
from dessim.vecmath import SIGMOID_CLAMP, matmul_rows, relu, scatter_add_rows, sigmoid

# (m, k, n) of the engine's products: forward products up to B=2048, weight
# gradients summed over the batch, and single outputs, which numpy hands to
# BLAS as dot products
ENGINE_SHAPES = [
    (2048, 24, 16), (512, 16, 16), (512, 16, 1), (2048, 16, 1), (2048, 3, 1),
    (16, 512, 16), (24, 2048, 16), (1, 512, 24), (2048, 3000, 1), (700, 1500, 2),
    (1, 9, 1), (1, 10, 1), (1, 1000, 1), (2, 9, 1), (1, 9, 2), (3, 64, 3),
]


def row_order_reference(x, mat):
    """The textbook product: every output summed first-to-last in mat's row order."""
    acc = np.zeros((x.shape[0], mat.shape[1]), dtype=np.result_type(x, mat))
    for r in range(mat.shape[0]):
        acc += x[:, r : r + 1] * mat[r]
    return acc


def assert_within_sum_rounding(got, want, x, mat):
    """got and want are x @ mat in got's dtype, summed in any two orders.

    Each order of the K additions, with or without fused multiply-adds, is
    within about K * eps / 2 * (|x| @ |mat|) of the exact product, so two
    orders differ by at most about K * eps times that; the bound allows twice.
    """
    assert got.dtype == want.dtype == np.result_type(x, mat) and got.shape == want.shape
    size = row_order_reference(np.abs(x).astype(np.float64), np.abs(mat).astype(np.float64))
    gap = np.abs(got.astype(np.float64) - want.astype(np.float64))
    assert np.all(gap <= 2 * (x.shape[1] + 1) * np.finfo(got.dtype).eps * size)


def relayouts(a):
    """The values of a as a C-order array, an F-order array and a transposed view."""
    return [np.ascontiguousarray(a), np.asfortranarray(a), np.ascontiguousarray(a.T).T]


def add_at_reference(index, values, n_rows):
    """The two-dimensional np.add.at that scatter_add_rows must reproduce bit for bit."""
    out = np.zeros((n_rows, values.shape[1]), dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def dot(a, b):
    """matmul_rows on one row and one column: the inner product of two vectors."""
    return matmul_rows(np.asarray(a)[None, :], np.asarray(b)[:, None])[0, 0]


def matvec_t(v, mat):
    """matmul_rows on a single row: v times mat."""
    return matmul_rows(np.asarray(v)[None, :], mat)[0]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDot:
    """A one-by-one ``matmul_rows`` is the inner product of two vectors."""

    def test_orthogonal(self):
        assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_accumulation(self):
        assert dot(np.array([0.5, -1.0]), np.array([1.0, 2.0])) == -1.5

    def test_squared_norm(self):
        x = np.array([3.0, 4.0])
        assert dot(x, x) == 25.0

    def test_commutativity_within_one_ulp(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(-1, 1, 7)
            b = rng.uniform(-1, 1, 7)
            ab = float(dot(a, b))
            ba = float(dot(b, a))
            assert abs(ab - ba) <= np.spacing(max(abs(ab), abs(ba), 1e-300))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot(np.array([1.0]), np.array([1.0, 2.0]))


class TestMatvecT:
    """A single-row ``matmul_rows`` is the vector-times-matrix product it batches."""

    def test_identity(self):
        out = matvec_t(np.array([1.0, 0.0]), np.eye(2))
        assert np.array_equal(out, np.array([1.0, 0.0]))

    def test_scalar_matrix(self):
        out = matvec_t(np.array([1.0, 2.0]), 2.0 * np.eye(2))
        assert np.array_equal(out, np.array([2.0, 4.0]))

    def test_hand_matmul(self):
        out = matvec_t(np.array([1.0, 2.0]), np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert np.array_equal(out, np.array([5.0, 11.0]))

    def test_against_double_loop_oracle(self):
        # BLAS sums in its own order, so the oracle agrees up to rounding
        rng = np.random.default_rng(1)
        for _ in range(25):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            v = rng.uniform(-2, 2, rows)
            mat = rng.uniform(-2, 2, (rows, cols))
            want = np.zeros(cols)
            for r in range(rows):
                for c in range(cols):
                    want[c] += v[r] * mat[r, c]
            assert_within_sum_rounding(matvec_t(v, mat)[None, :], want[None, :], v[None, :], mat)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matvec_t(np.ones(3), np.ones((2, 2)))


def product_digest():
    """sha256 over matmul_rows at every engine shape, on inputs seeded by the shape.

    The two wide products past the engine shapes have inner dimensions that
    OpenBLAS, given them whole, blocks one way when serial and another when
    threaded.
    """
    digest = hashlib.sha256()
    for m, k, n in ENGINE_SHAPES + [(64, 1500, 64), (400, 1100, 400)]:
        rng = np.random.default_rng([m, k, n])
        x = rng.standard_normal((m, k)).astype(np.float32)
        mat = rng.standard_normal((k, n)).astype(np.float32)
        digest.update(matmul_rows(x, mat).tobytes())
    return digest.hexdigest()


def engine_digest():
    """sha256 over the logits and checkpoint of three deepfm steps at N=2, B=2048."""
    engine = SubstitutedModel(ModelGraph(kind="deepfm", n_fields=10, seed=5), WorkerGroup(2))
    digest = hashlib.sha256()
    for batch in gen_synthetic(SyntheticSpec(n_fields=10), 3 * 2048, 2048, 5):
        digest.update(engine.train_step(batch).logit.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        engine.save_checkpoint(path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestMatmulRows:
    def test_is_batched_matvec_t(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 4)).astype(np.float32)
        mat = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
        out = matmul_rows(x, mat)
        for i in range(x.shape[0]):
            assert_within_sum_rounding(out[i : i + 1], matvec_t(x[i], mat)[None, :], x[i : i + 1], mat)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_shapes_match_row_order_loop(self, dtype):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, k, n = (int(v) for v in rng.integers([1, 0, 1], [7, 200, 5]))
            # x arrives as a transposed view, as in the weight-gradient products
            x = rng.standard_normal((k, m)).astype(dtype).T
            mat = rng.standard_normal((k, n)).astype(dtype)
            x[rng.random(x.shape) < 0.1] = -0.0
            mat[rng.random(mat.shape) < 0.1] = -0.0
            got = matmul_rows(x, mat)
            assert got.flags.c_contiguous
            assert_within_sum_rounding(got, row_order_reference(x, mat), x, mat)

    @pytest.mark.parametrize("margin", [None, 7])
    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("m, k, n", ENGINE_SHAPES)
    def test_engine_shapes_match_row_order_loop(self, m, k, n, layout, margin):
        """Same bytes from every operand layout, within rounding of the row-order loop.

        x is C-order or the transpose of a C-order array (as the weight
        gradients pass it), and owns its buffer or is cut ``margin`` columns
        into a wider one; either way, and as an F-order array, it gives the
        bytes of its C-order copy, as do all three layouts of the matrix.
        """
        rng = np.random.default_rng([m, k, n])
        rows, cols = (m, k) if layout == "C" else (k, m)
        buf = rng.standard_normal((rows, cols + (margin or 0))).astype(np.float32)
        x = buf[:, margin:] if layout == "C" else buf[:, margin:].T
        mat = rng.standard_normal((k, n)).astype(np.float32)
        x[rng.random(x.shape) < 0.05] = -0.0
        got = matmul_rows(x, mat)
        assert got.flags.c_contiguous
        for x_layout in relayouts(x):
            for mat_layout in relayouts(mat):
                assert_bitwise(matmul_rows(x_layout, mat_layout), got)
        assert_within_sum_rounding(got, row_order_reference(x, mat), x, mat)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        """Every engine shape, and three deepfm training steps, in fresh processes.

        BLAS reads its thread count once, at load, so each count needs its
        own interpreter.
        """
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import test_vecmath as t; "
            "print(t.product_digest(), t.engine_digest())"
        )
        paths = [os.path.dirname(os.path.dirname(dessim.__file__)), os.environ.get("PYTHONPATH", "")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            done = subprocess.run(
                [sys.executable, "-c", code, os.path.dirname(__file__)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_signed_zero_products_sum_to_positive_zero(self):
        for m in (1, 2):
            x = np.full((m, 5), -0.0, dtype=np.float32)
            mat = np.ones((5, 1), dtype=np.float32)
            out = matmul_rows(x, mat)
            assert_bitwise(out, row_order_reference(x, mat))
            assert not np.signbit(out).any()

    def test_empty_inner_dimension(self):
        for m, n in ((3, 2), (1, 1)):
            out = matmul_rows(np.ones((m, 0), np.float32), np.ones((0, n), np.float32))
            assert_bitwise(out, np.zeros((m, n), np.float32))

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            matmul_rows(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DimensionError):
            matmul_rows(np.ones(3), np.ones((3, 2)))


class TestScatterAddRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_dimensional_add_at(self, dtype):
        rng = np.random.default_rng(6)
        shapes = ((0, 3, 2), (1, 1, 1), (40, 3, 1), (1536, 512, 8), (900, 64, 17))
        for length, n_rows, cols in shapes:
            index = rng.integers(0, n_rows, length)
            values = rng.standard_normal((length, cols)).astype(dtype)
            values[rng.random(values.shape) < 0.2] = -0.0
            got = scatter_add_rows(index, values, n_rows)
            assert got.flags.c_contiguous
            assert_bitwise(got, add_at_reference(index, values, n_rows))

    def test_repeated_index_sums_in_occurrence_order(self):
        # in float32, (1e8 + 1) - 1e8 is 0 but (1e8 - 1e8) + 1 is 1
        values = np.array([[1e8], [1.0], [-1e8]], dtype=np.float32)
        out = scatter_add_rows(np.array([1, 1, 1]), values, 2)
        assert_bitwise(out, np.array([[0.0], [0.0]], dtype=np.float32))

    def test_signed_zeros_sum_to_positive_zero(self):
        values = np.full((4, 3), -0.0, dtype=np.float32)
        out = scatter_add_rows(np.array([0, 0, 2, 2]), values, 3)
        assert not np.signbit(out).any()
        assert_bitwise(out, add_at_reference(np.array([0, 0, 2, 2]), values, 3))


def random_batch(rng, n_fields, batch_size, vocab):
    counts = rng.integers(0, 2 * n_fields, batch_size)
    n = int(counts.sum())
    values = rng.uniform(-1, 1.5, n).astype(np.float32)
    values[rng.random(n) < 0.05] = -0.0
    return SparseBatch(
        labels=rng.integers(0, 2, batch_size).astype(np.float64),
        sample_ids=np.repeat(np.arange(batch_size), counts),
        fields=rng.integers(0, n_fields, n),
        keys=rng.integers(0, vocab, n).astype(np.uint64),
        values=values,
    )


def train_and_checkpoint(kind, n_workers, path):
    """Bytes of two training steps' logits, a third step's gradients, and the checkpoint."""
    # the second hidden layer makes a bias gradient sum a product's output
    # down axis 0, which is where the output's memory layout reaches the bits
    graph = ModelGraph(kind=kind, n_fields=4, embedding_dim=3, first_fc_width=4,
                       hidden_widths=(5, 6), seed=11)
    engine = SubstitutedModel(graph, WorkerGroup(n_workers))
    rng = np.random.default_rng(12)
    batches = [random_batch(rng, 4, 64, 20) for _ in range(3)]
    logits = [engine.train_step(b).logit.tobytes() for b in batches[:2]]
    fwd = engine.forward(batches[2])
    logits.append(fwd.logit.tobytes())
    grads = []
    for rp in engine.backward(fwd).ranks:
        grads += [g.tobytes() for _, g in sorted(rp.dense_grads.items())]
        grads += [g.tobytes() for g in rp.grads.values()]
        if rp.fc_grads is not None:
            grads.append(rp.fc_grads.tobytes())
    engine.save_checkpoint(path)
    with np.load(path, allow_pickle=False) as arrays:
        return logits, grads, {name: arrays[name].tobytes() for name in arrays.files}


@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("kind", ["fm", "wdl", "deepfm", "dcn-demo"])
def test_engine_bits_equal_reference_kernels(monkeypatch, tmp_path, kind, n_workers):
    """The engine trained on the fast scatter kernel and on its plain reference agrees bit for bit.

    The unsharded reference model shares the engine's kernels, so only a run
    on an independent reference kernel can see a kernel that reorders a sum.
    ``matmul_rows`` sums in BLAS's order, which has no bit-exact reference.
    """
    fast = train_and_checkpoint(kind, n_workers, tmp_path / "fast.npz")
    monkeypatch.setattr(vecmath, "scatter_add_rows", add_at_reference)
    reference = train_and_checkpoint(kind, n_workers, tmp_path / "reference.npz")
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2].keys() == reference[2].keys()
    for name, data in fast[2].items():
        assert data == reference[2][name], name


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_clamped(self):
        # 1/(1+e^-40) is closer to 1 than the clamp allows
        assert sigmoid(40.0) == 1.0 - SIGMOID_CLAMP
        assert sigmoid(-40.0) == SIGMOID_CLAMP

    def test_scalar_value(self):
        assert abs(float(sigmoid(-1.25)) - 0.22270) < 5e-6

    def test_symmetry(self):
        for z in np.linspace(-30, 30, 101):
            assert abs(float(sigmoid(z)) + float(sigmoid(-z)) - 1.0) < 1e-12

    def test_always_double(self):
        out = sigmoid(np.array([0.25], dtype=np.float32))
        assert out.dtype == np.float64

    def test_huge_negative_does_not_overflow(self):
        assert sigmoid(-1e6) == SIGMOID_CLAMP


def test_relu():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.5]))


def test_relu_matrix():
    x = np.array([[-1.0, 2.0], [0.5, -0.5]], dtype=np.float32)
    out = relu(x)
    assert out.dtype == np.float32
    assert np.array_equal(out, np.array([[0.0, 2.0], [0.5, 0.0]], dtype=np.float32))


def test_sigmoid_against_math_exp():
    for z in (-3.0, -0.1, 0.7, 5.0):
        assert abs(float(sigmoid(z)) - 1.0 / (1.0 + math.exp(-z))) < 1e-15
