"""Dense kernel contracts: accumulation order, dimension checks, clamping."""

import math

import numpy as np
import pytest

from dessim import vecmath
from dessim.errors import DimensionError
from dessim.vecmath import SIGMOID_CLAMP, matmul_rows, relu, sigmoid


def row_order_reference(x, mat):
    """The row-order loop both matmul_rows routes must reproduce bit for bit."""
    acc = np.zeros((x.shape[0], mat.shape[1]), dtype=np.result_type(x, mat))
    for r in range(mat.shape[0]):
        acc += x[:, r : r + 1] * mat[r]
    return acc


def dot(a, b):
    """matmul_rows on one row and one column: the inner product of two vectors."""
    return matmul_rows(np.asarray(a)[None, :], np.asarray(b)[:, None])[0, 0]


def matvec_t(v, mat):
    """matmul_rows on a single row: v times mat, summed in mat's row order."""
    return matmul_rows(np.asarray(v)[None, :], mat)[0]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDot:
    """A one-by-one ``matmul_rows`` is a first-to-last inner product."""

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
            assert np.array_equal(matvec_t(v, mat), want)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matvec_t(np.ones(3), np.ones((2, 2)))


class TestMatmulRows:
    def test_is_batched_matvec_t_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 4)).astype(np.float32)
        mat = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
        out = matmul_rows(x, mat)
        for i in range(x.shape[0]):
            assert np.array_equal(out[i], matvec_t(x[i], mat))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_routes_match_row_order_loop(self, dtype):
        rng = np.random.default_rng(3)
        routes = set()
        for _ in range(200):
            m, k, n = (int(v) for v in rng.integers([1, 0, 1], [7, 200, 5]))
            # x arrives as a transposed view, as in the weight-gradient products
            x = rng.standard_normal((k, m)).astype(dtype).T
            mat = rng.standard_normal((k, n)).astype(dtype)
            x[rng.random(x.shape) < 0.1] = -0.0
            mat[rng.random(mat.shape) < 0.1] = -0.0
            routes.add(m * n < k)
            assert_bitwise(matmul_rows(x, mat), row_order_reference(x, mat))
        assert routes == {True, False}

    def test_signed_zero_products_sum_to_positive_zero(self):
        x = np.full((2, 5), -0.0, dtype=np.float32)
        mat = np.ones((5, 1), dtype=np.float32)
        out = matmul_rows(x, mat)
        assert_bitwise(out, row_order_reference(x, mat))
        assert not np.signbit(out).any()

    def test_empty_inner_dimension(self):
        for m, n in ((3, 2), (1, 1)):
            out = matmul_rows(np.ones((m, 0), np.float32), np.ones((0, n), np.float32))
            assert_bitwise(out, np.zeros((m, n), np.float32))

    def test_scan_blocks_carry_the_running_sum(self, monkeypatch):
        monkeypatch.setattr(vecmath, "SCAN_BLOCK_ELEMS", 10)
        rng = np.random.default_rng(4)
        for m, k, n in ((1, 97, 1), (1, 45, 2), (2, 50, 3), (3, 1000, 3)):
            x = rng.standard_normal((m, k)).astype(np.float32)
            mat = rng.standard_normal((k, n)).astype(np.float32)
            assert_bitwise(matmul_rows(x, mat), row_order_reference(x, mat))

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            matmul_rows(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DimensionError):
            matmul_rows(np.ones(3), np.ones((3, 2)))


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
