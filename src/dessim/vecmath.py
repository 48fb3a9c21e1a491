"""Small dense kernels shared by the sharded engine and its reference paths.

``matmul_rows`` multiplies every row of x by a matrix with BLAS. Its inner
dimension K goes to BLAS in chunks of at most ``K_CHUNK`` rows of the
matrix, one product of C-contiguous operands per chunk, and the chunk
products are added first to last into a C-contiguous result. BLAS picks
its own summation order within a chunk, so the bits depend on the numpy
and BLAS build and on the host, but not on the operands' memory layout
(C-order, F-order and transposed views all reach BLAS as the same
C-contiguous buffers). With OpenBLAS they do not depend on the number of
BLAS threads either. OpenBLAS threads a product over its outputs, never
over the inner sum, but it blocks a long inner sum in one place when
serial and in another when threaded. A chunk no longer than its smallest
inner block (GEMM_Q, at least 256 for its x86-64 kernels) is summed in one
block either way. The engine and the
unsharded reference both go through ``matmul_rows``, so a sharded
computation evaluated at one worker reproduces the unsharded one bit for
bit on any one build.

``matmul_rows`` also gives each output row the same bits alone and inside
a block of any number of rows; held-out evaluation relies on this when it
forwards many batches as one pass. numpy hands a single row or a single
output column to BLAS's vector kernels, which treat a block's last rows
(its last M mod 4 with OpenBLAS on x86-64) apart from the others. So x is
padded with zero rows to a multiple of ``ROW_GROUP``, whose outputs are
dropped. A BLAS may still switch kernels with a product's size:
scipy-openblas 0.3.31 on an AVX-512 Xeon does for some outputs 2 to 8 wide
with an inner dimension of 80 or more. Output widths 1 and 16, the defaults,
are tested. ``vecmat`` multiplies one vector, unpadded: a weight gradient summed
over a batch, which BLAS is given as a vector product.

``scatter_add_rows`` sums value rows into target rows, each target seeing
its values in occurrence order. It runs numpy's one-dimensional
``np.add.at`` once per column into a column-major buffer. That path adds in
occurrence order, as the two-dimensional ``np.add.at`` does, at a fraction
of its cost.
"""

import numpy as np

from .errors import DimensionError

SIGMOID_CLAMP = 1e-15
K_CHUNK = 256
ROW_GROUP = 16


def _chunked_product(x, mat):
    """x @ mat for C-contiguous operands, over chunks of K added first to last."""
    out = np.ascontiguousarray(x[..., :K_CHUNK] @ mat[:K_CHUNK])
    for lo in range(K_CHUNK, mat.shape[0], K_CHUNK):
        out += x[..., lo : lo + K_CHUNK] @ mat[lo : lo + K_CHUNK]
    return out


def matmul_rows(x, mat):
    """Every row of x against mat, in row groups of ``ROW_GROUP``: chunked BLAS products."""
    x = np.asarray(x)
    mat = np.ascontiguousarray(mat)
    if x.ndim != 2 or mat.ndim != 2 or x.shape[1] != mat.shape[0]:
        raise DimensionError(f"matmul_rows: incompatible shapes {x.shape} and {mat.shape}")
    m = x.shape[0]
    if m % ROW_GROUP:
        padded = np.zeros((m + ROW_GROUP - m % ROW_GROUP, x.shape[1]), dtype=x.dtype)
        padded[:m] = x
        return _chunked_product(padded, mat)[:m]
    return _chunked_product(np.ascontiguousarray(x), mat)


def vecmat(v, mat):
    """The vector v against mat: chunked BLAS vector products, unpadded."""
    v = np.ascontiguousarray(v)
    mat = np.ascontiguousarray(mat)
    if v.ndim != 1 or mat.ndim != 2 or v.shape[0] != mat.shape[0]:
        raise DimensionError(f"vecmat: incompatible shapes {v.shape} and {mat.shape}")
    return _chunked_product(v, mat)


def scatter_add_rows(index, values, n_rows):
    """out[index[i]] += values[i] for every row i in order; out has n_rows rows."""
    out = np.zeros((values.shape[1], n_rows), dtype=values.dtype)
    for c in range(values.shape[1]):
        np.add.at(out[c], index, values[:, c])
    return np.ascontiguousarray(out.T)


def sigmoid(z):
    """Logistic function evaluated in float64, clamped away from 0 and 1.

    The clamp keeps log-loss finite; 1e-15 is only meaningful in double
    precision, so the result is always float64 regardless of input dtype.
    """
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-z))
    return np.clip(p, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def relu(x):
    return np.maximum(x, 0)
