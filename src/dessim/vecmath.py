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


def matmul_rows(x, mat):
    """Every row of x against mat: BLAS products over chunks of K, added in order."""
    x = np.ascontiguousarray(x)
    mat = np.ascontiguousarray(mat)
    if x.ndim != 2 or mat.ndim != 2 or x.shape[1] != mat.shape[0]:
        raise DimensionError(f"matmul_rows: incompatible shapes {x.shape} and {mat.shape}")
    out = np.ascontiguousarray(x[:, :K_CHUNK] @ mat[:K_CHUNK])
    for lo in range(K_CHUNK, x.shape[1], K_CHUNK):
        out += x[:, lo : lo + K_CHUNK] @ mat[lo : lo + K_CHUNK]
    return out


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
