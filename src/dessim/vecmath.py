"""Small dense kernels shared by the sharded engine and its reference paths.

``matmul_rows`` multiplies every row of x by a matrix and adds the K
products of each output element strictly first-to-last, in the matrix's row
order. ``scatter_add_rows`` sums value rows into target rows, each target
seeing its values in occurrence order. The engine and the unsharded reference
both go through them, so a sharded computation evaluated at one worker
reproduces the unsharded one bit for bit.

``matmul_rows`` has two routes to that one sequence, picked by shape alone.
When the inner dimension K is at most the output size M*N (the forward
shapes), it loops over K and adds one rank-1 product per pass into an (N, M)
accumulator whose inner axis is the batch. When K exceeds M*N (the
weight-gradient products, whose inner axis is the batch), the loop would make
K small passes, so it writes a block of products into a C-contiguous
(K, N*M) buffer, adds the running sum into its first row and reduces it with
``np.add.reduce`` down axis 0. numpy reduces an axis that is not the
innermost by adding whole rows to the result one after the other, so every
output element sees the same operands in the same order as the loop, and
adding the zero-initialised running sum first turns a leading -0.0 into +0.0
exactly as the loop does. The order holds only because the buffer is
allocated C-contiguous and the reduced axis is the outer one: over the
innermost axis numpy sums pairwise, which reorders the additions. That is
why the products go into an explicit ``out=`` buffer rather than into
whatever layout the transposed operand would give, and why single-output
products (M*N = 1, where the only axis left is the reduced one) keep a
``np.cumsum`` scan, which adds strictly in order on any axis. Blocks hold at
most ``SCAN_BLOCK_ELEMS`` products, each seeded with the previous block's
total, so memory stays bounded for large K. Both routes return C-contiguous
arrays, so reductions downstream see the layout they always saw.

``scatter_add_rows`` runs numpy's one-dimensional ``np.add.at`` once per
column into a column-major buffer. That path adds in occurrence order, as
the two-dimensional ``np.add.at`` does, at a fraction of its cost.
"""

import numpy as np

from .errors import DimensionError

SIGMOID_CLAMP = 1e-15
SCAN_BLOCK_ELEMS = 1 << 16


def matmul_rows(x, mat):
    """Every row of x against mat, each output summed in mat's row order."""
    x = np.asarray(x)
    mat = np.asarray(mat)
    if x.ndim != 2 or mat.ndim != 2 or x.shape[1] != mat.shape[0]:
        raise DimensionError(f"matmul_rows: incompatible shapes {x.shape} and {mat.shape}")
    m, k = x.shape
    n = mat.shape[1]
    dtype = np.result_type(x, mat)
    if 0 < m * n < k:
        if m * n == 1:
            prods = x[0] * mat[:, 0]
            prods[0] += dtype.type(0)
            return np.cumsum(prods, dtype=dtype)[-1:].reshape(1, 1)
        block = max(1, SCAN_BLOCK_ELEMS // (m * n))
        acc = np.zeros(n * m, dtype=dtype)
        for lo in range(0, k, block):
            hi = min(k, lo + block)
            prods = np.empty((hi - lo, n, m), dtype=dtype)
            np.multiply(mat[lo:hi, :, None], x.T[lo:hi, None, :], out=prods)
            prods = prods.reshape(hi - lo, n * m)
            prods[0] += acc
            acc = np.add.reduce(prods, axis=0)
        return np.ascontiguousarray(acc.reshape(n, m).T)
    acc = np.zeros((n, m), dtype=dtype)
    xt = np.ascontiguousarray(x.T)
    for r in range(k):
        acc += mat[r, :, None] * xt[r]
    return np.ascontiguousarray(acc.T)


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
