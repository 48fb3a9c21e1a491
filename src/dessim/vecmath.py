"""Small dense kernels shared by the sharded engine and its reference paths.

``matmul_rows`` multiplies every row of x by a matrix and adds the K
products of each output element strictly first-to-last, in the matrix's row
order. The engine and the unsharded reference both go through it, so a
sharded computation evaluated at one worker reproduces the unsharded one bit
for bit.

``matmul_rows`` has two routes to that one sequence. When the inner
dimension K is at most the output size (the forward shapes), it loops over K
and adds one rank-1 product per pass. When K exceeds the output size (the
weight-gradient products, whose inner axis is the batch), the loop would make
K small passes, so it forms the K products at once, adds the running zero to
the first, and runs ``np.cumsum`` down the K axis. ``cumsum`` accumulates
strictly in order, out[i] = out[i-1] + p[i], so every output element sees the
same operands in the same order as the loop, and adding the zero first turns
a leading -0.0 into +0.0 exactly as the loop's zero-initialised accumulator
does. A plain ``np.add.reduce`` over K would not do: numpy reduces a
contiguous axis pairwise, which reorders the additions. The products are
formed in blocks of at most ``SCAN_BLOCK_ELEMS`` elements, each block seeded
with the previous block's total, so memory stays bounded for large K.
"""

import numpy as np

from .errors import DimensionError

SIGMOID_CLAMP = 1e-15
SCAN_BLOCK_ELEMS = 1 << 18


def matmul_rows(x, mat):
    """Every row of x against mat, each output summed in mat's row order."""
    x = np.asarray(x)
    mat = np.asarray(mat)
    if x.ndim != 2 or mat.ndim != 2 or x.shape[1] != mat.shape[0]:
        raise DimensionError(f"matmul_rows: incompatible shapes {x.shape} and {mat.shape}")
    m, k = x.shape
    n = mat.shape[1]
    acc = np.zeros((m, n), dtype=np.result_type(x, mat))
    if 0 < m * n < k:
        block = max(1, SCAN_BLOCK_ELEMS // (m * n))
        for lo in range(0, k, block):
            prods = x.T[lo : lo + block, :, None] * mat[lo : lo + block, None, :]
            prods[0] += acc
            np.cumsum(prods, axis=0, dtype=prods.dtype, out=prods)
            acc = prods[-1].copy()
        return acc
    for r in range(k):
        acc += x[:, r : r + 1] * mat[r]
    return acc


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
