"""Small dense kernels shared by the sharded engine and its reference paths.

The contract ops ``dot`` and ``matvec_t`` accumulate strictly first-to-last.
``matmul_rows`` is the batched twin of ``matvec_t``: it performs the same
per-row multiply-add sequence, so a sharded computation evaluated at one
worker reproduces the unsharded one bit for bit when both go through these
kernels.

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


def dot(a, b):
    """Inner product with strict first-to-last accumulation."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot: incompatible shapes {a.shape} and {b.shape}")
    acc = np.result_type(a, b).type(0)
    for k in range(a.shape[0]):
        acc = acc + a[k] * b[k]
    return acc


def matvec_t(v, mat):
    """Left-multiply: sum of v[r] * mat[r, :] accumulated in row order.

    Equivalent to ``v @ mat`` up to accumulation order.
    """
    v = np.asarray(v)
    mat = np.asarray(mat)
    if v.ndim != 1 or mat.ndim != 2 or v.shape[0] != mat.shape[0]:
        raise DimensionError(f"matvec_t: incompatible shapes {v.shape} and {mat.shape}")
    acc = np.zeros(mat.shape[1], dtype=np.result_type(v, mat))
    for r in range(mat.shape[0]):
        acc += v[r] * mat[r]
    return acc


def matmul_rows(x, mat):
    """Batched ``matvec_t``: every row of x against mat, same row-order accumulation."""
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
