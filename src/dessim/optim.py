"""Online-learning optimizers applied shard-locally.

Every update is a pure transition: given stacked weights, their slot arrays,
and gradients of the same shape, ``step`` returns new arrays and touches
nothing else. Entries that never received a gradient are never read or
written, which is what makes sparse updates lazy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import ConfigDocument


# Each kind's learning rate when a config gives none; ftrl steps by ftrl_alpha.
DEFAULT_LR = {"ftrl": 0.01, "adagrad": 0.05, "adam": 0.001}


@dataclass(frozen=True)
class OptimizerConfig(ConfigDocument):
    kind: str
    lr: float = None  # DEFAULT_LR[kind] when not given
    # follow-the-regularized-leader
    ftrl_alpha: float = 0.05
    ftrl_beta: float = 1.0
    l1: float = 1e-4
    l2: float = 1e-4
    # adaptive moments
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in DEFAULT_LR:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr is None:
            object.__setattr__(self, "lr", DEFAULT_LR[self.kind])
        if self.kind != "ftrl" and self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.kind == "ftrl" and (self.ftrl_alpha <= 0 or self.ftrl_beta < 0):
            raise ValueError("ftrl needs alpha > 0 and beta >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("moment decays must lie in [0, 1)")

    def slot_widths(self, dim):
        """Slot layout per entry; the adam step counter is one scalar per entry."""
        if self.kind == "ftrl":
            return {"z": dim, "n": dim}
        if self.kind == "adagrad":
            return {"acc": dim}
        return {"m": dim, "v": dim, "t": 1}


def _check_grad(grad):
    if np.isnan(grad).any():
        bad = int(np.isnan(grad).sum())
        raise ValueError(f"gradient contains {bad} NaN component(s) of {grad.size}")


def step(cfg, weights, slots, grads):
    """One optimizer step over stacked rows; returns (new_weights, new_slots).

    All arithmetic stays in the weight dtype so repeated runs are bitwise
    reproducible in either precision.
    """
    weights = np.asarray(weights)
    grads = np.asarray(grads)
    if grads.shape != weights.shape:
        raise ValueError(f"gradient shape {grads.shape} != weight shape {weights.shape}")
    _check_grad(grads)
    dt = weights.dtype
    g = grads.astype(dt, copy=False)

    if cfg.kind == "ftrl":
        z, n = slots["z"], slots["n"]
        alpha = dt.type(cfg.ftrl_alpha)
        beta = dt.type(cfg.ftrl_beta)
        l1 = dt.type(cfg.l1)
        l2 = dt.type(cfg.l2)
        sigma = (np.sqrt(n + g * g) - np.sqrt(n)) / alpha
        z_new = z + g - sigma * weights
        n_new = n + g * g
        shrunk = -(z_new - np.sign(z_new) * l1) / ((beta + np.sqrt(n_new)) / alpha + l2)
        w_new = np.where(np.abs(z_new) <= l1, dt.type(0), shrunk)
        return w_new.astype(dt), {"z": z_new, "n": n_new}

    if cfg.kind == "adagrad":
        acc = slots["acc"]
        lr = dt.type(cfg.lr)
        eps = dt.type(cfg.eps)
        acc_new = acc + g * g
        w_new = weights - lr * g / (np.sqrt(acc_new) + eps)
        return w_new, {"acc": acc_new}

    m, v, t = slots["m"], slots["v"], slots["t"]
    lr = dt.type(cfg.lr)
    b1 = dt.type(cfg.beta1)
    b2 = dt.type(cfg.beta2)
    eps = dt.type(cfg.eps)
    t_new = t + dt.type(1)
    m_new = b1 * m + (dt.type(1) - b1) * g
    v_new = b2 * v + (dt.type(1) - b2) * g * g
    m_hat = m_new / (dt.type(1) - np.power(b1, t_new))
    v_hat = v_new / (dt.type(1) - np.power(b2, t_new))
    w_new = weights - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w_new, {"m": m_new, "v": v_new, "t": t_new}


def init_dense_state(cfg, size, dtype):
    """Slot arrays for one dense tensor flattened to a single row."""
    return {
        name: np.zeros((1, 1 if name == "t" else size), dtype=dtype)
        for name in cfg.slot_widths(1)
    }


def dense_step(cfg, weight, state, grad):
    """Apply ``step`` to a dense tensor of any shape; returns (new_weight, new_state)."""
    flat_w = weight.reshape(1, -1)
    flat_g = np.asarray(grad).reshape(1, -1)
    new_w, new_state = step(cfg, flat_w, state, flat_g)
    return new_w.reshape(weight.shape), new_state
