"""Activations, losses, and optimizer state.

Everything is float64 and pure: functions return new arrays, and the only
mutable object is the ParamStore that the optimizer updates in place
(single writer) and whose gradient views DualStreamModel.backward writes.
The store keeps every parameter, gradient and AdamW moment in four flat
vectors in layout order, so an optimizer step is one blocked pass over them
and a snapshot or a checkpoint one whole-vector operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def smooth_l1(pred, target):
    """Huber-style loss with beta 1: 0.5*d^2 for |d| < 1, else |d| - 0.5."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise NumericError("smooth_l1: non-finite input")
    d = pred - target
    a = np.abs(d)
    out = np.where(a < 1.0, 0.5 * d * d, a - 0.5)
    return out if out.ndim else float(out)


def smooth_l1_grad(pred, target):
    """d/dpred of smooth_l1: d for |d| < 1, else sign(d)."""
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    out = np.where(np.abs(d) < 1.0, d, np.sign(d))
    return out if out.ndim else float(out)


def binary_cross_entropy(logit, label):
    """BCE against a logit, stable for large |logit|: softplus(z) - y*z.

    The hinge part max(z,0) - y*z is grouped first: it is exactly 0 or |z|
    for hard labels, so the softplus tail is not absorbed when the loss is
    tiny (saturated-correct regime).
    """
    z = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericError("binary_cross_entropy: non-finite logit")
    out = np.log1p(np.exp(-np.abs(z))) + (np.maximum(z, 0.0) - y * z)
    return out if out.ndim else float(out)


def binary_cross_entropy_grad(logit, label):
    """d/dlogit of BCE = sigmoid(z) - y."""
    out = sigmoid(logit) - np.asarray(label, dtype=np.float64)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# parameter store and AdamW
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """One entry's views into the store's flat value and grad vectors."""

    value: np.ndarray
    grad: np.ndarray


class ParamStore:
    """Named parameters over four contiguous float64 vectors (value, grad and
    the AdamW moments m1, m2) laid out in the order of an ordered
    {name: shape} table; entries[name] holds reshaped views into value and
    grad, so writes through either side are seen by both."""

    def __init__(self, layout: dict[str, tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in layout.values()]
        total = sum(sizes)
        self.value = np.zeros(total)
        self.grad = np.zeros(total)
        self.m1 = np.zeros(total)
        self.m2 = np.zeros(total)
        self.step_count = 0
        self.entries: dict[str, Param] = {}
        offset = 0
        for (name, shape), size in zip(layout.items(), sizes):
            window = slice(offset, offset + size)
            self.entries[name] = Param(self.value[window].reshape(shape),
                                       self.grad[window].reshape(shape))
            offset += size

    def __getitem__(self, name: str) -> Param:
        return self.entries[name]


ADAMW_BLOCK = 1 << 15   # elements per block: 256 kB per vector, so a block's
                        # four vectors and two temporaries stay in L2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adamw_step(store: ParamStore, lr: float, wd: float) -> ParamStore:
    """Decoupled weight decay (applied before the Adam update), then
    bias-corrected Adam with the ADAM_* decay rates and epsilon, over the
    flat vectors one cache-sized block at a time. Leaves the store untouched
    if any grad is non-finite.
    """
    if not np.isfinite(store.grad).all():
        name = next(k for k, p in store.entries.items()
                    if not np.isfinite(p.grad).all())
        raise NumericError(f"adamw_step: non-finite gradient in '{name}'")
    store.step_count += 1
    t = store.step_count
    bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    tmp_block = np.empty(min(ADAMW_BLOCK, store.value.size))
    denom_block = np.empty_like(tmp_block)
    # in place with two temporaries: value *= 1 - lr*wd;
    # m1 = beta1*m1 + (1-beta1)*g; m2 = beta2*m2 + (1-beta2)*g*g;
    # value -= lr * (m1/bc1) / (sqrt(m2/bc2) + eps). A scalar product
    # commutes exactly, so every element rounds as in that formula, and
    # each element's ops do not depend on the block it falls in.
    for start in range(0, store.value.size, ADAMW_BLOCK):
        window = slice(start, start + ADAMW_BLOCK)
        value, g = store.value[window], store.grad[window]
        m1, m2 = store.m1[window], store.m2[window]
        tmp, denom = tmp_block[: g.size], denom_block[: g.size]
        value *= 1.0 - lr * wd
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m1 *= ADAM_BETA1
        m1 += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        m2 *= ADAM_BETA2
        m2 += tmp
        np.divide(m2, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m1, bc1, out=tmp)
        tmp *= lr
        tmp /= denom
        value -= tmp
    return store

