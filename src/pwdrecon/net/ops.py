"""Differentiable 1-D primitives on batched (N, C, L) float64 arrays.

Each forward has a matching backward computing exact analytic gradients;
correctness is pinned by finite-difference checks in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import OddLength, ShapeMismatch


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation with zero 'same' padding.

    x: (N, Cin, L); w: (Cout, Cin, k) with k odd; b: (Cout,).
    out[n, o, t] = b[o] + sum_{i,j} w[o,i,j] * x[n, i, t + j - k//2]
    Per-window matmuls keep each window's output bits independent of its
    batch; one GEMM over the batch (as in the backward) would not be.
    """
    if x.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(
            f"input channels {x.shape} incompatible with kernel {w.shape}")
    n, _, L = x.shape
    cout, cin, k = w.shape
    pad = k // 2
    xp = np.zeros((n, cin, L + k - 1))
    xp[:, :, pad:pad + L] = x
    out = np.empty((n, cout, L))
    out[:] = b[:, None]
    for j in range(k):
        out += np.matmul(w[:, :, j], xp[:, :, j:j + L])
    return out


def _flat(a: np.ndarray, pad: int) -> np.ndarray:
    """(N, C, L) -> (C, N*(L + 2*pad)): windows end to end, zero-padded."""
    n, c, L = a.shape
    flat = np.zeros((c, n, L + 2 * pad))
    flat[:, :, pad:pad + L] = a.transpose(1, 0, 2)
    return flat.reshape(c, -1)


def conv1d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients of conv1d_forward; returns (dx, dw, db).

    On the `_flat` layout each tap is one GEMM over the whole batch: dw
    correlates dout with x, dx correlates dout with the flipped, transposed
    kernel; the k//2 zeros keep every tap inside its own window.
    """
    n, cin, L = x.shape
    k = w.shape[2]
    pad = k // 2
    xf, df = _flat(x, pad), _flat(dout, pad)
    m = xf.shape[1] - 2 * pad  # positions whose k taps stay inside xf
    db = dout.sum(axis=(0, 2))
    dw = np.empty_like(w)
    dxf = np.zeros_like(xf)
    for j in range(k):
        dw[:, :, j] = df[:, pad:pad + m] @ xf[:, j:j + m].T
        dxf[:, :m] += w[:, :, k - 1 - j].T @ df[:, j:j + m]
    return dxf.reshape(cin, n, -1)[:, :, :L].transpose(1, 0, 2), dw, db


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def maxpool2_forward(x: np.ndarray):
    """Halve length by pairwise max; returns (out, argmax in {0,1})."""
    if x.shape[-1] % 2 != 0:
        raise OddLength(f"maxpool2 needs even length, got {x.shape[-1]}")
    pairs = x.reshape(*x.shape[:-1], -1, 2)
    arg = pairs.argmax(axis=-1)
    out = np.take_along_axis(pairs, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool2_backward(arg: np.ndarray, dout: np.ndarray) -> np.ndarray:
    dpairs = np.zeros((*dout.shape, 2))
    np.put_along_axis(dpairs, arg[..., None], dout[..., None], axis=-1)
    return dpairs.reshape(*dout.shape[:-1], dout.shape[-1] * 2)


def upsample2_forward(x: np.ndarray) -> np.ndarray:
    """Double length by nearest-neighbor repetition."""
    return np.repeat(x, 2, axis=-1)


def upsample2_backward(dout: np.ndarray) -> np.ndarray:
    return dout.reshape(*dout.shape[:-1], -1, 2).sum(axis=-1)


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean of squared error over every element; returns (loss, dpred)."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n
