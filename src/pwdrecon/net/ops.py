"""Differentiable 1-D primitives on batched (N, C, L) float arrays, each
computed in the dtype of its inputs.

Each forward has a matching backward computing exact analytic gradients;
correctness is pinned by finite-difference checks in the test suite. The
convolution knows no windows: it runs over one flat batch of N*L columns.
"""

from __future__ import annotations

import numpy as np


def _shift(s: int, m: int) -> tuple[slice, slice]:
    """(dst, src): the columns t and t + s that both lie in m columns."""
    return (slice(max(-s, 0), max(min(m, m - s), 0)),
            slice(max(s, 0), max(min(m, m + s), 0)))


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation with zero 'same' padding over the N windows laid
    end to end, as one flat batch that is zero past its two ends.

    x: (N, Cin, L); w: (Cout, Cin, k) with k odd; b: (Cout,). On x and
    out read as (Cin, N*L) and (Cout, N*L) flat batches:
    out[o, t] = b[o] + sum_{i,j} w[o,i,j] * x[i, t + j - k//2]
    One GEMM over the batch computes every tap; k shifted adds sum them.
    """
    n, cin, L = x.shape
    cout, _, k = w.shape
    taps = (w.transpose(2, 0, 1).reshape(k * cout, cin)
            @ x.transpose(1, 0, 2).reshape(cin, n * L)).reshape(k, cout, n * L)
    out = np.repeat(b, n * L).reshape(cout, n * L)
    for j in range(k):
        dst, src = _shift(j - k // 2, n * L)
        out[:, dst] += taps[j, :, src]
    return out.reshape(cout, n, L).transpose(1, 0, 2)


def conv1d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients of conv1d_forward on the same flat batch: (dx, dw, db).

    One im2col of dout, cols[j, o, t] = dout[o, t - j + k//2] (zero past
    the two ends), gives dw = cols @ x.T and dx = w.T @ cols: a GEMM each.
    """
    n, cin, L = x.shape
    cout, _, k = w.shape
    d = dout.transpose(1, 0, 2).reshape(cout, n * L)
    cols = np.empty((k, cout, n * L), dtype=dout.dtype)
    for j in range(k):
        dst, src = _shift(k // 2 - j, n * L)
        cols[j, :, dst] = d[:, src]
        cols[j, :, :dst.start] = cols[j, :, dst.stop:] = 0.0
    cols = cols.reshape(k * cout, n * L)
    dw = cols @ x.transpose(1, 0, 2).reshape(cin, n * L).T
    dx = w.transpose(1, 2, 0).reshape(cin, k * cout) @ cols
    return (dx.reshape(cin, n, L).transpose(1, 0, 2),
            dw.reshape(k, cout, cin).transpose(1, 2, 0).copy(), d.sum(axis=1))


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def maxpool2_forward(x: np.ndarray):
    """Halve length by pairwise max; arg marks where the second is larger."""
    pairs = x.reshape(*x.shape[:-1], -1, 2)
    arg = pairs[..., 1] > pairs[..., 0]
    return np.where(arg, pairs[..., 1], pairs[..., 0]), arg


def maxpool2_backward(arg: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return np.stack([np.where(arg, 0.0, dout), np.where(arg, dout, 0.0)],
                    axis=-1).reshape(*dout.shape[:-1], dout.shape[-1] * 2)


def upsample2_forward(x: np.ndarray) -> np.ndarray:
    """Double length by nearest-neighbor repetition."""
    return np.repeat(x, 2, axis=-1)


def upsample2_backward(dout: np.ndarray) -> np.ndarray:
    return dout[..., ::2] + dout[..., 1::2]


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean of squared error over every element; returns (loss, dpred)."""
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n
