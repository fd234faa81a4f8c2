"""Filtering, resampling, normalization and windowing primitives.

Applied to both the extracted fECG stream, an (n,) array, and the PwD
envelope stream, (2, n) rows. Filtering, z-scoring and mean centering
work along the last axis, so a row-wise call equals one call per row;
resampling takes one row at a time. The two stream filters are constant
second-order-section arrays designed at TARGET_FS, and the zero-phase
filter that applies them is numpy only: no command loads scipy.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import TARGET_FS, WindowSet
from .errors import DegenerateInput, SignalTooShort

WINDOW_SECONDS = (0.25, 0.5, 0.75, 1.0, 2.0)
BLOCK = 128  # samples per block of a causal filter pass

# scipy.signal.butter(4, (0.1, 50.0), btype="bandpass", output="sos",
# fs=284.0) and scipy.signal.bessel(..., norm="mag", ...), to the bit
_DESIGNS = {
    "butterworth": np.array([
        [0.030878661622733793, 0.06175732324546759, 0.030878661622733793,
         1.0, -0.493881985337107, 0.09626580563303222],
        [1.0, 2.0, 1.0, 1.0, -0.6688832313798122, 0.49143237755708297],
        [1.0, -2.0, 1.0, 1.0, -1.9959051303948405, 0.995910045083102],
        [1.0, -2.0, 1.0, 1.0, -1.9983075398390697, 0.998312435480049]]),
    "bessel": np.array([
        [0.06823190091261237, 0.13646380182522475, 0.06823190091261237,
         1.0, -0.12956273521978684, 0.025556338573965658],
        [1.0, 2.0, 1.0, 1.0, -0.014579871322133542, 0.23447186667463601],
        [1.0, -2.0, 1.0, 1.0, -1.997031076332924, 0.997033477919708],
        [1.0, -2.0, 1.0, 1.0, -1.9982852855420736, 0.9982871941120999]]),
}


def design_bandpass(kind: str) -> np.ndarray:
    """The stable 0.1-50 Hz bandpass biquad cascade at 284 Hz from a
    Butterworth or Bessel analog prototype of order 4.

    Discretization is bilinear with band-edge prewarping. Bessel
    prototypes are magnitude-normalized (-3 dB at the band edges).
    Returns the (4, 6) second-order sections, one [b0, b1, b2, 1, a1, a2]
    row each, in a copy of its own that the caller may write to.
    """
    try:
        return _DESIGNS[kind].copy()
    except KeyError:
        raise ValueError(f"unknown filter kind: {kind!r}") from None


@functools.cache
def _block_operators(coeffs: tuple) -> tuple:
    """The operators that run the cascade of the flattened sections
    `coeffs` BLOCK samples at a time, as one linear system of m = 2 per
    section states.

    The states are the cascade's modal coordinates (each pole pair a
    scaled rotation), so powers of the transition do not amplify
    rounding. Returns (zi, gains, outputs, steps): zi (m,) is the state
    that a unit constant input holds still, the steady state that
    scipy's sosfilt_zi gives section by section; a block's samples
    times gains (BLOCK, BLOCK + m) are its zero-state outputs and then
    its zero-state end state; a start state times outputs (m, BLOCK) is
    that state's share of the block's outputs; and steps[d] carries a
    state across 2**d blocks.
    """
    sos = np.array(coeffs).reshape(-1, 6)
    m = 2 * len(sos)
    # transposed direct form II per section, over [states, input]
    ab = np.zeros((m, m + 1))
    u = np.zeros(m + 1)
    u[m] = 1.0
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        y = b0 * u
        y[2 * k] += 1.0
        ab[2 * k] = b1 * u - a1 * y
        ab[2 * k, 2 * k + 1] += 1.0
        ab[2 * k + 1] = b2 * u - a2 * y
        u = y
    # each pole pair's rotation plane, from the eigenvector of its upper
    # pole: both stream filters' poles are complex pairs
    poles, vectors = np.linalg.eig(ab[:, :m])
    columns = []
    for pole, v in zip(poles, vectors.T):
        if pole.imag > 0:
            columns += [v.real, v.imag]
    basis = np.array(columns).T
    to_modal = np.linalg.inv(basis)
    a = to_modal @ ab[:, :m] @ basis
    b = to_modal @ ab[:, m]
    c, d = u[:m] @ basis, u[m]
    zi = np.linalg.solve(np.eye(m) - a, b)
    outputs = np.empty((m, BLOCK))  # column i: (c a**i)^T
    inputs = np.empty((BLOCK, m))   # row i: a**i b
    o, v = c, b
    for i in range(BLOCK):
        outputs[:, i], inputs[i] = o, v
        o, v = o @ a, a @ v
    impulse = np.concatenate([[d], outputs[:, :-1].T @ b])
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    gains = np.concatenate(
        [np.where(lag <= 0, impulse[np.abs(lag)], 0.0), inputs[::-1]], axis=1)
    steps = [np.linalg.matrix_power(a, BLOCK).T]
    for _ in range(40):  # 2**40 blocks outlast any signal
        s = steps[-1] @ steps[-1]
        s[np.abs(s) < np.finfo(float).tiny] = 0.0  # no subnormal operands
        steps.append(s)
    return zi, gains, outputs, steps


def _causal_pass(ops: tuple, x: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """The cascade's output over the samples `x` from the state `s0`.

    Each block's zero-state response is one GEMM; the block-start
    states follow from the zero-state end states by a log-depth scan.
    """
    _, gains, outputs, steps = ops
    nb = -(-x.size // BLOCK)
    blocks = np.zeros(nb * BLOCK)
    blocks[:x.size] = x
    z = blocks.reshape(nb, BLOCK) @ gains
    # start[k] = start[k - 1] @ steps[0] + end[k - 1], scanned by doubling
    start = np.empty((nb, len(s0)))
    start[0] = s0
    start[1:] = z[:-1, BLOCK:]
    stride = 1
    for step in steps:
        if stride >= nb:
            break
        start[stride:] += start[:-stride] @ step
        stride *= 2
    return (z[:, :BLOCK] + start @ outputs).ravel()[:x.size]


def filtfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward application of the sections `sos`,
    designed at TARGET_FS, along the last axis of `x`, one row at a time.

    Output shape equals input shape. As scipy's sosfiltfilt with
    padtype="even": the signal is even-reflection padded, and each pass
    starts from the steady state of its first sample, to suppress edge
    transients.
    """
    n = x.shape[-1]
    digital_order = 2 * len(sos)  # two poles per section
    if n <= 3 * digital_order:
        raise SignalTooShort(
            f"need more than {3 * digital_order} samples, got {n}")
    if x.ndim > 1:
        return np.array([filtfilt(sos, row) for row in x])
    ops = _block_operators(tuple(sos.flat))
    zi = ops[0]
    # long even-reflection padding tames the near-DC pole's transient
    p = min(n - 1, int(10 * TARGET_FS))
    ext = np.concatenate([x[p:0:-1], x, x[-2:-p - 2:-1]])
    y = _causal_pass(ops, ext, zi * ext[0])
    y = _causal_pass(ops, y[::-1], zi * y[-1])
    return y[::-1][p:-p].copy()


def resample_linear(x: np.ndarray, fs_in: float) -> np.ndarray:
    """Resample (n,) samples taken at fs_in to TARGET_FS by linear
    interpolation at exact output timestamps."""
    n_out = int(round(x.size * TARGET_FS / fs_in))
    if n_out < 1:
        raise SignalTooShort("resampled signal would be empty")
    t_out = np.arange(n_out) / TARGET_FS
    t_in = np.arange(x.size) / fs_in
    return np.interp(t_out, t_in, x)


def zscore(x: np.ndarray) -> np.ndarray:
    """Normalize along the last axis to zero mean, unit standard deviation."""
    sd = np.std(x, axis=-1, keepdims=True)
    if np.any(sd == 0.0):
        raise DegenerateInput("constant signal has no z-score")
    return (x - np.mean(x, axis=-1, keepdims=True)) / sd


def mean_center(x: np.ndarray) -> np.ndarray:
    """Subtract the mean along the last axis; removes the DC component,
    preserves shape."""
    return x - np.mean(x, axis=-1, keepdims=True)


def window_length(window_s: float) -> int:
    """Samples in one window of `window_s` seconds at TARGET_FS."""
    return int(round(window_s * TARGET_FS))


def segment(x: np.ndarray, y: np.ndarray, window_s: float) -> WindowSet:
    """Cut the (n,) input and the (C, n) target rows into consecutive
    non-overlapping windows.

    The trailing remainder shorter than one window is discarded.
    """
    L = window_length(window_s)
    n_win = x.size // L
    n = n_win * L
    return WindowSet(
        x=x[:n].reshape(n_win, L),
        y=y[:, :n].reshape(len(y), n_win, L).transpose(1, 0, 2),
        t_start=np.arange(n_win) * L / TARGET_FS)
