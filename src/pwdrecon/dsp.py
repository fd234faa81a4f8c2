"""Filtering, resampling, normalization and windowing primitives.

Applied to both the extracted fECG stream, an (n,) array, and the PwD
envelope stream, (2, n) rows. Filtering, z-scoring and mean centering
work along the last axis, so a row-wise call equals one call per row;
resampling takes one row at a time. Filter design and zero-phase
application are delegated to scipy.signal behind second-order-section
arrays designed at TARGET_FS, each designed on first use; scipy is
imported only then, so a process that never filters never loads it.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import TARGET_FS, WindowSet
from .errors import SignalTooShort, ZeroVariance

WINDOW_SECONDS = (0.25, 0.5, 0.75, 1.0, 2.0)
BAND_HZ = (0.1, 50.0)  # passband of both streams' filters
FILTER_ORDER = 4       # lowpass prototype order; the bandpass doubles it


@functools.cache
def design_bandpass(kind: str) -> np.ndarray:
    """Design a stable 0.1-50 Hz bandpass biquad cascade at 284 Hz from a
    Butterworth or Bessel analog prototype of order 4.

    Discretization is bilinear with band-edge prewarping. Bessel
    prototypes are magnitude-normalized (-3 dB at the band edges).
    Returns the (4, 6) second-order sections, one [b0, b1, b2, 1, a1, a2]
    row each; cached, so every caller shares one array: never write to it.
    """
    from scipy import signal as sps

    if kind == "butterworth":
        sos = sps.butter(FILTER_ORDER, BAND_HZ, btype="bandpass",
                         output="sos", fs=TARGET_FS)
    elif kind == "bessel":
        sos = sps.bessel(FILTER_ORDER, BAND_HZ, btype="bandpass",
                         norm="mag", output="sos", fs=TARGET_FS)
    else:
        raise ValueError(f"unknown filter kind: {kind!r}")
    return sos


def filtfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward application of the sections `sos`,
    designed at TARGET_FS, along the last axis of `x`.

    Output shape equals input shape. The signal is reflect-padded
    before the forward pass to suppress edge transients.
    """
    n = x.shape[-1]
    digital_order = 2 * len(sos)  # two poles per section
    if n <= 3 * digital_order:
        raise SignalTooShort(
            f"need more than {3 * digital_order} samples, got {n}")
    from scipy import signal as sps
    # long even-reflection padding tames the near-DC pole's transient
    padlen = min(n - 1, int(10 * TARGET_FS))
    return sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=padlen)


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
        raise ZeroVariance("constant signal has no z-score")
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
