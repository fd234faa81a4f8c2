"""Filtering, resampling, normalization and windowing primitives.

Applied to both the extracted fECG stream, an (n,) array, and the PwD
envelope stream, (2, n) rows. Filtering, z-scoring and mean centering
work along the last axis, so a row-wise call equals one call per row;
resampling takes one row at a time. Filter design and zero-phase
application are delegated to scipy.signal behind second-order-section
arrays designed at TARGET_FS.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from .core import TARGET_FS, WindowSet
from .errors import (
    NumericalInstability,
    SignalShorterThanWindow,
    SignalTooShort,
    ZeroVariance,
)

WINDOW_SECONDS = (0.25, 0.5, 0.75, 1.0, 2.0)
BAND_HZ = (0.1, 50.0)  # passband of both streams' filters
FILTER_ORDER = 4       # lowpass prototype order; the bandpass doubles it


def design_bandpass(kind: str) -> np.ndarray:
    """Design a stable 0.1-50 Hz bandpass biquad cascade at 284 Hz from a
    Butterworth or Bessel analog prototype of order 4.

    Discretization is bilinear with band-edge prewarping. Bessel
    prototypes are magnitude-normalized (-3 dB at the band edges).
    Returns the (4, 6) second-order sections, one [b0, b1, b2, 1, a1, a2]
    row each.
    """
    kind = kind.lower()
    if kind == "butterworth":
        sos = sps.butter(FILTER_ORDER, BAND_HZ, btype="bandpass",
                         output="sos", fs=TARGET_FS)
    elif kind == "bessel":
        sos = sps.bessel(FILTER_ORDER, BAND_HZ, btype="bandpass",
                         norm="mag", output="sos", fs=TARGET_FS)
    else:
        raise ValueError(f"unknown filter kind: {kind!r}")

    pole_mag = np.abs(sps.sos2zpk(sos)[1])
    if np.any(pole_mag >= 1.0):
        raise NumericalInstability(
            f"designed pole magnitude {pole_mag.max():.6f} >= 1")
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
    # long even-reflection padding tames the near-DC pole's transient
    padlen = min(n - 1, int(10 * TARGET_FS))
    return sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=padlen)


def resample_linear(x: np.ndarray, fs_in: float) -> np.ndarray:
    """Resample (n,) samples taken at fs_in to TARGET_FS by linear
    interpolation at exact output timestamps."""
    n_out = int(round(x.size * TARGET_FS / fs_in))
    if n_out < 1:
        raise ValueError("resampled signal would be empty")
    t_out = np.arange(n_out) / TARGET_FS
    t_in = np.arange(x.size) / fs_in
    return np.interp(t_out, t_in, x)


def zscore(x: np.ndarray) -> np.ndarray:
    """Normalize along the last axis to zero mean, unit standard deviation."""
    if x.shape[-1] < 2:
        raise ValueError("zscore needs at least 2 samples")
    sd = np.std(x, axis=-1, keepdims=True)
    if np.any(sd == 0.0):
        raise ZeroVariance("constant signal has no z-score")
    return (x - np.mean(x, axis=-1, keepdims=True)) / sd


def mean_center(x: np.ndarray) -> np.ndarray:
    """Subtract the mean along the last axis; removes the DC component,
    preserves shape."""
    return x - np.mean(x, axis=-1, keepdims=True)


def segment(x: np.ndarray, y: np.ndarray, window_s: float,
            record_id: str) -> WindowSet:
    """Cut the (n,) input and the (C, n) target rows into consecutive
    non-overlapping windows.

    The trailing remainder shorter than one window is discarded.
    """
    if window_s not in WINDOW_SECONDS:
        raise ValueError(f"window_s must be one of {WINDOW_SECONDS}")
    if x.ndim != 1 or y.ndim != 2 or y.shape[1] != x.size:
        raise ValueError("x must be (n,) and y (channels, n)")
    L = int(round(window_s * TARGET_FS))
    n_win = x.size // L
    if n_win == 0:
        raise SignalShorterThanWindow(
            f"record of {x.size} samples shorter than window of {L}")
    n = n_win * L
    return WindowSet(
        x=x[:n].reshape(n_win, L),
        y=y[:, :n].reshape(len(y), n_win, L).transpose(1, 0, 2),
        t_start=np.arange(n_win) * L / TARGET_FS,
        record_id=np.full(n_win, record_id))
