"""Filtering, resampling, normalization and windowing primitives.

Applied to both the extracted fECG stream and the PwD envelope stream.
Filter design and zero-phase application are delegated to scipy.signal
behind second-order-section arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from .core import TARGET_FS, TimeSeries, WindowSet
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


def filtfilt(sos: np.ndarray, x: TimeSeries) -> TimeSeries:
    """Zero-phase forward-backward application of the sections `sos`.

    Output length equals input length. The signal is reflect-padded
    before the forward pass to suppress edge transients.
    """
    digital_order = 2 * len(sos)  # two poles per section
    if len(x) <= 3 * digital_order:
        raise SignalTooShort(
            f"need more than {3 * digital_order} samples, got {len(x)}")
    # long even-reflection padding tames the near-DC pole's transient
    padlen = min(len(x) - 1, int(10 * x.fs))
    y = sps.sosfiltfilt(sos, x.samples, padtype="even", padlen=padlen)
    return TimeSeries(y, x.fs)


def resample_linear(x: TimeSeries, fs_out: float) -> TimeSeries:
    """Resample by linear interpolation at exact output timestamps."""
    if not fs_out > 0:
        raise ValueError("fs_out must be > 0")
    n_out = int(round(len(x) * fs_out / x.fs))
    if n_out < 1:
        raise ValueError("resampled signal would be empty")
    t_out = np.arange(n_out) / fs_out
    t_in = np.arange(len(x)) / x.fs
    y = np.interp(t_out, t_in, x.samples)
    return TimeSeries(y, fs_out)


def zscore(x: TimeSeries) -> TimeSeries:
    """Normalize to zero mean, unit standard deviation."""
    if len(x) < 2:
        raise ValueError("zscore needs at least 2 samples")
    sd = float(np.std(x.samples))
    if sd == 0.0:
        raise ZeroVariance("constant signal has no z-score")
    return TimeSeries((x.samples - np.mean(x.samples)) / sd, x.fs)


def mean_center(x: TimeSeries) -> TimeSeries:
    """Subtract the mean; removes the DC component, preserves shape."""
    return TimeSeries(x.samples - np.mean(x.samples), x.fs)


def segment(x: TimeSeries, y_channels: list[TimeSeries], window_s: float,
            record_id: str) -> WindowSet:
    """Cut aligned streams into consecutive non-overlapping windows.

    The trailing remainder shorter than one window is discarded.
    """
    if window_s not in WINDOW_SECONDS:
        raise ValueError(f"window_s must be one of {WINDOW_SECONDS}")
    for y in y_channels:
        if y.fs != x.fs or len(y) != len(x):
            raise ValueError("x and y_channels must share fs and length")
    L = int(round(window_s * x.fs))
    n_win = len(x) // L
    if n_win == 0:
        raise SignalShorterThanWindow(
            f"record of {len(x)} samples shorter than window of {L}")
    n = n_win * L
    return WindowSet(
        x=x.samples[:n].reshape(n_win, L),
        y=np.stack([y.samples[:n].reshape(n_win, L) for y in y_channels],
                   axis=1),
        t_start=np.arange(n_win) * L / x.fs,
        record_id=np.full(n_win, record_id))
