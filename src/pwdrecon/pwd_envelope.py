"""PwD spectrogram image -> mean-centered envelope time series at 284 Hz.

Pipeline: intensity normalization, Otsu binarization, max-min envelope
extraction around the zero-velocity baseline row, then mean centering,
resampling and Bessel bandpass filtering. Optional PCA compression folds
the upper/lower pair into one channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TARGET_FS, EnvelopePair, TimeSeries
from .dsp import design_bandpass, filtfilt, mean_center, resample_linear
from .errors import ConstantImage
from .separation import pca_fit


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, intensities in [0, 255], row-major."""

    pixels: np.ndarray  # (height, width), float64

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float64)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)
        if px.ndim != 2 or px.shape[0] < 2 or px.shape[1] < 2:
            raise ValueError("image must be at least 2x2")
        if px.min() < 0 or px.max() > 255:
            raise ValueError("intensities must lie in [0, 255]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def normalize_intensity(img: GrayImage) -> GrayImage:
    """Min-max rescale to the full [0, 255] range."""
    lo, hi = img.pixels.min(), img.pixels.max()
    if hi == lo:
        raise ConstantImage("cannot normalize a constant image")
    return GrayImage((img.pixels - lo) * (255.0 / (hi - lo)))


def otsu_threshold(img: GrayImage) -> int:
    """Threshold maximizing between-class variance on a 256-bin histogram.

    Ties are broken toward the smallest threshold. A pixel is foreground
    when intensity >= threshold.
    """
    hist, _ = np.histogram(img.pixels, bins=256, range=(0.0, 256.0))
    total = hist.sum()
    if np.count_nonzero(hist) < 2:
        raise ConstantImage("need at least 2 distinct intensity values")

    levels = np.arange(256)
    w_bg = np.cumsum(hist)                     # pixels with level < t+1
    sum_bg = np.cumsum(hist * levels)
    sum_all = sum_bg[-1]

    best_t, best_var = 0, -1.0
    for t in range(1, 256):                    # background = levels < t
        nb = w_bg[t - 1]
        nf = total - nb
        if nb == 0 or nf == 0:
            continue
        mu_b = sum_bg[t - 1] / nb
        mu_f = (sum_all - sum_bg[t - 1]) / nf
        var = nb * nf * (mu_b - mu_f) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def extract_envelopes(img: GrayImage, threshold: float, baseline_row: int,
                      columns_per_second: float) -> EnvelopePair:
    """Max-min envelope extraction in raw pixel units.

    Per column, the upper envelope is the pixel distance from the
    baseline row to the highest bright pixel above it (0 if none); the
    lower envelope is minus the distance to the lowest bright pixel
    below it. Sample rate is the image column rate.
    """
    if not 0 < baseline_row < img.height - 1:
        raise ValueError("baseline_row must be strictly inside the image")
    bright = img.pixels >= threshold
    upper = np.zeros(img.width)
    lower = np.zeros(img.width)
    rows_above = np.arange(baseline_row)
    rows_below = np.arange(baseline_row + 1, img.height)
    for c in range(img.width):
        above = rows_above[bright[:baseline_row, c]]
        if above.size:
            upper[c] = baseline_row - above.min()
        below = rows_below[bright[baseline_row + 1:, c]]
        if below.size:
            lower[c] = -(below.max() - baseline_row)
    return EnvelopePair(upper=TimeSeries(upper, columns_per_second),
                        lower=TimeSeries(lower, columns_per_second))


def preprocess_envelopes(raw: EnvelopePair) -> EnvelopePair:
    """Mean-center, resample to 284 Hz, Bessel 0.1-50 Hz zero-phase filter.

    Both channels get the identical chain; a final re-centering keeps the
    mean at zero despite bandpass edge transients.
    """
    f = design_bandpass("bessel", 0.1, 50.0, 4, TARGET_FS)

    def chain(ts: TimeSeries) -> TimeSeries:
        centered = mean_center(ts)
        if np.all(centered.samples == 0.0):
            # constant raw envelope: DC removal yields the zero signal
            n_out = int(round(len(ts) * TARGET_FS / ts.fs))
            return TimeSeries(np.zeros(max(n_out, 1)), TARGET_FS)
        out = filtfilt(f, resample_linear(centered, TARGET_FS))
        return mean_center(out)

    return EnvelopePair(upper=chain(raw.upper), lower=chain(raw.lower))


def pca_compress_envelopes(pair: EnvelopePair) -> TimeSeries:
    """Project (upper, lower) sample pairs onto their first principal axis.

    Output sign is fixed so correlation with the upper envelope is >= 0.
    Raises DegenerateInput when both channels are constant.
    """
    u = pair.upper.samples
    data = np.stack([u, pair.lower.samples], axis=1)
    pca = pca_fit(data)
    out = (data - pca.mean) @ pca.components[0]
    uc = u - u.mean()
    if float(out @ uc) < 0:
        out = -out
    return TimeSeries(out, pair.fs)
