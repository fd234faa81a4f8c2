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

ENVELOPE_SOS = design_bandpass("bessel")  # the envelope stream's filter


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
        if not (px.min() >= 0 and px.max() <= 255):  # NaN fails too
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
    # pixels lie in [0, 255], so truncation is the integer-edged binning
    hist = np.bincount(img.pixels.astype(np.intp).ravel(), minlength=256)
    if np.count_nonzero(hist) < 2:
        raise ConstantImage("need at least 2 distinct intensity values")

    nb = np.cumsum(hist)[:-1]  # background = levels < t, for t = 1..255
    nf = hist.sum() - nb
    sum_bg = np.cumsum(hist * np.arange(256))
    mu_b = sum_bg[:-1] / np.maximum(nb, 1)
    mu_f = (sum_bg[-1] - sum_bg[:-1]) / np.maximum(nf, 1)
    var = np.where((nb > 0) & (nf > 0), nb * nf * (mu_b - mu_f) ** 2, -1.0)
    return int(np.argmax(var)) + 1  # the first maximum: smallest t


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
    above = bright[:baseline_row]        # first True is the highest row
    below = bright[:baseline_row:-1]     # bottom-up: first True is lowest
    upper = np.where(above.any(0), len(above) - above.argmax(0), 0)
    lower = np.where(below.any(0), below.argmax(0) - len(below), 0)
    return EnvelopePair(upper=TimeSeries(upper, columns_per_second),
                        lower=TimeSeries(lower, columns_per_second))


def preprocess_envelopes(raw: EnvelopePair) -> EnvelopePair:
    """Mean-center, resample to 284 Hz, Bessel 0.1-50 Hz zero-phase filter.

    Both channels get the identical chain; a final re-centering keeps the
    mean at zero despite bandpass edge transients.
    """
    def chain(ts: TimeSeries) -> TimeSeries:
        # a constant raw envelope comes out as exact zeros
        out = filtfilt(ENVELOPE_SOS, resample_linear(mean_center(ts),
                                                     TARGET_FS))
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
