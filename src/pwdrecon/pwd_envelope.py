"""PwD spectrogram image -> mean-centered envelope rows at 284 Hz.

Pipeline: intensity normalization, Otsu binarization, max-min envelope
extraction around the zero-velocity baseline row, then mean centering,
resampling and Bessel bandpass filtering. The upper and lower envelopes
travel together as the two rows of one (2, n) array. Optional PCA
compression folds them into one (n,) channel.
"""

from __future__ import annotations

import copy

import numpy as np

from .dsp import design_bandpass, filtfilt, mean_center, resample_linear
from .errors import ConstantImage
from .separation import pca_fit

ENVELOPE_SOS = design_bandpass("bessel")  # the envelope stream's filter
COUNT_SLICE = 1 << 16  # pixels per bincount, which copies them to intp


class GrayImage:
    """8-bit grayscale image, intensities in [0, 255], row-major.

    Held by level, not by pixel: pixel (r, c) has intensity
    `levels[codes[r, c]]`, `levels` never decreases and `counts[k]` is
    the number of pixels of code k. Built from uint8 pixels, an image is
    its own codes over the levels 0..255, so a PGM's bytes are used as
    read; float pixels are coded by their distinct values. Normalizing,
    Otsu and thresholding then work on the levels and counts, and no
    per-pixel float copy of the image is made.
    """

    def __init__(self, pixels: np.ndarray):
        px = np.asarray(pixels)
        if px.ndim != 2 or px.shape[0] < 2 or px.shape[1] < 2:
            raise ValueError("image must be at least 2x2")
        if px.dtype == np.uint8:
            codes, levels = px, BYTE_LEVELS
        else:
            levels, codes = np.unique(np.asarray(px, np.float64),
                                      return_inverse=True)
        self.codes = np.ascontiguousarray(codes).reshape(px.shape)
        self.codes.flags.writeable = False
        flat, self.counts = self.codes.ravel(), np.zeros(levels.size, np.intp)
        for i in range(0, flat.size, COUNT_SLICE):
            self.counts += np.bincount(flat[i:i + COUNT_SLICE],
                                       minlength=levels.size)
        self.counts.flags.writeable = False
        self.levels = _checked_levels(levels)

    @property
    def pixels(self) -> np.ndarray:
        """(height, width) intensities: for an image built from uint8
        pixels its codes, else a float64 array built from the levels."""
        if self.levels is BYTE_LEVELS:
            return self.codes
        return self.levels[self.codes]

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    def with_levels(self, levels: np.ndarray) -> GrayImage:
        """The same pixels, each code k now at intensity levels[k]."""
        out = copy.copy(self)
        out.levels = _checked_levels(levels)
        return out


def _checked_levels(levels) -> np.ndarray:
    lv = np.asarray(levels, dtype=np.float64)
    lv.flags.writeable = False
    if not (lv[0] >= 0 and lv[-1] <= 255):  # NaN fails too
        raise ValueError("intensities must lie in [0, 255]")
    if not np.all(np.diff(lv) >= 0):
        raise ValueError("levels must not decrease")
    return lv


BYTE_LEVELS = _checked_levels(np.arange(256))  # the levels of a uint8 image


def normalize_intensity(img: GrayImage) -> GrayImage:
    """Min-max rescale to the full [0, 255] range.

    Only the levels are rescaled. Those of absent codes, which may fall
    outside the image's range, are clipped into [0, 255]; they keep their
    order and count no pixel.
    """
    present = np.flatnonzero(img.counts)
    lo, hi = img.levels[present[0]], img.levels[present[-1]]
    if hi == lo:
        raise ConstantImage("cannot normalize a constant image")
    # clipping also takes the top level back to 255 where the rescale
    # rounds it one ulp above
    return img.with_levels(np.clip((img.levels - lo) * (255.0 / (hi - lo)),
                                   0.0, 255.0))


def otsu_threshold(img: GrayImage) -> int:
    """Threshold maximizing between-class variance on a 256-bin histogram.

    Ties are broken toward the smallest threshold. A pixel is foreground
    when intensity >= threshold.
    """
    # levels lie in [0, 255], so truncation is the integer-edged binning;
    # each level weighs its pixel count, so an absent one weighs nothing
    hist = np.zeros(256, dtype=np.intp)
    np.add.at(hist, img.levels.astype(np.intp), img.counts)
    if np.count_nonzero(hist) < 2:
        raise ConstantImage("need at least 2 distinct intensity values")

    nb = np.cumsum(hist)[:-1]  # background = levels < t, for t = 1..255
    nf = hist.sum() - nb
    sum_bg = np.cumsum(hist * np.arange(256))
    mu_b = sum_bg[:-1] / np.maximum(nb, 1)
    mu_f = (sum_bg[-1] - sum_bg[:-1]) / np.maximum(nf, 1)
    var = np.where((nb > 0) & (nf > 0), nb * nf * (mu_b - mu_f) ** 2, -1.0)
    return int(np.argmax(var)) + 1  # the first maximum: smallest t


def extract_envelopes(img: GrayImage, threshold: float,
                      baseline_row: int) -> np.ndarray:
    """Max-min envelope extraction in raw pixel units, one sample per
    image column.

    Returns (2, width) float64 rows. Per column, the upper envelope (row
    0) is the pixel distance from the baseline row to the highest bright
    pixel above it (0 if none); the lower envelope (row 1) is minus the
    distance to the lowest bright pixel below it.
    """
    if not 0 < baseline_row < img.height - 1:
        raise ValueError("baseline_row must be strictly inside the image")
    # levels never decrease, so intensity >= threshold exactly when the
    # code is at least the first code whose level reaches the threshold
    bright = img.codes >= int(np.searchsorted(img.levels, threshold))
    above = bright[:baseline_row]        # first True is the highest row
    below = bright[:baseline_row:-1]     # bottom-up: first True is lowest
    upper = np.where(above.any(0), len(above) - above.argmax(0), 0)
    lower = np.where(below.any(0), below.argmax(0) - len(below), 0)
    return np.array([upper, lower], dtype=np.float64)


def preprocess_envelopes(raw: np.ndarray, fs: float) -> np.ndarray:
    """Mean-center, resample from fs to 284 Hz, Bessel 0.1-50 Hz
    zero-phase filter.

    Both (2, width) rows get the identical chain, (2, n) rows come out; a
    final re-centering keeps the mean at zero despite bandpass edge
    transients. A constant raw envelope comes out as exact zeros.
    """
    resampled = np.array([resample_linear(row, fs)
                          for row in mean_center(raw)])
    return mean_center(filtfilt(ENVELOPE_SOS, resampled))


def pca_compress_envelopes(env: np.ndarray) -> np.ndarray:
    """Project the (2, n) (upper, lower) rows onto their first principal
    axis, giving (n,) samples.

    Output sign is fixed so correlation with the upper envelope is >= 0.
    Raises DegenerateInput when both channels are constant.
    """
    pca = pca_fit(env)
    out = pca.components[0] @ (env - pca.mean[:, None])
    uc = env[0] - env[0].mean()
    if float(out @ uc) < 0:
        out = -out
    return out
