"""PwD spectrogram image -> mean-centered envelope rows at 284 Hz.

The image is a (height, width) uint8 array, a PGM's own bytes. Pipeline:
count the pixels of each of the 256 byte values, normalize intensity by
giving each value a level, pick Otsu's threshold on those levels and
counts, then extract max-min envelopes around the zero-velocity baseline
row from one uint8 comparison, with no per-pixel float copy; then mean
centering, resampling and Bessel bandpass filtering. The upper and lower
envelopes travel together as the two rows of one (2, n) array. Optional
PCA compression folds them into one (n,) channel.
"""

from __future__ import annotations

import numpy as np

from .dsp import design_bandpass, filtfilt, mean_center, resample_linear
from .errors import DegenerateInput
from .separation import pca_fit

COUNT_SLICE = 1 << 16  # pixel pairs per bincount, which copies them to intp


def pixel_counts(px: np.ndarray) -> np.ndarray:
    """(256,) intp: the number of pixels of each byte value of a uint8
    image.

    Pixels are counted in pairs, as uint16 values in 65536 bins: in an
    image of few values, counting single bytes sends nearly every
    increment to one bin, each waiting for the one before it. A pair's
    bin holds one of its bytes in the high half and the other in the low
    half, so the (256, 256) counts summed along each axis count each
    pixel once, whatever the byte order. An odd last pixel is counted on
    its own.
    """
    flat = px.ravel()
    pairs = flat[:flat.size & ~1].view(np.uint16)
    # the first slice's counts start the sum: a zeroed 512 KB accumulator
    # would cost more in fresh pages than a one-slice image does to count
    both = np.bincount(pairs[:COUNT_SLICE], minlength=1 << 16)
    for i in range(COUNT_SLICE, pairs.size, COUNT_SLICE):
        both += np.bincount(pairs[i:i + COUNT_SLICE], minlength=1 << 16)
    both = both.reshape(256, 256)
    counts = both.sum(0) + both.sum(1)
    if flat.size & 1:
        counts[flat[-1]] += 1
    return counts


def normalize_intensity(counts: np.ndarray) -> np.ndarray:
    """Min-max rescale to the full [0, 255] range.

    Returns (256,) float64 levels, one per byte value, never decreasing:
    pixel value v is now at intensity levels[v]. The levels of absent
    values, which may fall outside the image's range, are clipped into
    [0, 255]; they keep their order and count no pixel.
    """
    present = np.flatnonzero(counts)
    lo, hi = present[0], present[-1]
    if hi == lo:
        raise DegenerateInput("cannot normalize a constant image")
    # clipping also takes the top level back to 255 where the rescale
    # rounds it one ulp above
    return np.clip((np.arange(256.0) - lo) * (255.0 / (hi - lo)), 0.0, 255.0)


def otsu_threshold(levels: np.ndarray, counts: np.ndarray) -> int:
    """Threshold maximizing between-class variance on a 256-bin histogram
    of intensities in [0, 255], `counts[k]` pixels at `levels[k]`.

    Ties are broken toward the smallest threshold. A pixel is foreground
    when intensity >= threshold. normalize_intensity's levels put the
    image's lowest value at 0 and its highest at 255, so at least two
    bins hold pixels.
    """
    # truncation is the integer-edged binning; each level weighs its
    # pixel count, so an absent one weighs nothing
    hist = np.zeros(256, dtype=np.intp)
    np.add.at(hist, levels.astype(np.intp), counts)
    nb = np.cumsum(hist)[:-1]  # background = levels < t, for t = 1..255
    nf = hist.sum() - nb
    sum_bg = np.cumsum(hist * np.arange(256))
    mu_b = sum_bg[:-1] / np.maximum(nb, 1)
    mu_f = (sum_bg[-1] - sum_bg[:-1]) / np.maximum(nf, 1)
    var = np.where((nb > 0) & (nf > 0), nb * nf * (mu_b - mu_f) ** 2, -1.0)
    return int(np.argmax(var)) + 1  # the first maximum: smallest t


def extract_envelopes(px: np.ndarray, levels: np.ndarray, threshold: float,
                      baseline_row: int) -> np.ndarray:
    """Max-min envelope extraction in raw pixel units, one sample per
    image column, on a uint8 image whose value v is at intensity
    levels[v].

    Returns (2, width) float64 rows. Per column, the upper envelope (row
    0) is the pixel distance from the baseline row to the highest bright
    pixel above it (0 if none); the lower envelope (row 1) is minus the
    distance to the lowest bright pixel below it. Each is a maximum along
    the rows of bright-times-distance, in the narrowest unsigned integer
    that holds the image height, so it reduces whole rows at a time.
    """
    height = px.shape[0]
    if not 0 < baseline_row < height - 1:
        raise ValueError(f"image_baseline_row: must lie strictly inside the "
                         f"{height}-row image, got {baseline_row}")
    # levels never decrease, so intensity >= threshold exactly when the
    # value is at least the first one whose level reaches the threshold
    code = int(np.searchsorted(levels, threshold))
    dist = np.abs(np.arange(height) - baseline_row).astype(
        np.min_scalar_type(height))[:, None]
    upper = ((px[:baseline_row] >= code) * dist[:baseline_row]).max(0)
    lower = ((px[baseline_row + 1:] >= code) * dist[baseline_row + 1:]).max(0)
    return np.array([upper, 0.0 - lower])  # 0.0 - 0 is +0.0, not -0.0


def preprocess_envelopes(raw: np.ndarray, fs: float) -> np.ndarray:
    """Mean-center, resample from fs to 284 Hz, Bessel 0.1-50 Hz
    zero-phase filter.

    Both (2, width) rows get the identical chain, (2, n) rows come out; a
    final re-centering keeps the mean at zero despite bandpass edge
    transients. A constant raw envelope comes out as exact zeros.
    """
    resampled = np.array([resample_linear(row, fs)
                          for row in mean_center(raw)])
    return mean_center(filtfilt(design_bandpass("bessel"), resampled))


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
