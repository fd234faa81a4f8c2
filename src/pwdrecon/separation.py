"""PCA / FastICA primitives and the PCA-ICA-PCA fECG extraction chain.

The chain removes the dominant maternal component with PCA, unmixes the
residual with deflation FastICA (tanh contrast), and keeps the fetal-band
component with the strongest beat. Multichannel arrays are
(n_channels, n_samples) rows, so each per-sample reduction runs along a
row or in one BLAS call.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Polarity
from .errors import (
    DegenerateInput,
    NoFetalComponent,
    NoPeaksDetected,
    NumericalInstability,
)

FETAL_RATE_HZ = (1.8, 3.0)  # plausible fetal beat rates, 108-180 bpm
MIN_BEAT_STRENGTH = 0.15    # autocorrelation floor for a real beat train
FASTICA_MAX_ITER = 500      # fixed-point iterations allowed per component
FASTICA_TOL = 1e-6          # |1 - |w_new . w|| at which a component converged


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal principal basis ordered by descending eigenvalue."""

    mean: np.ndarray          # (n_channels,)
    components: np.ndarray    # (n_channels, n_channels), rows are components
    eigenvalues: np.ndarray   # (n_channels,), non-increasing


@dataclass(frozen=True)
class IcaModel:
    """Whitening plus unmixing estimated by deflation FastICA."""

    whitening: np.ndarray     # (n_components, n_channels)
    unmixing: np.ndarray      # (n_components, n_components), rows unit-norm
    mean: np.ndarray          # (n_channels,)
    converged: bool
    iterations: int

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Sources of (n_channels, n_samples) rows, one source per row."""
        return self.unmixing @ (self.whitening @ (data - self.mean[:, None]))


def pca_fit(data: np.ndarray) -> PcaModel:
    """Eigendecomposition of the sample covariance.

    data: (n_channels, n_samples) rows with n_samples > n_channels >= 1.
    """
    data = np.asarray(data, dtype=np.float64)
    c, n = data.shape
    if n <= c:
        raise ValueError("need n_samples > n_channels")
    mean = data.mean(axis=1)
    centered = data - mean[:, None]
    cov = centered @ centered.T / (n - 1)
    if np.all(cov == 0.0):
        raise DegenerateInput("all-zero covariance")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return PcaModel(mean=mean, components=evecs[:, order].T,
                    eigenvalues=evals[order])


def pca_remove_top(data: np.ndarray) -> np.ndarray:
    """Centered residual after removing the top principal component."""
    model = pca_fit(data)
    centered = data - model.mean[:, None]
    top = model.components[:1]
    return centered - top.T @ (top @ centered)


def fastica(data: np.ndarray, n_components: int, seed: int) -> IcaModel:
    """Deflation FastICA with tanh contrast on (n_channels, n_samples) rows.

    Raises DegenerateInput when the covariance is rank-deficient for the
    requested component count. Non-convergence of a component is reported
    as a warning; the model is returned with converged=False.
    """
    data = np.asarray(data, dtype=np.float64)
    if n_components > data.shape[0]:
        raise ValueError("n_components must be <= n_channels")

    # whitening is PCA scaled to unit variance per component
    pca = pca_fit(data)
    evals = pca.eigenvalues[:n_components]
    if evals[-1] <= 1e-12 * max(evals[0], 1e-300):
        raise DegenerateInput(
            "covariance rank-deficient; cannot whiten requested components")
    whitening = pca.components[:n_components] / np.sqrt(evals)[:, None]
    z = whitening @ (data - pca.mean[:, None])  # whitened, one row each
    n = z.shape[1]

    rng = np.random.default_rng(seed)
    W = np.zeros((n_components, n_components))
    total_iter = 0
    converged = True
    for i in range(n_components):
        w = rng.normal(size=n_components)
        w /= np.linalg.norm(w)
        for _ in range(FASTICA_MAX_ITER):
            g = np.tanh(w @ z)
            # E[z g(w.z)] - E[g'(w.z)] w, with g' = 1 - g^2
            w_new = z @ g / n - (1.0 - g @ g / n) * w
            # Gram-Schmidt against already-extracted directions
            w_new -= W[:i].T @ (W[:i] @ w_new)
            w_new /= np.linalg.norm(w_new)
            delta = abs(abs(w_new @ w) - 1.0)
            w = w_new
            total_iter += 1
            if delta < FASTICA_TOL:
                break
        else:
            converged = False
            warnings.warn(f"FastICA component {i} did not converge in "
                          f"{FASTICA_MAX_ITER} iterations", RuntimeWarning)
        W[i] = w

    # Sign convention: largest-magnitude sample of each source positive.
    for i, source in enumerate(W @ z):
        if source[np.argmax(np.abs(source))] < 0:
            W[i] = -W[i]

    return IcaModel(whitening=whitening, unmixing=W, mean=pca.mean,
                    converged=converged, iterations=total_iter)


def _running_mean(a: np.ndarray, width: int) -> np.ndarray:
    """Mean of each `width` samples around each sample of `a`, zeros
    beyond its ends: np.convolve(a, np.ones(width) / width, mode="same")
    from one cumulative sum, O(n) for any width.

    The window of sample i spans i - width // 2 .. i + (width - 1) // 2,
    as "same" mode centres it. Not bit-identical to the convolution: a
    window's sum is a difference of two running sums, so it differs by up
    to about n eps max|a| for n samples.
    """
    # sums[k]: the sum of the first k samples of `a` behind width // 2 zeros
    end = width // 2 + a.size
    sums = np.zeros(a.size + width)
    np.cumsum(a, out=sums[width // 2 + 1:end + 1])
    sums[end + 1:] = sums[end]
    return (sums[width:] - sums[:-width]) / width


def _beat_rate(x: np.ndarray, fs: float) -> tuple[float, float] | None:
    """Dominant repetition rate and its autocorrelation strength.

    Searched over periods 0.25-1.2 s on the rectified signal, smoothed by
    an 80 ms running mean; returns (rate_hz, normalized autocorrelation at
    the peak lag), or None when the signal is too short, flat or not
    finite. The strength separates genuinely periodic components from
    noise, whose peak lag is arbitrary.
    The peak lag is the top of the first peak within 10% of the global
    maximum (YIN's guard against octave errors, de Cheveigne & Kawahara
    2002): a beat train whose peak at twice the period is the higher one
    keeps its rate. The FFT locates the peaks; each comparison its
    round-off could flip, and the returned strength, use dot products.
    """
    x = x - x.mean()
    if np.std(x) == 0:
        return None
    lag_min = int(round(0.25 * fs))
    lag_max = min(int(round(1.2 * fs)), len(x) - 1)
    if lag_max <= lag_min:
        return None
    # autocorrelation of the smoothed rectified signal emphasizes beat
    # periodicity; smoothing keeps the peak under beat-to-beat jitter
    width = max(int(round(0.08 * fs)), 1)
    e = _running_mean(np.abs(x), width)
    e = e - e.mean()
    ac0 = np.correlate(e, e)[0]  # e @ e rounds otherwise below 12 samples
    if not ac0 > 0:
        return None
    nfft = 1 << (e.size + lag_max - 1).bit_length()  # no circular wrap
    ac = np.fft.irfft(np.abs(np.fft.rfft(e, nfft)) ** 2, nfft)
    ac = ac[lag_min:lag_max + 1]
    # FFT values lie within ~1e-14 ac0 of the exact ones, dot products within
    # n eps ac0 (sum |e_i e_i+lag| <= ac0): within tol of each other while
    # n < ~4e6
    tol = 1e-9 * ac0
    at = functools.cache(lambda i: e[:e.size - lag_min - i] @ e[lag_min + i:])
    top = max(map(at, np.flatnonzero(ac >= ac.max() - 2 * tol).tolist()))
    floor = 0.9 * top if top > 0 else top
    i = next(i for i in np.flatnonzero(ac >= floor - tol).tolist()
             if at(i) >= floor)
    while i + 1 < ac.size and ((rise := ac[i + 1] - ac[i]) > 2 * tol or (
            rise >= -2 * tol and at(i + 1) > at(i))):
        i += 1    # up to the top of that peak
    return fs / (lag_min + i), float(at(i) / ac0)


def extract_fecg(rows: np.ndarray, fs: float, seed: int) -> np.ndarray:
    """PCA-ICA-PCA chain: 3 bipolar abdominal channels -> 1 fECG channel.

    rows: (3, n_samples) bipolar channels sampled at fs; returns the
    (n_samples,) fECG at fs. The first PCA removes the maternal-dominant
    top component; FastICA unmixes the rank-2 residual; of the components
    with a beat rate in the fetal band, the one with the strongest beat is
    kept. The sources are whitened, so a second component is not merged
    in: a PCA of the two would find an identity covariance and keep an
    axis set by round-off. An unmixing that did not converge raises
    NumericalInstability, so no source comes from it.
    """
    if rows.ndim != 2 or rows.shape[0] != 3:
        raise ValueError("fECG extraction requires exactly 3 bipolar channels")

    residual = pca_remove_top(rows)
    # top-1 removal leaves a rank-2 subspace; unmix 2 components
    ica = fastica(residual, n_components=2, seed=seed)
    if not ica.converged:
        raise NumericalInstability(
            f"FastICA did not converge: {ica.iterations} iterations, at "
            f"most {FASTICA_MAX_ITER} per component")
    sources = ica.transform(residual)

    rates = [_beat_rate(source, fs) or (0.0, 0.0) for source in sources]
    strength = [s if FETAL_RATE_HZ[0] <= rate <= FETAL_RATE_HZ[1] else 0.0
                for rate, s in rates]
    best = int(np.argmax(strength))
    if strength[best] < MIN_BEAT_STRENGTH:
        raise NoFetalComponent(
            "no independent component with a beat rate in "
            f"{FETAL_RATE_HZ} Hz")
    return _orient_to_sensors(sources[best], rows, fs)


def _group_peaks(z: np.ndarray, above: np.ndarray,
                 refractory: int) -> np.ndarray:
    """One peak per run of above-threshold samples: the largest |z| among
    the samples within `refractory` of the run's first sample."""
    end = np.searchsorted(above, above + refractory, side="right").tolist()
    starts, i = [], 0
    while i < above.size:  # each run starts where the one before it ends
        starts.append(i)
        i = end[i]
    mag = np.abs(z[above])
    peak = np.maximum.reduceat(mag, starts)
    sizes = np.diff(starts + [above.size])
    hits = np.flatnonzero(mag == np.repeat(peak, sizes))
    return above[hits[np.searchsorted(hits, starts)]]  # a run's first hit


def _orient_to_sensors(out: np.ndarray, data: np.ndarray,
                       fs: float) -> np.ndarray:
    """Fix the ICA sign ambiguity so the recorded polarity is preserved.

    Covariance against the channels cannot recover the sign (the source
    is sample-orthogonal to the removed maternal direction), so instead
    the raw channels are sampled at the detected fetal beat instants: the
    beat-locked median isolates the fetal deflection on each electrode,
    and the dominant electrode's direction anchors the output sign.
    """
    z = out / np.std(out)
    above = np.flatnonzero(np.abs(z) > 3.0)
    if above.size == 0:
        # degenerate fallback: largest-magnitude sample positive
        return -out if out[np.argmax(np.abs(out))] < 0 else out
    peaks = _group_peaks(z, above, int(round(0.2 * fs)))
    # median baseline, not the mean: between beats each channel sits at
    # its baseline level, so the median cancels the ECG bump bias exactly
    locked = np.median(data[:, peaks], axis=1) - np.median(data, axis=1)
    dominant = int(np.argmax(np.abs(locked)))
    recorded_sign = np.sign(locked[dominant])
    source_sign = np.sign(np.median(z[peaks]))
    if recorded_sign != 0 and source_sign != recorded_sign:
        out = -out
    return out


def detect_polarity(x: np.ndarray, fs: float) -> Polarity:
    """Classify R-deflection direction of (n,) fECG samples at fs from
    high-amplitude peaks.

    Peaks are |z-scored| excursions above 2.5 with a 0.25 s refractory
    period; the median signed amplitude at peak locations decides.
    """
    if x.size / fs < 1.0:
        raise ValueError("polarity detection needs at least 1 s of signal")
    sd = np.std(x)
    if sd == 0:
        raise NoPeaksDetected("flat signal")
    z = (x - x.mean()) / sd
    above = np.flatnonzero(np.abs(z) > 2.5)
    if above.size == 0:
        raise NoPeaksDetected("no |z| > 2.5 excursions")

    peaks = _group_peaks(z, above, int(round(0.25 * fs)))
    med = float(np.median(z[peaks]))
    return Polarity.POSITIVE if med > 0 else Polarity.NEGATIVE
