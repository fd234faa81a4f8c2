"""PCA / FastICA primitives and the PCA-ICA-PCA fECG extraction chain.

The chain removes the dominant maternal component with PCA, unmixes the
residual with deflation FastICA (tanh contrast), picks the component(s)
whose beat rate lies in the fetal band, and compresses them back to a
single channel with PCA.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import MultichannelRecording, Polarity, TimeSeries
from .errors import (
    DegenerateInput,
    NoFetalComponent,
    NoPeaksDetected,
)

FETAL_RATE_HZ = (1.8, 3.0)  # plausible fetal beat rates, 108-180 bpm
MIN_BEAT_STRENGTH = 0.15    # autocorrelation floor for a real beat train


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal principal basis ordered by descending eigenvalue."""

    mean: np.ndarray          # (n_channels,)
    components: np.ndarray    # (n_channels, n_channels), rows are components
    eigenvalues: np.ndarray   # (n_channels,), non-increasing

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (data - self.mean) @ self.components.T

    def reconstruct(self, scores: np.ndarray) -> np.ndarray:
        return scores @ self.components + self.mean


@dataclass(frozen=True)
class IcaModel:
    """Whitening plus unmixing estimated by deflation FastICA."""

    whitening: np.ndarray     # (n_components, n_channels)
    unmixing: np.ndarray      # (n_components, n_components), rows unit-norm
    mean: np.ndarray          # (n_channels,)
    n_components: int
    converged: bool
    iterations: int

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Recover sources: (n_samples, n_components)."""
        return (data - self.mean) @ self.whitening.T @ self.unmixing.T


def pca_fit(data: np.ndarray) -> PcaModel:
    """Eigendecomposition of the sample covariance.

    data: (n_samples, n_channels) with n_samples > n_channels >= 1.
    """
    data = np.asarray(data, dtype=np.float64)
    n, c = data.shape
    if n <= c:
        raise ValueError("need n_samples > n_channels")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    if np.all(cov == 0.0):
        raise DegenerateInput("all-zero covariance")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return PcaModel(mean=mean, components=evecs[:, order].T,
                    eigenvalues=evals[order])


def pca_remove_top(data: np.ndarray, k: int) -> np.ndarray:
    """Centered residual after removing the top-k principal components."""
    data = np.asarray(data, dtype=np.float64)
    n_channels = data.shape[1]
    if not 1 <= k < n_channels:
        raise ValueError(f"k must be in [1, {n_channels - 1}]")
    model = pca_fit(data)
    centered = data - model.mean
    top = model.components[:k]
    return centered - (centered @ top.T) @ top


def fastica(data: np.ndarray, n_components: int, seed: int,
            max_iter: int = 500, tol: float = 1e-6) -> IcaModel:
    """Deflation-based FastICA with tanh contrast.

    Raises DegenerateInput when the covariance is rank-deficient for the
    requested component count. Non-convergence of a component is reported
    as a warning; the model is returned with converged=False.
    """
    data = np.asarray(data, dtype=np.float64)
    if n_components > data.shape[1]:
        raise ValueError("n_components must be <= n_channels")

    # whitening is PCA scaled to unit variance per component
    pca = pca_fit(data)
    evals = pca.eigenvalues[:n_components]
    if evals[-1] <= 1e-12 * max(evals[0], 1e-300):
        raise DegenerateInput(
            "covariance rank-deficient; cannot whiten requested components")
    whitening = (pca.components[:n_components].T / np.sqrt(evals)).T
    z = (data - pca.mean) @ whitening.T      # whitened, (n, n_components)

    rng = np.random.default_rng(seed)
    W = np.zeros((n_components, n_components))
    total_iter = 0
    converged = True
    for i in range(n_components):
        w = rng.normal(size=n_components)
        w /= np.linalg.norm(w)
        ok = False
        for it in range(max_iter):
            wx = z @ w
            g = np.tanh(wx)
            g_prime = 1.0 - g ** 2
            w_new = (z * g[:, None]).mean(axis=0) - g_prime.mean() * w
            # Gram-Schmidt against already-extracted directions
            w_new -= W[:i].T @ (W[:i] @ w_new)
            w_new /= np.linalg.norm(w_new)
            delta = abs(abs(w_new @ w) - 1.0)
            w = w_new
            total_iter += 1
            if delta < tol:
                ok = True
                break
        if not ok:
            converged = False
            warnings.warn(
                f"FastICA component {i} did not converge in {max_iter} "
                "iterations", RuntimeWarning)
        W[i] = w

    # Sign convention: largest-magnitude sample of each source positive.
    sources = z @ W.T
    for i in range(n_components):
        peak = sources[:, i][np.argmax(np.abs(sources[:, i]))]
        if peak < 0:
            W[i] = -W[i]

    return IcaModel(whitening=whitening, unmixing=W, mean=pca.mean,
                    n_components=n_components, converged=converged,
                    iterations=total_iter)


def _beat_rate(x: np.ndarray, fs: float) -> tuple[float, float] | None:
    """Dominant repetition rate and its autocorrelation strength.

    Searched over periods 0.25-1.2 s on the rectified signal; returns
    (rate_hz, normalized autocorrelation at the peak lag), or None when
    the signal is too short or flat. The strength separates genuinely
    periodic components from noise, whose peak lag is arbitrary.
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
    e = np.abs(x)
    width = max(int(round(0.08 * fs)), 1)
    e = np.convolve(e, np.ones(width) / width, mode="same")
    e = e - e.mean()
    ac = np.correlate(e, e, mode="full")[len(e) - 1:]
    if ac[0] <= 0:
        return None
    lag = lag_min + int(np.argmax(ac[lag_min:lag_max + 1]))
    return fs / lag, float(ac[lag] / ac[0])


def extract_fecg(rec: MultichannelRecording, seed: int) -> TimeSeries:
    """PCA-ICA-PCA chain: 3 bipolar abdominal channels -> 1 fECG channel.

    The first PCA removes the maternal-dominant top component; FastICA
    unmixes the rank-2 residual; component(s) with a beat rate in the
    fetal band are kept and compressed to one channel.
    """
    if rec.n_channels != 3:
        raise ValueError("fECG extraction requires exactly 3 bipolar channels")
    data = rec.as_matrix()
    fs = rec.channels[0].fs

    residual = pca_remove_top(data, k=1)
    # top-1 removal leaves a rank-2 subspace; unmix 2 components
    ica = fastica(residual, n_components=2, seed=seed)
    sources = ica.transform(residual)

    fetal_cols = []
    for i in range(sources.shape[1]):
        est = _beat_rate(sources[:, i], fs)
        if est is None:
            continue
        rate, strength = est
        if FETAL_RATE_HZ[0] <= rate <= FETAL_RATE_HZ[1] \
                and strength >= MIN_BEAT_STRENGTH:
            fetal_cols.append(i)
    if not fetal_cols:
        raise NoFetalComponent(
            "no independent component with a beat rate in "
            f"{FETAL_RATE_HZ} Hz")
    if len(fetal_cols) == 1:
        out = sources[:, fetal_cols[0]]
    else:
        fetal = sources[:, fetal_cols]
        model = pca_fit(fetal)
        out = (fetal - model.mean) @ model.components[0]
    out = _orient_to_sensors(out, data, fs)
    return TimeSeries(out, fs)


def _group_peaks(z: np.ndarray, above: np.ndarray,
                 refractory: int) -> np.ndarray:
    """One peak per run of above-threshold samples: the largest |z| among
    the samples within `refractory` of the run's first sample."""
    peaks = []
    i = 0
    while i < above.size:
        j = i
        while j + 1 < above.size and above[j + 1] - above[i] <= refractory:
            j += 1
        run = above[i:j + 1]
        peaks.append(run[np.argmax(np.abs(z[run]))])
        i = j + 1
    return np.array(peaks)


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
    locked = np.median(data[peaks], axis=0) - np.median(data, axis=0)
    dominant = int(np.argmax(np.abs(locked)))
    recorded_sign = np.sign(locked[dominant])
    source_sign = np.sign(np.median(z[peaks]))
    if recorded_sign != 0 and source_sign != recorded_sign:
        out = -out
    return out


def detect_polarity(fecg: TimeSeries) -> Polarity:
    """Classify R-deflection direction from high-amplitude peaks.

    Peaks are |z-scored| excursions above 2.5 with a 0.25 s refractory
    period; the median signed amplitude at peak locations decides.
    """
    if len(fecg) / fecg.fs < 1.0:
        raise ValueError("polarity detection needs at least 1 s of signal")
    x = fecg.samples
    sd = np.std(x)
    if sd == 0:
        raise NoPeaksDetected("flat signal")
    z = (x - x.mean()) / sd
    above = np.flatnonzero(np.abs(z) > 2.5)
    if above.size == 0:
        raise NoPeaksDetected("no |z| > 2.5 excursions")

    peaks = _group_peaks(z, above, int(round(0.25 * fecg.fs)))
    med = float(np.median(z[peaks]))
    return Polarity.POSITIVE if med > 0 else Polarity.NEGATIVE
