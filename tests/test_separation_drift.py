"""The channel-major fECG chain against the sample-major chain it replaced.

The oracle below is the earlier (n_samples, n_channels) code, kept as it
was except that extract_fecg transposes the channel rows itself, keeps
the strongest fetal-band component as the chain does, and also returns
the fetal-band components and the ICA model. It is a reference for the
row layout: moving to (n_channels, n_samples) rows reorders the mean and
FastICA reductions, so the outputs may move in the last bits; this file
bounds how far.
"""

import warnings

import numpy as np
import pytest

from pwdrecon import separation
from pwdrecon.core import WaveConfig
from pwdrecon.errors import DegenerateInput, NoFetalComponent
from pwdrecon.harness.io import load_record
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic
from pwdrecon.separation import (
    FASTICA_MAX_ITER,
    FASTICA_TOL,
    FETAL_RATE_HZ,
    MIN_BEAT_STRENGTH,
    IcaModel,
    PcaModel,
    _beat_rate,
    _group_peaks,
    detect_polarity,
    extract_fecg,
)

DRIFT_BOUND = 1e-12  # max |fECG - oracle|, relative to max |oracle|


def pca_fit(data: np.ndarray) -> PcaModel:
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


def pca_remove_top(data: np.ndarray) -> np.ndarray:
    model = pca_fit(data)
    centered = data - model.mean
    top = model.components[:1]
    return centered - (centered @ top.T) @ top


def fastica(data: np.ndarray, n_components: int, seed: int) -> IcaModel:
    data = np.asarray(data, dtype=np.float64)
    if n_components > data.shape[1]:
        raise ValueError("n_components must be <= n_channels")

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
        for _ in range(FASTICA_MAX_ITER):
            wx = z @ w
            g = np.tanh(wx)
            g_prime = 1.0 - g ** 2
            w_new = (z * g[:, None]).mean(axis=0) - g_prime.mean() * w
            w_new -= W[:i].T @ (W[:i] @ w_new)
            w_new /= np.linalg.norm(w_new)
            delta = abs(abs(w_new @ w) - 1.0)
            w = w_new
            total_iter += 1
            if delta < FASTICA_TOL:
                ok = True
                break
        if not ok:
            converged = False
            warnings.warn(f"FastICA component {i} did not converge in "
                          f"{FASTICA_MAX_ITER} iterations", RuntimeWarning)
        W[i] = w

    sources = z @ W.T
    for i in range(n_components):
        peak = sources[:, i][np.argmax(np.abs(sources[:, i]))]
        if peak < 0:
            W[i] = -W[i]

    return IcaModel(whitening=whitening, unmixing=W, mean=pca.mean,
                    converged=converged, iterations=total_iter)


def extract_fecg_by_sample(rows: np.ndarray, fs: float, seed: int):
    """(fECG, fetal-band component indices, IcaModel) of the sample-major
    chain."""
    data = np.ascontiguousarray(rows.T)

    residual = pca_remove_top(data)
    ica = fastica(residual, n_components=2, seed=seed)
    sources = (residual - ica.mean) @ ica.whitening.T @ ica.unmixing.T

    fetal_cols, strengths = [], []
    for i in range(sources.shape[1]):
        est = _beat_rate(sources[:, i], fs)
        if est is None:
            continue
        rate, strength = est
        if FETAL_RATE_HZ[0] <= rate <= FETAL_RATE_HZ[1] \
                and strength >= MIN_BEAT_STRENGTH:
            fetal_cols.append(i)
            strengths.append(strength)
    if not fetal_cols:
        raise NoFetalComponent("no fetal component")
    out = sources[:, fetal_cols[int(np.argmax(strengths))]]
    out = _orient_to_sensors(out, data, fs)
    return out, fetal_cols, ica


def _orient_to_sensors(out: np.ndarray, data: np.ndarray,
                       fs: float) -> np.ndarray:
    z = out / np.std(out)
    above = np.flatnonzero(np.abs(z) > 3.0)
    if above.size == 0:
        return -out if out[np.argmax(np.abs(out))] < 0 else out
    peaks = _group_peaks(z, above, int(round(0.2 * fs)))
    locked = np.median(data[peaks], axis=0) - np.median(data, axis=0)
    dominant = int(np.argmax(np.abs(locked)))
    recorded_sign = np.sign(locked[dominant])
    source_sign = np.sign(np.median(z[peaks]))
    if recorded_sign != 0 and source_sign != recorded_sign:
        out = -out
    return out


CASES = [(wave, polarity) for wave in WaveConfig for polarity in (1, -1)]
# a 10 s record on which both components pass the fetal-band test
TWO_COMPONENT_SPEC = SyntheticSpec(n_records=1, duration_s=10.0, seed=8,
                                   fetal_rr_jitter=0.05)


def _bipolar(spec, root):
    """(bipolar rows, fs) of the one record `spec` makes."""
    (m,) = generate_synthetic(spec, root)
    rows, _ = load_record(m, root)
    return rows, m.aecg_fs


@pytest.fixture(scope="module")
def bipolar_records(tmp_path_factory):
    """One 30 s synthetic record per wave config and polarity."""
    return [_bipolar(SyntheticSpec(n_records=1, duration_s=30.0, seed=40 + k,
                                   fetal_rr_jitter=0.05, wave_config=wave,
                                   fecg_polarity=polarity),
                     str(tmp_path_factory.mktemp(f"drift{k}")))
            for k, (wave, polarity) in enumerate(CASES)]


def _recorded(calls, fn):
    def wrapped(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return wrapped


def _both_chains(rec, monkeypatch):
    """Both chains' (fECG, fetal-band components, IcaModel) on one record."""
    models, rates = [], []
    monkeypatch.setattr(separation, "fastica",
                        _recorded(models, separation.fastica))
    monkeypatch.setattr(separation, "_beat_rate",
                        _recorded(rates, separation._beat_rate))
    got = extract_fecg(*rec, seed=0)
    kept = [i for i, est in enumerate(rates) if est is not None
            and FETAL_RATE_HZ[0] <= est[0] <= FETAL_RATE_HZ[1]
            and est[1] >= MIN_BEAT_STRENGTH]
    return (got, kept, *models), extract_fecg_by_sample(*rec, seed=0)


def _assert_same_ica(ica, want_ica):
    assert (ica.iterations, ica.converged) == (want_ica.iterations,
                                               want_ica.converged)
    for name in ("whitening", "unmixing"):  # the residual's mean is ~0
        got, want = getattr(ica, name), getattr(want_ica, name)
        assert np.max(np.abs(got - want)) <= DRIFT_BOUND * np.max(np.abs(want))


def _assert_within_bound(got, want, fs):
    (fecg, kept, ica), (want_fecg, want_kept, want_ica) = got, want
    assert kept == want_kept
    _assert_same_ica(ica, want_ica)
    assert detect_polarity(fecg, fs) is detect_polarity(want_fecg, fs)
    drift = np.max(np.abs(fecg - want_fecg))
    assert drift <= DRIFT_BOUND * np.max(np.abs(want_fecg))


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{w.value}{p:+d}" for w, p in CASES])
def test_channel_major_chain_stays_within_bound_of_sample_major(
        case, bipolar_records, monkeypatch):
    rec = bipolar_records[case]
    _assert_within_bound(*_both_chains(rec, monkeypatch), fs=rec[1])


def test_two_component_record_stays_within_bound_of_sample_major(
        tmp_path, monkeypatch):
    rec = _bipolar(TWO_COMPONENT_SPEC, str(tmp_path))
    got, want = _both_chains(rec, monkeypatch)
    assert got[1] == want[1] == [0, 1]
    _assert_within_bound(got, want, fs=rec[1])
