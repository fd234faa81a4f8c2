import itertools
import os
import time

import numpy as np
import pytest

from pwdrecon import separation
from pwdrecon.core import Polarity
from pwdrecon.errors import DegenerateInput, NoPeaksDetected
from pwdrecon.harness.io import load_record, read_raw_f32
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic
from pwdrecon.separation import (
    FETAL_RATE_HZ,
    MIN_BEAT_STRENGTH,
    _beat_rate,
    _group_peaks,
    _running_mean,
    detect_polarity,
    extract_fecg,
    fastica,
    pca_fit,
    pca_remove_top,
)

FS = 284.0


def test_pca_fit_matches_closed_form_2x2():
    # oracle: hand-solved eigensystem of [[2, 1], [1, 2]] -> 3 and 1 with
    # eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2)
    rng = np.random.default_rng(0)
    root = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
    data = rng.normal(size=(200_000, 2)) @ root.T + np.array([3.0, -1.0])
    m = pca_fit(data.T)
    assert np.allclose(m.mean, [3.0, -1.0], atol=0.02)
    assert np.allclose(m.eigenvalues, [3.0, 1.0], atol=0.05)
    v = m.components[0]
    assert abs(abs(v @ np.array([1.0, 1.0]) / np.sqrt(2.0)) - 1.0) < 1e-2


def test_pca_eigenvalues_sorted_and_orthonormal():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500, 4)) * np.array([5.0, 2.0, 1.0, 0.1])
    m = pca_fit(data.T)
    assert np.all(np.diff(m.eigenvalues) <= 1e-12)
    assert np.allclose(m.components @ m.components.T, np.eye(4), atol=1e-10)


def test_pca_fit_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        pca_fit(np.zeros((50, 3)).T)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((2, 3)).T)


def test_pca_remove_top_kills_dominant_direction():
    rng = np.random.default_rng(2)
    strong = rng.normal(size=1000) * 10.0
    weak = rng.normal(size=1000)
    mix = np.stack([strong + 0.1 * weak, strong - 0.1 * weak,
                    strong + 0.05 * weak], axis=1)
    resid = pca_remove_top(mix.T).T
    assert resid.shape == mix.shape
    assert np.max(np.abs(resid.mean(axis=0))) < 1e-9  # centered
    # dominant shared component should be essentially gone
    r = np.corrcoef(resid[:, 0], strong)[0, 1]
    assert abs(r) < 0.05


def _best_abs_corr_assignment(sources, recovered):
    """Oracle: exhaustive permutation search over component matching."""
    k = sources.shape[1]
    best = -1.0
    for perm in itertools.permutations(range(k)):
        rs = [abs(np.corrcoef(sources[:, i], recovered[:, perm[i]])[0, 1])
              for i in range(k)]
        best = max(best, min(rs))
    return best


def test_fastica_recovers_independent_sources():
    rng = np.random.default_rng(7)
    n = 6000
    t = np.arange(n) / FS
    s = np.stack([
        np.sign(np.sin(2 * np.pi * 1.3 * t)),
        rng.uniform(-1, 1, size=n),
        np.sin(2 * np.pi * 0.37 * t + 0.5) ** 3,
    ], axis=1)
    A = np.array([[1.0, 0.6, -0.4], [0.5, -1.2, 0.3], [-0.7, 0.2, 1.1]])
    x = s @ A.T
    model = fastica(x.T, n_components=3, seed=0)
    rec = model.transform(x.T).T
    assert _best_abs_corr_assignment(s, rec) >= 0.95
    assert model.converged
    # unmixing rows are unit-norm
    assert np.allclose(np.linalg.norm(model.unmixing, axis=1), 1.0)


def test_fastica_deterministic_given_seed():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2000, 3)) @ rng.normal(size=(3, 3))
    a = fastica(x.T, n_components=3, seed=11)
    b = fastica(x.T, n_components=3, seed=11)
    assert np.array_equal(a.unmixing, b.unmixing)
    assert np.array_equal(a.whitening, b.whitening)


def test_fastica_rejects_rank_deficient():
    rng = np.random.default_rng(4)
    one = rng.normal(size=1000)
    x = np.stack([one, 2 * one, -one], axis=1)
    with pytest.raises(DegenerateInput):
        fastica(x.T, n_components=3, seed=0)


def _beat_train(t, r_times, polarity=1):
    x = np.zeros_like(t)
    for c in r_times:
        x += polarity * np.exp(-0.5 * ((t - c) / 0.012) ** 2)
    return x


def _convolved_mean(a, width):
    """Reference: the box smoother as a direct convolution."""
    return np.convolve(a, np.ones(width) / width, mode="same")


def _beat_rate_full_correlation(x, fs):
    """Reference: _beat_rate with the full-length np.correlate, on the
    same running mean, so the lag search alone is compared."""
    x = x - x.mean()
    if np.std(x) == 0:
        return None
    lag_min = int(round(0.25 * fs))
    lag_max = min(int(round(1.2 * fs)), len(x) - 1)
    if lag_max <= lag_min:
        return None
    e = np.abs(x)
    width = max(int(round(0.08 * fs)), 1)
    e = _running_mean(e, width)
    e = e - e.mean()
    ac = np.correlate(e, e, mode="full")[len(e) - 1:]
    if ac[0] <= 0:
        return None
    search = ac[lag_min:lag_max + 1]
    # the top of the first peak within 10% of the global maximum
    top = search.max()
    i = int(np.argmax(search >= (0.9 * top if top > 0 else top)))
    while i + 1 < search.size and search[i + 1] > search[i]:
        i += 1
    lag = lag_min + i
    return fs / lag, float(ac[lag] / ac[0])


def _beat_rate_input(kind):
    rng = np.random.default_rng(9)
    fs = 512.0
    if kind == "periodic":
        t = np.arange(int(20 * fs)) / fs
        x = _beat_train(t, np.arange(0.1, 20.0, 1 / 2.3))
        return x + 0.05 * rng.normal(size=t.size), fs
    if kind == "noise":
        return rng.normal(size=5000), fs
    if kind == "shorter-than-lag-range":    # lag_max = n - 1 < 1.2 fs
        return rng.normal(size=400), fs
    if kind == "flat":
        return np.full(1000, 3.0), fs
    if kind == "too-short":                 # n - 1 <= lag_min
        return rng.normal(size=100), fs
    # |x| is constant and the smoother is one sample wide: ac[0] == 0
    return np.tile([1.0, -1.0], 25), 8.0


@pytest.mark.parametrize("kind", [
    "periodic", "noise", "shorter-than-lag-range", "flat", "too-short",
    "rectified-flat"])
def test_beat_rate_equals_full_correlation(kind):
    x, fs = _beat_rate_input(kind)
    got = _beat_rate(x, fs)
    assert got == _beat_rate_full_correlation(x, fs)
    assert (got is None) == (kind in ("flat", "too-short", "rectified-flat"))


def _beat_rate_case(seed):
    """A seeded beat train, noise, or a pure beat train whose period lies
    half a sample between two lags, at 8, 256 or 512 Hz and lag_min + 2
    samples to 60 s long."""
    rng = np.random.default_rng(seed)
    fs = (8.0, 256.0, 512.0)[seed % 3]
    kind = ("beat-train", "noise", "near-tie")[seed // 3 % 3]
    lag_min = int(round(0.25 * fs))
    n = int(np.exp(rng.uniform(np.log(lag_min + 2), np.log(60 * fs + 1))))
    if kind == "noise":
        return rng.normal(size=n), fs
    t = np.arange(n) / fs
    if kind == "near-tie":
        lag = int(rng.integers(lag_min, int(round(1.2 * fs))))
        return _beat_train(t, np.arange(0.1, n / fs, (lag + 0.5) / fs)), fs
    period = 1.0 / rng.uniform(0.8, 4.0)
    rr = period * (1.0 + rng.uniform(-1, 1, size=n) * rng.uniform(0, 0.2))
    beats = rng.uniform(0, period) + np.cumsum(rr)
    x = _beat_train(t, beats[beats < n / fs], rng.choice([-1, 1]))
    return x + rng.uniform(0.0, 1.0) * rng.normal(size=n), fs


# 0/1 at 8 Hz: every value below is exact, and lags 2 and 10 tie for the
# maximum; the FFT's own maximum falls on lag 10
EXACT_TIE = np.array([0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1,
                      0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], float)


@pytest.mark.parametrize("block", range(10))
def test_beat_rate_equals_full_correlation_on_seeded_inputs(block):
    for seed in range(20 * block, 20 * block + 20):
        x, fs = _beat_rate_case(seed)
        assert _beat_rate(x, fs) == _beat_rate_full_correlation(x, fs)


def test_beat_rate_takes_the_first_of_tied_lags():
    got = _beat_rate(EXACT_TIE, 8.0)
    assert got == _beat_rate_full_correlation(EXACT_TIE, 8.0)
    assert got[0] == 8.0 / 2


def test_beat_rate_keeps_the_period_when_twice_it_peaks_higher():
    """Regression example: beats of alternating height 1 and 0.8, T = 0.4 s
    apart. The autocorrelation peaks higher at 2T than at T, and the rate
    is 1/T, not 1/(2T)."""
    fs = 500.0
    t = np.arange(int(20 * fs)) / fs
    beats = np.arange(0.1, 20.0, 0.4)
    x = _beat_train(t, beats[::2]) + 0.8 * _beat_train(t, beats[1::2])
    e = _running_mean(np.abs(x - x.mean()), 40)
    e -= e.mean()
    assert e[:-400] @ e[400:] > e[:-200] @ e[200:]
    assert _beat_rate(x, fs)[0] == 2.5


@pytest.mark.parametrize("width", [1, 2, 3, 20, 41])
def test_running_mean_is_within_bound_of_convolution(width):
    rng = np.random.default_rng(width)
    for n in (width + 1, width + 2, 1000, 61440, 307200):
        a = np.abs(rng.normal(size=n)) * rng.uniform(0.1, 10.0)
        got, want = _running_mean(a, width), _convolved_mean(a, width)
        assert got.shape == want.shape
        bound = n * np.finfo(float).eps * a.max()
        assert np.max(np.abs(got - want)) <= bound


def _all_beat_rate_inputs():
    """The 207 inputs of the tests above: 6 kinds, 200 seeded cases and
    EXACT_TIE."""
    yield from (_beat_rate_input(kind) for kind in (
        "periodic", "noise", "shorter-than-lag-range", "flat", "too-short",
        "rectified-flat"))
    yield from (_beat_rate_case(seed) for seed in range(200))
    yield EXACT_TIE, 8.0


def test_beat_rate_keeps_every_rate_of_the_convolution_smoother(
        monkeypatch):
    inputs = list(_all_beat_rate_inputs())
    got = [_beat_rate(x, fs) for x, fs in inputs]
    monkeypatch.setattr(separation, "_running_mean", _convolved_mean)
    want = [_beat_rate(x, fs) for x, fs in inputs]
    assert len(inputs) == 207
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g[0] == w[0]
            assert abs(g[1] - w[1]) <= 1e-9


def test_beat_rate_is_linear_in_length():
    # 10 min at 512 Hz: on a 2-core machine the full-length np.correlate
    # took ~17 s, the lag-limited dot products ~0.04 s
    x, fs = _beat_rate_input("noise")
    x = np.resize(x, 307200)
    t0 = time.perf_counter()
    assert _beat_rate(x, fs) is not None
    assert time.perf_counter() - t0 < 3.0


def test_extract_fecg_recovers_fetal_source():
    rng = np.random.default_rng(5)
    dur, fs = 16.0, FS
    t = np.arange(int(dur * fs)) / fs
    fetal = 0.1 * _beat_train(t, np.arange(0.3, dur, 60.0 / 140))
    maternal = _beat_train(t, np.arange(0.1, dur, 60.0 / 75))
    mat_w = np.array([1.0, 0.9, 1.1])
    fet_w = np.array([0.8, -1.2, 0.5])
    mix = (np.outer(maternal, mat_w) + np.outer(fetal, fet_w)
           + 0.005 * rng.normal(size=(t.size, 3)))
    out = extract_fecg(mix.T, fs, seed=0)
    r = abs(np.corrcoef(out, fetal)[0, 1])
    assert r >= 0.8
    assert out.shape == fetal.shape


def test_extract_fecg_keeps_the_strongest_fetal_component(tmp_path,
                                                         monkeypatch):
    # rec009 of the benchmark's train_net set at seed 1: both ICA sources
    # pass the fetal-band test, with beat strengths 0.85 and 0.22
    spec = SyntheticSpec(n_records=10, duration_s=5.0, jitter_ms=0.0,
                         fetal_rr_jitter=0.05, seed=1)
    m = generate_synthetic(spec, str(tmp_path))[9]
    rows, _ = load_record(m, str(tmp_path))
    calls = []
    beat_rate = separation._beat_rate

    def recorded_beat_rate(x, fs):
        calls.append((x, beat_rate(x, fs)))
        return calls[-1][1]

    monkeypatch.setattr(separation, "_beat_rate", recorded_beat_rate)
    out = extract_fecg(rows, m.aecg_fs, seed=0)
    (x0, (rate0, strength0)), (x1, (rate1, strength1)) = calls
    for rate in (rate0, rate1):
        assert FETAL_RATE_HZ[0] <= rate <= FETAL_RATE_HZ[1]
    assert min(strength0, strength1) >= MIN_BEAT_STRENGTH
    strongest, weaker = (x0, x1) if strength0 > strength1 else (x1, x0)
    assert np.array_equal(np.abs(out), np.abs(strongest))
    clean = read_raw_f32(os.path.join(tmp_path, m.aux["fetal_clean_path"]))
    assert abs(np.corrcoef(out, clean)[0, 1]) >= 0.9

    # with the two strengths swapped the other source is kept, whichever
    # row FastICA put it in
    swapped = iter([(rate1, strength1), (rate0, strength0)])
    monkeypatch.setattr(separation, "_beat_rate", lambda x, fs: next(swapped))
    out = extract_fecg(rows, m.aecg_fs, seed=0)
    assert np.array_equal(np.abs(out), np.abs(weaker))


def test_extract_fecg_requires_three_channels():
    x = np.random.default_rng(0).normal(size=600)
    for rows in (np.stack([x, x]), np.stack([x, x, x, x]), x):
        with pytest.raises(ValueError):
            extract_fecg(rows, FS, seed=0)


def group_peaks_by_sample(z, above, refractory):
    """Reference: extend each run one sample at a time."""
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


@pytest.mark.parametrize("kind", ["tied", "refractory-0", "single-run",
                                  "one-sample-runs", "beat-train"])
def test_group_peaks_equals_sample_loop(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(200):
        n = int(rng.integers(1, 400))
        # quantized |z| makes ties within a run common
        z = np.round(rng.normal(size=n) * 2) / 2
        above = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 1.0))
        if above.size == 0:
            above = np.array([int(rng.integers(n))])
        refractory = int(rng.integers(1, 30))
        if kind == "tied":
            z = np.where(rng.random(n) < 0.5, 3.0, -3.0)
        elif kind == "refractory-0":
            refractory = 0
        elif kind == "single-run":
            refractory = n
        elif kind == "one-sample-runs":
            above = np.arange(0, n, refractory + 1)
        elif kind == "beat-train":
            beats = np.cumsum(rng.integers(100, 140, size=n // 20 + 1))
            above = np.unique((beats[:, None] + np.arange(-3, 4)).ravel())
            z = rng.normal(size=above[-1] + 1)
            refractory = 57
        got = _group_peaks(z, above, refractory)
        want = group_peaks_by_sample(z, above, refractory)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_detect_polarity():
    t = np.arange(int(4 * FS)) / FS
    pos = _beat_train(t, np.arange(0.3, 4.0, 0.45), polarity=1)
    neg = _beat_train(t, np.arange(0.3, 4.0, 0.45), polarity=-1)
    noise = 0.02 * np.random.default_rng(6).normal(size=t.size)
    assert detect_polarity(pos + noise, FS) is Polarity.POSITIVE
    assert detect_polarity(neg + noise, FS) is Polarity.NEGATIVE
    with pytest.raises(NoPeaksDetected):
        detect_polarity(np.zeros(600), FS)


def test_detect_polarity_antisymmetric():
    rng = np.random.default_rng(8)
    t = np.arange(int(3 * FS)) / FS
    x = _beat_train(t, np.arange(0.2, 3.0, 0.5)) + 0.05 * rng.normal(
        size=t.size)
    a = detect_polarity(x, FS)
    b = detect_polarity(-x, FS)
    assert {a, b} == {Polarity.POSITIVE, Polarity.NEGATIVE}
