import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from pwdrecon.core import TARGET_FS
from pwdrecon.dsp import (
    design_bandpass,
    filtfilt,
    mean_center,
    resample_linear,
    segment,
    zscore,
)
from pwdrecon.errors import (
    SignalShorterThanWindow,
    SignalTooShort,
    ZeroVariance,
)
from pwdrecon.harness.experiment import FECG_SOS
from pwdrecon.pwd_envelope import ENVELOPE_SOS, preprocess_envelopes

FS = 284.0


def impulse_response(sos, n):
    x = np.zeros(n)
    x[0] = 1.0
    return sps.sosfilt(sos, x)


def dft_gain(sos, freq_hz, n=8192):
    """Oracle: single-pass gain at freq_hz from the DFT of the impulse
    response."""
    H = np.abs(np.fft.rfft(impulse_response(sos, n)))
    freqs = np.fft.rfftfreq(n, 1.0 / FS)
    return H[np.argmin(np.abs(freqs - freq_hz))]


@pytest.mark.parametrize("kind", ["butterworth", "bessel"])
def test_designed_filter_is_stable(kind):
    sos = design_bandpass(kind)
    assert sos.shape == (4, 6)  # the bandpass doubles the order 4
    # oracle: each section's poles are the roots of its denominator
    poles = np.concatenate([np.roots(sec[3:]) for sec in sos])
    assert np.all(np.abs(poles) < 1.0)


def test_butterworth_band_response():
    f = design_bandpass("butterworth")
    peak = dft_gain_max(f)
    assert 0.95 * peak <= dft_gain(f, 10.0) <= 1.0 * peak + 1e-12
    assert dft_gain(f, 100.0) <= 0.05


def dft_gain_max(sos, n=8192):
    H = np.abs(np.fft.rfft(impulse_response(sos, n)))
    return H.max()


def test_invalid_band_rejected():
    with pytest.raises(ValueError, match="unknown filter kind: 'butter'"):
        design_bandpass("butter")


def test_stream_filters_are_designed_once_at_import():
    assert np.array_equal(FECG_SOS, design_bandpass("butterworth"))
    assert np.array_equal(ENVELOPE_SOS, design_bandpass("bessel"))


def test_filtfilt_passes_inband_sinusoid():
    f = design_bandpass("butterworth")
    t = np.arange(568) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    y = filtfilt(f, x)
    assert len(y) == len(x)
    # oracle: amplitude from the exact 10 Hz DFT bin (bin 20 of 568)
    ratio = np.abs(np.fft.rfft(y))[20] / np.abs(np.fft.rfft(x))[20]
    assert 0.9 <= ratio <= 1.0
    xc = np.correlate(y, x, mode="full")
    assert np.argmax(xc) == len(x) - 1  # zero-phase: peak at lag 0
    assert np.corrcoef(x, y)[0, 1] >= 0.99


@pytest.mark.parametrize("kind", ["butterworth", "bessel"])
def test_filtfilt_attenuates_60hz(kind):
    f = design_bandpass(kind)
    # oracle: squared single-pass gain bounds the forward-backward result
    g = dft_gain(f, 60.0)
    assert g <= 0.6
    t = np.arange(568) / FS
    x = np.sin(2 * np.pi * 60.0 * t)
    y = filtfilt(f, x)
    rms_ratio = np.sqrt(np.mean(y ** 2) / np.mean(x ** 2))
    assert rms_ratio <= 0.35


def test_filtfilt_zero_signal_and_too_short():
    f = design_bandpass("butterworth")
    y = filtfilt(f, np.zeros(100))
    assert np.allclose(y, 0.0)
    with pytest.raises(SignalTooShort):
        filtfilt(f, np.zeros(20))


def test_filtfilt_linearity():
    f = design_bandpass("butterworth")
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    y = rng.normal(size=500)
    a, b = 2.5, -1.25
    lhs = filtfilt(f, a * x + b * y)
    rhs = a * filtfilt(f, x) + b * filtfilt(f, y)
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-6


def test_resample_identity_and_affine():
    x = np.arange(100.0)
    same = resample_linear(x, TARGET_FS)
    assert np.array_equal(same, x)
    out = resample_linear(np.arange(2048.0), 2048.0)
    assert len(out) == 284
    expected = np.arange(284) / 284.0 * 2048.0
    assert np.max(np.abs(out - expected)) < 1e-9


def test_resample_sample_count():
    assert len(resample_linear(np.zeros(2048), 2048.0)) == 284


def test_zscore_contract():
    out = zscore(np.array([1.0, 2.0, 3.0]))
    assert abs(np.mean(out)) < 1e-9
    assert abs(np.std(out) - 1.0) < 1e-9
    with pytest.raises(ZeroVariance):
        zscore(np.full(10, 7.0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=200))
@settings(max_examples=50, deadline=None)
def test_zscore_idempotent(values):
    x = np.asarray(values)
    if np.std(x) < 1e-9:
        return
    once = zscore(x)
    twice = zscore(once)
    assert np.max(np.abs(twice - once)) < 1e-9


def test_mean_center():
    assert np.array_equal(mean_center(np.array([5.0, 5.0, 5.0])),
                          np.zeros(3))
    out = mean_center(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [-1.0, 0.0, 1.0])
    again = mean_center(out)
    assert np.max(np.abs(again - out)) < 1e-12


def test_segment_examples():
    x = np.arange(568.0)
    ws = segment(x, x[None], 2.0, "r")
    assert len(ws) == 1 and ws.x.shape == (1, 568)

    x = np.arange(1420.0)
    ws = segment(x, np.array([x, x]), 2.0, "r")
    assert len(ws) == 2  # floor(1420/568); 284 samples discarded
    assert ws.y.shape == (2, 2, 568)
    assert ws.t_start[1] == pytest.approx(568 / FS)
    assert list(ws.record_id) == ["r", "r"]

    with pytest.raises(SignalShorterThanWindow):
        segment(np.zeros(100), np.zeros((1, 100)), 2.0, "r")


def test_segment_concatenation_reproduces_prefix():
    rng = np.random.default_rng(1)
    x = rng.normal(size=700)
    ws = segment(x, x[None], 0.5, "r")
    cat = np.concatenate(list(ws.x))
    assert np.array_equal(cat, x[:cat.size])
    assert np.array_equal(np.concatenate(list(ws.y[:, 0])), cat)


# just above SignalTooShort's limit (3 * 8 samples), and on both sides of
# the switch from padlen n - 1 to padlen 10 * TARGET_FS at n = 2841
@pytest.mark.parametrize("n", [25, 300, 2840, 2841, 2842, 34080])
def test_row_calls_equal_one_call_per_row(n):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(2, n)) * [[3.0], [0.5]] + [[7.0], [-2.0]]
    for fn in (lambda x: filtfilt(ENVELOPE_SOS, x),
               lambda x: filtfilt(FECG_SOS, x), zscore, mean_center):
        want = np.array([fn(row) for row in rows])
        assert fn(rows).tobytes() == want.tobytes()
    # the envelope chain, resampling from the image column rate or not
    raw = np.round(rows)
    for fs in (100.0, TARGET_FS):
        want = np.array([mean_center(filtfilt(ENVELOPE_SOS, resample_linear(
            mean_center(row), fs))) for row in raw])
        assert preprocess_envelopes(raw, fs).tobytes() == want.tobytes()
