import numpy as np
import pytest

from pwdrecon.core import (
    EnvelopePair,
    MultichannelRecording,
    RecordManifest,
    TimeSeries,
    WaveConfig,
    WindowSet,
    duration,
)


def test_duration_examples():
    assert duration(TimeSeries(np.zeros(568), 284.0)) == 2.0
    assert duration(TimeSeries(np.zeros(284), 284.0)) == 1.0
    assert duration(TimeSeries(np.zeros(213), 284.0)) == 0.75


def test_timeseries_rejects_bad_construction():
    with pytest.raises(ValueError):
        TimeSeries(np.array([]), 284.0)
    with pytest.raises(ValueError):
        TimeSeries(np.zeros(10), 0.0)
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((2, 5)), 284.0)


def test_timeseries_is_immutable():
    ts = TimeSeries(np.arange(5.0), 10.0)
    with pytest.raises(ValueError):
        ts.samples[0] = 99.0


def test_multichannel_requires_consistent_channels():
    a = TimeSeries(np.zeros(10), 100.0)
    b = TimeSeries(np.zeros(11), 100.0)
    c = TimeSeries(np.zeros(10), 200.0)
    with pytest.raises(ValueError):
        MultichannelRecording(channels=(a, b), source_fs=100.0)
    with pytest.raises(ValueError):
        MultichannelRecording(channels=(a, c), source_fs=100.0)
    with pytest.raises(ValueError):
        MultichannelRecording(channels=(), source_fs=100.0)
    rec = MultichannelRecording(channels=(a, a), source_fs=100.0)
    assert rec.as_matrix().shape == (10, 2)


def test_envelope_pair_invariants():
    u = TimeSeries(np.zeros(10), 284.0)
    with pytest.raises(ValueError):
        EnvelopePair(upper=u, lower=TimeSeries(np.zeros(9), 284.0))
    with pytest.raises(ValueError):
        EnvelopePair(upper=u, lower=TimeSeries(np.zeros(10), 100.0))


def test_window_set_shape_checks():
    def ws(x, y, n=3):
        return WindowSet(x=x, y=y, t_start=np.arange(n) * 0.5,
                         record_id=["r"] * n)

    with pytest.raises(ValueError):  # lengths differ
        ws(np.zeros((3, 8)), np.zeros((3, 1, 7)))
    with pytest.raises(ValueError):  # 3 target channels
        ws(np.zeros((3, 8)), np.zeros((3, 3, 8)))
    with pytest.raises(ValueError):  # row counts differ
        ws(np.zeros((3, 8)), np.zeros((2, 2, 8)))
    with pytest.raises(ValueError):  # one window, not a set of windows
        ws(np.zeros(8), np.zeros((2, 8)))
    with pytest.raises(ValueError):  # t_start and record_id per row
        ws(np.zeros((2, 8)), np.zeros((2, 2, 8)))
    w = ws(np.zeros((3, 8)), np.zeros((3, 2, 8)))
    assert len(w) == 3 and w.y.shape == (3, 2, 8)
    assert list(w.record_id) == ["r"] * 3
    with pytest.raises(ValueError):
        w.x[0, 0] = 1.0


def test_manifest_rejects_bad_indices():
    kwargs = dict(record_id="r", channel_paths=("a", "b", "c"),
                  image_path="i.pgm", aecg_fs=2048.0,
                  wave_config=WaveConfig.EA_PLUS, image_baseline_row=50,
                  image_columns_per_second=100.0)
    with pytest.raises(ValueError):
        RecordManifest(bipolar_channel_indices=(0, 0, 1), **kwargs)
    with pytest.raises(ValueError):
        RecordManifest(bipolar_channel_indices=(0, 1, 5), **kwargs)
    m = RecordManifest(bipolar_channel_indices=(2, 0, 1), **kwargs)
    assert m.bipolar_channel_indices == (2, 0, 1)
