import os

import numpy as np
import pytest

from pwdrecon.core import WaveConfig
from pwdrecon.harness.io import load_manifests, load_record, read_raw_f32
from pwdrecon.harness.synth import (
    SyntheticSpec,
    _rasterize,
    generate_synthetic,
)
from pwdrecon.pwd_envelope import extract_envelopes


def raster_by_column(upper, lower, height, baseline_row):
    """Reference: fill each column's bright span in a loop."""
    px = np.zeros((height, upper.size))
    up = np.clip(np.round(upper), 0, baseline_row - 1).astype(int)
    lo = np.clip(np.round(-lower), 0, height - baseline_row - 2).astype(int)
    for c in range(upper.size):
        if up[c] >= 1:
            px[baseline_row - up[c]:baseline_row, c] = 255.0
        if lo[c] >= 1:
            px[baseline_row + 1:baseline_row + 1 + lo[c], c] = 255.0
    return px


@pytest.mark.parametrize("seed", range(4))
def test_rasterize_equals_column_loop(seed):
    rng = np.random.default_rng(seed)
    height = int(rng.integers(4, 60))
    baseline_row = int(rng.integers(1, height - 1))
    # curves beyond both image edges, on either side of zero and at .5
    upper = np.concatenate([rng.uniform(-3, height + 3, size=300),
                            np.arange(-2, height + 2) + 0.5])
    lower = -rng.permutation(np.concatenate(
        [rng.uniform(-3, height + 3, size=300),
         np.arange(-2, height + 2) - 0.5]))
    img = _rasterize(upper, lower, height, baseline_row)
    ref = raster_by_column(upper, lower, height, baseline_row)
    assert img.dtype == np.uint8
    assert img.tobytes() == ref.astype(np.uint8).tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_records=0)
    with pytest.raises(ValueError):
        SyntheticSpec(fecg_polarity=0)


def test_generate_writes_complete_dataset(tmp_path):
    spec = SyntheticSpec(n_records=2, duration_s=4.0, seed=0)
    out = str(tmp_path / "ds")
    manifests = generate_synthetic(spec, out)
    assert len(manifests) == 2
    assert load_manifests(os.path.join(out, "records.json")) == manifests
    for m in manifests:
        rows, img = load_record(m, out)
        assert rows.shape == (3, int(4.0 * spec.aecg_fs))
        assert img.shape == (spec.image_height,
                                    int(4.0 * spec.columns_per_second))
        for key in ("fetal_clean_path", "truth_upper_path",
                    "truth_lower_path"):
            assert os.path.exists(os.path.join(out, m.aux[key]))


def test_generation_deterministic(tmp_path):
    spec = SyntheticSpec(n_records=1, duration_s=3.0, seed=5)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_synthetic(spec, a)
    generate_synthetic(spec, b)
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_render_extract_roundtrip(tmp_path):
    """Envelopes recovered from the rendered image match the truth curves
    to within rasterization error (one pixel)."""
    spec = SyntheticSpec(n_records=1, duration_s=6.0, seed=3)
    out = str(tmp_path / "ds")
    (m,) = generate_synthetic(spec, out)
    _, img = load_record(m, out)
    upper, lower = extract_envelopes(img, np.arange(256.0), threshold=128.0,
                                     baseline_row=m.image_baseline_row)
    upper_truth = read_raw_f32(os.path.join(out, m.aux["truth_upper_path"]))
    lower_truth = read_raw_f32(os.path.join(out, m.aux["truth_lower_path"]))
    # sub-pixel truth values round to the rasterized column heights
    assert np.max(np.abs(upper - np.round(upper_truth))) <= 1.0
    assert np.max(np.abs(lower - np.round(lower_truth))) <= 1.0
    r_u = np.corrcoef(upper, upper_truth)[0, 1]
    assert r_u >= 0.99


def test_fetal_maternal_amplitude_ratio(tmp_path):
    spec = SyntheticSpec(n_records=1, duration_s=8.0, seed=1,
                         noise_sigma=0.0)
    out = str(tmp_path / "ds")
    (m,) = generate_synthetic(spec, out)
    fetal = read_raw_f32(os.path.join(out, m.aux["fetal_clean_path"]))
    # fetal train peaks at ratio * R amplitude (=1.0)
    assert np.max(np.abs(fetal)) == pytest.approx(
        spec.fetal_maternal_ratio, rel=0.1)


def test_ea_minus_swaps_envelope_roles(tmp_path):
    base = dict(n_records=1, duration_s=4.0, seed=9)
    out_p = str(tmp_path / "plus")
    out_m = str(tmp_path / "minus")
    (mp,) = generate_synthetic(
        SyntheticSpec(wave_config=WaveConfig.EA_PLUS, **base), out_p)
    (mm,) = generate_synthetic(
        SyntheticSpec(wave_config=WaveConfig.EA_MINUS, **base), out_m)
    up_p = read_raw_f32(os.path.join(out_p, mp.aux["truth_upper_path"]))
    lo_p = read_raw_f32(os.path.join(out_p, mp.aux["truth_lower_path"]))
    up_m = read_raw_f32(os.path.join(out_m, mm.aux["truth_upper_path"]))
    lo_m = read_raw_f32(os.path.join(out_m, mm.aux["truth_lower_path"]))
    # same seed: EA- upper equals EA+ outflow (-lower), EA- lower = -inflow
    assert np.allclose(up_m, -lo_p)
    assert np.allclose(lo_m, -up_p)
