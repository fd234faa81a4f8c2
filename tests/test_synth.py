import hashlib
import os

import numpy as np
import pytest

from pwdrecon.core import WaveConfig
from pwdrecon.harness.io import load_manifests, load_record, read_f32_rows
from pwdrecon.harness.synth import (
    SyntheticSpec,
    _gauss_train,
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


def gauss_train_by_centre(t, centers, amp, width_s):
    """Reference: add each centre's Gaussian in a loop, centre by centre."""
    out = np.zeros_like(t)
    for c in centers:
        lo = np.searchsorted(t, c - 5 * width_s)
        hi = np.searchsorted(t, c + 5 * width_s)
        out[lo:hi] += amp * np.exp(-0.5 * ((t[lo:hi] - c) / width_s) ** 2)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_gauss_train_equals_centre_loop(seed):
    rng = np.random.default_rng(seed)
    t = np.arange(int(rng.integers(2, 400))) / rng.uniform(50.0, 600.0)
    width = rng.uniform(0.002, 0.05)
    # gaps below 10 widths, so neighbouring tails overlap, from 8 widths
    # before t to past its end; then the same centres in shuffled order
    gaps = rng.uniform(1.0, 9.9, size=int((t[-1] + 20 * width) / width))
    centers = t[0] - 8 * width + width * np.cumsum(gaps)
    assert centers[0] - 5 * width < t[0] and centers[-1] - 5 * width > t[-1]
    for c in (centers, rng.permutation(centers)):
        got = _gauss_train(t, c, -0.7, width)
        assert got.tobytes() == gauss_train_by_centre(t, c, -0.7,
                                                      width).tobytes()
    assert _gauss_train(t, np.empty(0), 1.0, width).tobytes() \
        == np.zeros_like(t).tobytes()


# the sha256 of every file generate_synthetic writes, per spec: a faster
# renderer must write the same bytes. The 0.3 s record's humps run past
# both ends of its samples and its maternal train has no beat.
GOLDEN_SPECS = {
    "default": ({}, {
        "rec000.ch0.f32":
            "d746d60d67dc3c13d10c80d8b7706e8104b2754d20090b0984fb6aa53755b6cd",
        "rec000.ch1.f32":
            "17e6ce6430647846ac1d3e4e1b5b00d115efd200eb5a4258c86c2ca81a35159c",
        "rec000.ch2.f32":
            "11c0b151fe3350e604349c2307b1917a359ec0434a8cd452a1a417e1088a9d59",
        "rec000.fetal_clean.f32":
            "0b118a1eafa48b21893cf32a06956acb4b7a8c523d700d9e6fbe750cdf601025",
        "rec000.pwd.pgm":
            "534dcc2c746bbbeef0713b2e51da37cbf3fa6bccfe8db82672a8517143b619ff",
        "rec000.truth_lower.f32":
            "f85e7a0eff24073d83a6651b2391683251a39758ca3534cb9fc7e928fad8ad9b",
        "rec000.truth_upper.f32":
            "94678c69229e24f7438e5b0e1eadd679ac354dd33228e970af0c418f07bd5d24",
        "rec001.ch0.f32":
            "45a45fd2c124400ea1e882498e4e41756e1d6f3868b02f09f3d87912c8a2d32e",
        "rec001.ch1.f32":
            "7e3f6c9c71c56ee9d578af23c9bf9aa581087c53c4a98b96382ea9edcf283670",
        "rec001.ch2.f32":
            "46e19dbbbb13b705ab2ceeda5e2624cc64f70999cfede346f84274d954410798",
        "rec001.fetal_clean.f32":
            "52165cb27930e78dee74d0f5e28ac8b38c5282a006d88ad51c86f0c5143f3f09",
        "rec001.pwd.pgm":
            "eff1e2da15f7d1ee98199d08ed5352d31576e8363f8c0c24cdcae99584eef1ea",
        "rec001.truth_lower.f32":
            "959151183d57d71024a2b6931d7e15e6984700a886743f54709466aae9e16b19",
        "rec001.truth_upper.f32":
            "b53904dcbe5ac2c8c180e1c58fe739b1c2680d8c8be244f3867bb0dafb215b9d",
        "rec002.ch0.f32":
            "56b1ea69e312e0166ed73a695a8ad0e1559b329332e8da5d47d69bb178d73700",
        "rec002.ch1.f32":
            "faca12479ed0ddb5ed5471dfb03ecb92a10e6dd505c29679bf21a5926667c31e",
        "rec002.ch2.f32":
            "2772c7ed3c1e642623c01d05ccc5ed4d0a81af9ef77d58852bea06d20f106c48",
        "rec002.fetal_clean.f32":
            "c71b9277435cb9d76ec7a62e497ca13d09a0df0ed782934702c8529a2c63f2a6",
        "rec002.pwd.pgm":
            "d2b0e7ea292f8dc4b2669495cbaffb7f59244da2c96f1111b475e8228c76e9b7",
        "rec002.truth_lower.f32":
            "a4108a9a6d5bef523fe0a283c4bf8b433737b4dc9c4b71f76c6995460d798695",
        "rec002.truth_upper.f32":
            "90d26e0df6c0d2305d99c0e317e83eb14e9d9f9a316c54764a00e4ca14a539d2",
        "rec003.ch0.f32":
            "7f7391b77799d1ec0a35de14e92f40b0c4361acfb593d7790a8c4b921d6f8428",
        "rec003.ch1.f32":
            "865c3ec6f04f11dec2d73d9bc92e93cefeab2c2e24983839f6d3e60d5780dccc",
        "rec003.ch2.f32":
            "f86ef56b4860fe775651338cbb0c561b1fdb05f44f300feb753f1748162cd7d4",
        "rec003.fetal_clean.f32":
            "2a5bed4d88159bd5da7d37b658a590801ddc0e80609af1c0f39b03e5067192b5",
        "rec003.pwd.pgm":
            "79d37032041279e01c1d0dc28239dcf60c2b4beed8b5dc32845fa4d67f616586",
        "rec003.truth_lower.f32":
            "d6e2ff44453f926da2cf63647c7772af9143c9144b45bdc4cb457752c025a702",
        "rec003.truth_upper.f32":
            "3d50e01b06e4493db19c560d756fc18f5b6c4c4e412d68970267333816eceb5c",
        "records.json":
            "a804322587ee1b9fdf1dd6fecc14dfce834efaf0544f18f53fb416c305a30077",
    }),
    "rr-jitter": (dict(n_records=2, duration_s=20.0, fetal_rr_jitter=0.05), {
        "rec000.ch0.f32":
            "74b6977bd6b87f0dad413a041633d1fe672aa108ace2a56ac6a05ba278dda900",
        "rec000.ch1.f32":
            "913485b5ae342b79ee6a493a85f52b1844e4783358ac070f0ccb26bda55a17a3",
        "rec000.ch2.f32":
            "677caffd8a7d01b5c47edf8c147d476bff449702434a72f8f08c977f016976b1",
        "rec000.fetal_clean.f32":
            "49f818fb9e1307e7678476ad63b56d391b4ae3d8386a0fdca36f2fdaf8d6c52d",
        "rec000.pwd.pgm":
            "81de2b6446ec85c24dc3a6d64ac25386b0c6c4c602f34945386e2272d8086a67",
        "rec000.truth_lower.f32":
            "01c0bb5d5f5830e85cbd1dbaa10a82f0189d1445b3d4fc0ea05c2b5cbb3427f1",
        "rec000.truth_upper.f32":
            "ff5b178b2e97e68fb282677eb6f8b64eceac2403b4b630480442b52edb239e03",
        "rec001.ch0.f32":
            "66b7b947131d93e0146a8b6add94b8a30db35059e0036b712d9fd045a15dfdce",
        "rec001.ch1.f32":
            "41104fcf86a98d2e8c811b11a936fd5c8a377ace39a000fafca623a33c0774f1",
        "rec001.ch2.f32":
            "2adc7643cfa15a974e6f0620c2ee77abe5d5353a3cf3d1c303d0f6dae5a8e817",
        "rec001.fetal_clean.f32":
            "fe03ea723f42601e8b5b1ae6a2b9aa37e3318fdebedd6d5ef21c6741265d8f81",
        "rec001.pwd.pgm":
            "07b679c9a36339bc69bdc8eeb7bd123d1c4ff90f8f806e8bc44c64aca3c92a79",
        "rec001.truth_lower.f32":
            "9a1dae1313b836c48f347fe331c809f0729633e55eb8efdaea49f2bc2b97e4d1",
        "rec001.truth_upper.f32":
            "dc0b5f2e3120d869edd15f88afee5500590941e4e87e9b737571f166814b921e",
        "records.json":
            "dd317aa41dd6f3ffe8c8fa78f32b8f65703e0ba0e691fec44b9eb4be3b9f8aa1",
    }),
    "ea-minus": (dict(n_records=2, duration_s=6.0, seed=4,
                     wave_config=WaveConfig.EA_MINUS, fecg_polarity=-1,
                     jitter_ms=20.0), {
        "rec000.ch0.f32":
            "e859a56a86b87a5109cd001df701d46dd343dc89463636aae9a63ff61745413c",
        "rec000.ch1.f32":
            "ad0b84abda4d5a1a836bbb069b242bf09d7df8cb51a5c04b1306a9afbcec3e1d",
        "rec000.ch2.f32":
            "34fe09eff28360f1076742f826edba4b961c3c67bc069225c260c22a0bf69227",
        "rec000.fetal_clean.f32":
            "bd87bcd2e7af57ba67ae8cea567402781e5962552451cbb854afc5fb07d9a08e",
        "rec000.pwd.pgm":
            "c9cbef9bbe278d17a957a6195fcd7d430a3b749516dc9c0a3b02f04860389bae",
        "rec000.truth_lower.f32":
            "4aafcc74d08bcef43e928d159a102dd5721df85e562489c79a08a259ce529a8f",
        "rec000.truth_upper.f32":
            "45840c0e9ec9fe01f5accf151267017288d71a9ecd1063aac770dfe6e5c38220",
        "rec001.ch0.f32":
            "02f78190eb764efd549b1c4f94ddfbf925531f124687cd99ef9b65affad106d5",
        "rec001.ch1.f32":
            "7025cd9780afde9c71ca2c99f120c04acb0786532d6c519a3c2d51f528836acb",
        "rec001.ch2.f32":
            "4db0bac098e1a221bc7dc53190cf3e0aa29da8848486131d3506b4a6aedb4ede",
        "rec001.fetal_clean.f32":
            "f3a6551b9e88b51c1a1e8a295e80ba05e9a33fdb155bec6c883bbc9bd6d10a1c",
        "rec001.pwd.pgm":
            "c73c7c436e2a8ae498567e7876a7b308302640e557c3ef6d54f3dfc5b4261a47",
        "rec001.truth_lower.f32":
            "28b45b5c5b000aa74cec0b0b964ff58e51679b350415387b9bc41d8030feb29a",
        "rec001.truth_upper.f32":
            "73078936b1d5e8ee74ba403637fe19dee7cc358a4badf71f3b52fd1683457678",
        "records.json":
            "0b14d05b41c6340aa16a181112f79d27a8c1fbdbb45649f1bbe373b70e332d78",
    }),
    "fs300-noisy": (dict(n_records=1, duration_s=10.0, seed=7, aecg_fs=300.0,
                        fetal_rr_jitter=0.3, noise_sigma=0.1), {
        "rec000.ch0.f32":
            "e2ea3b0da05ec1aef092d3c2cd6ab8ab8afccb1915ab05a5b464be3f59177576",
        "rec000.ch1.f32":
            "ba2d3969a1065f772f09b3824a28ba589f6135f3ff2d4e7d904285211d307941",
        "rec000.ch2.f32":
            "27725ec39b59588e01281869b56e18e6ee3e5f61c6c4d599ab499929056a2d03",
        "rec000.fetal_clean.f32":
            "0ec207756f5908875f31a8e1870d6f0253f6b2dc9a14fb04ff93beca98ae4856",
        "rec000.pwd.pgm":
            "c36c8665f4b05fe9bcf37d0624aae32d0e65dcb94fa98e38f901f41ea0c7c13f",
        "rec000.truth_lower.f32":
            "b7f7c48d793163374b016091ccd234441ae52fb539f610622021a26e4f4574da",
        "rec000.truth_upper.f32":
            "ea86bf5d08f2e50fd99778764f6f88e5551b1edcdfefbd952e50a8b2505c054b",
        "records.json":
            "3918682ab35c642e927d384f5f81d0dc1a1fd13a10dbd51d1b8ec4bbb45cb834",
    }),
    "past-both-ends": (dict(n_records=1, duration_s=0.3), {
        "rec000.ch0.f32":
            "273bf5c82ed7fcd6991799f1ad6e8b0c31ad330a8683ec7de75bb724049daaac",
        "rec000.ch1.f32":
            "4f56321bee61160c04f78c6b2d64e39cbd09a012385c3f062f9e01af64d6de71",
        "rec000.ch2.f32":
            "a221e106f1e886e3dc719c14f32623ed396434ec8b9dfb4fa01a1cb659d43411",
        "rec000.fetal_clean.f32":
            "87c67ac3a9d361220fcaf931cf21158f8b005b8c9a6ea8451dfb5c6aba97d27f",
        "rec000.pwd.pgm":
            "a9f6eb1aa745b008dadf44a7eebe5087e39257696a30e316c9fff00446d409f7",
        "rec000.truth_lower.f32":
            "d1a0fc8184c69eac8b2d4b6820dfbe3f2ba9152976de068a772cc0ab26f85e4d",
        "rec000.truth_upper.f32":
            "537eacd699df52e051ba2d3d83e6bd30e2fd01e7e839b30d4c782c487284d7fe",
        "records.json":
            "e3914614abeae34a8bb3e1bcf3aa850ed54260abdbe5425029d712d2acc0f93a",
    }),
}


@pytest.mark.parametrize("name", GOLDEN_SPECS)
def test_records_keep_their_bytes(name, tmp_path):
    kwargs, golden = GOLDEN_SPECS[name]
    generate_synthetic(SyntheticSpec(**kwargs), str(tmp_path))
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == golden


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_records=0)
    with pytest.raises(ValueError):
        SyntheticSpec(fecg_polarity=0)
    # an infinite rate would stop the render at its first uniform draw
    with pytest.raises(ValueError, match="SyntheticSpec.fetal_bpm"):
        SyntheticSpec(fetal_bpm=(150.0, float("inf")))


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
    upper_truth, lower_truth = read_f32_rows(
        [os.path.join(out, m.aux[k]) for k in ("truth_upper_path",
                                               "truth_lower_path")],
        None, "")
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
    (fetal,) = read_f32_rows([os.path.join(out, m.aux["fetal_clean_path"])],
                             None, "")
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
    up_p, lo_p, up_m, lo_m = read_f32_rows(
        [os.path.join(out, m.aux[k]) for out, m in ((out_p, mp), (out_m, mm))
         for k in ("truth_upper_path", "truth_lower_path")], None, "")
    # same seed: EA- upper equals EA+ outflow (-lower), EA- lower = -inflow
    assert np.allclose(up_m, -lo_p)
    assert np.allclose(lo_m, -up_p)
