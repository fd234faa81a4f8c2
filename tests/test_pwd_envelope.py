import tracemalloc

import numpy as np
import pytest

from pwdrecon.core import TARGET_FS
from pwdrecon.errors import ConstantImage, DegenerateInput
from pwdrecon.harness.io import load_record, read_pgm, write_pgm
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic
from pwdrecon.pwd_envelope import (
    COUNT_SLICE,
    extract_envelopes,
    normalize_intensity,
    otsu_threshold,
    pca_compress_envelopes,
    pixel_counts,
    preprocess_envelopes,
)

BYTE_LEVELS = np.arange(256.0)  # each byte value at its own intensity


def otsu_of(px):
    """otsu_threshold on any image's pixel values, float ones included:
    each distinct value is a level, counted by its pixels."""
    return otsu_threshold(*np.unique(px, return_counts=True))


def otsu_oracle(pixels):
    """Exhaustive 256-way scan maximizing between-class variance."""
    hist, _ = np.histogram(pixels, bins=256, range=(0.0, 256.0))
    total = hist.sum()
    best_t, best_var = 0, -1.0
    for t in range(1, 256):
        bg = hist[:t]
        fg = hist[t:]
        nb, nf = bg.sum(), fg.sum()
        if nb == 0 or nf == 0:
            continue
        mu_b = (bg * np.arange(t)).sum() / nb
        mu_f = (fg * np.arange(t, 256)).sum() / nf
        var = (nb / total) * (nf / total) * (mu_b - mu_f) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def envelopes_by_column(bright, baseline_row):
    """Reference: the per-column loop over a boolean image."""
    height, width = bright.shape
    upper, lower = np.zeros(width), np.zeros(width)
    for c in range(width):
        above = np.flatnonzero(bright[:baseline_row, c])
        if above.size:
            upper[c] = baseline_row - above.min()
        below = baseline_row + 1 + np.flatnonzero(bright[baseline_row + 1:, c])
        if below.size:
            lower[c] = -(below.max() - baseline_row)
    return upper, lower


def image_path_reference(px, baseline_row):
    """Reference: the float64 per-pixel image path. Returns the Otsu
    threshold of the normalized image and the envelopes of its pixels
    at or above it."""
    px = px.astype(np.float64)
    norm = (px - px.min()) * (255.0 / (px.max() - px.min()))
    thr = otsu_oracle(norm)
    return thr, envelopes_by_column(norm >= thr, baseline_row)


def image_path(px, baseline_row):
    counts = pixel_counts(px)
    levels = normalize_intensity(counts)
    thr = otsu_threshold(levels, counts)
    return thr, extract_envelopes(px, levels, thr, baseline_row)


def test_normalize_intensity():
    px = np.array([[10, 20], [30, 50]], dtype=np.uint8)
    out = normalize_intensity(pixel_counts(px))[px]
    assert out.min() == 0.0 and out.max() == 255.0
    assert out[0, 1] == pytest.approx((20 - 10) / 40 * 255)
    with pytest.raises(ConstantImage):
        normalize_intensity(pixel_counts(np.full((3, 3), 9, np.uint8)))


def test_otsu_bimodal_and_oracle_agreement():
    rng = np.random.default_rng(0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        px = np.clip(np.concatenate([
            rng.normal(40, 12, size=900),
            rng.normal(200, 15, size=300),
        ]), 0, 255).reshape(40, 30)
        t = otsu_of(px)
        assert t == otsu_oracle(px)
        assert 60 <= t <= 180  # lands between the two modes


def test_otsu_two_level_image():
    px = np.zeros((10, 10))
    px[:3] = 200.0
    t = otsu_of(px)
    assert 1 <= t <= 200
    fg = px >= t
    assert fg.sum() == 30  # exactly the bright block
    with pytest.raises(ConstantImage):
        otsu_of(np.full((4, 4), 128.0))


def test_otsu_bins_integer_edges_like_histogram():
    # A pixel just below an integer edge belongs to the bin beneath it.
    # On a two-level image every threshold between the levels ties, so
    # the smallest one, low bin + 1, shows which bin the low level took.
    for k in range(1, 256):
        low = np.nextafter(float(k), 0.0)
        px = np.full((4, 4), 255.0)
        px[:2] = low
        assert otsu_of(px) == otsu_oracle(px) == k
    rng = np.random.default_rng(7)
    edges = np.arange(256.0)
    values = np.concatenate([edges, np.nextafter(edges[1:], 0.0)])
    for _ in range(20):
        px = rng.choice(values, size=(16, 16))
        px[0, :2] = 0.0, 255.0
        assert otsu_of(px) == otsu_oracle(px)


@pytest.mark.parametrize("seed,kind", [
    (0, "uniform"), (1, "palette"), (2, "two-level")],
    ids=["uniform", "palette", "two-level"])
def test_otsu_equals_oracle_on_seeded_images(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        shape = tuple(rng.integers(2, 40, size=2))
        if kind == "uniform":
            px = rng.uniform(0.0, 255.0, size=shape)
        else:
            n_levels = 2 if kind == "two-level" else rng.integers(3, 9)
            levels = rng.choice(256, size=n_levels, replace=False)
            px = rng.choice(levels, size=shape).astype(float)
            px.flat[:n_levels] = levels    # every level present
        assert otsu_of(px) == otsu_oracle(px)


def _seeded_bytes(kind, rng):
    shape = tuple(rng.integers(3, 40, size=2))
    if kind == "uniform":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if kind == "inner-range":      # absent levels below and above
        lo = rng.integers(1, 200)
        hi = rng.integers(lo + 1, 255)
        px = rng.integers(lo, hi + 1, size=shape, dtype=np.uint8)
        px.flat[:2] = lo, hi
        return px
    n_levels = 2 if kind == "two-level" else rng.integers(3, 9)
    levels = rng.choice(256, size=n_levels, replace=False).astype(np.uint8)
    px = rng.choice(levels, size=shape)
    px.flat[:n_levels] = levels    # every level present
    return px


@pytest.mark.parametrize("kind", ["uniform", "palette", "two-level",
                                  "inner-range"])
def test_image_path_equals_float_reference(kind):
    rng = np.random.default_rng(["uniform", "palette", "two-level",
                                 "inner-range"].index(kind))
    for _ in range(100):
        px = _seeded_bytes(kind, rng)
        baseline_row = int(rng.integers(1, px.shape[0] - 1))
        thr, env = image_path(px, baseline_row)
        ref_thr, (upper, lower) = image_path_reference(px, baseline_row)
        assert thr == ref_thr
        assert env[0].tobytes() == upper.tobytes()
        assert env[1].tobytes() == lower.tobytes()


def test_image_path_equals_float_reference_on_a_pwd_raster(tmp_path):
    (m,) = generate_synthetic(SyntheticSpec(n_records=1, duration_s=4.0,
                                            seed=4), str(tmp_path))
    _, img = load_record(m, str(tmp_path))
    thr, env = image_path(img, m.image_baseline_row)
    ref_thr, (upper, lower) = image_path_reference(img, m.image_baseline_row)
    assert thr == ref_thr
    assert env[0].tobytes() == upper.tobytes()
    assert env[1].tobytes() == lower.tobytes()
    assert np.any(upper > 0) and np.any(lower < 0)


def test_normalize_intensity_accepts_any_8bit_range():
    # (hi - lo) * (255 / (hi - lo)) is one ulp above 255 for 35 of the
    # 255 ranges; the top level must still be a valid intensity
    for lo, hi in [(0, d) for d in range(1, 256)] + [(7, 18), (100, 161)]:
        px = np.full((3, 4), lo, dtype=np.uint8)
        px[0] = hi
        counts = pixel_counts(px)
        levels = normalize_intensity(counts)
        assert np.nextafter(255.0, 0.0) <= levels[px].max() <= 255.0
        assert levels[px].min() == 0.0
        assert otsu_threshold(levels, counts) == 1    # every threshold ties


def test_gray_image_is_held_by_level():
    px = np.array([[3, 9, 3], [200, 9, 3]], dtype=np.uint8)
    counts = pixel_counts(px)
    assert counts.shape == (256,)
    assert counts[[3, 9, 200]].tolist() == [3, 2, 1]
    assert counts.sum() == px.size


def test_image_path_allocates_at_most_4_bytes_per_pixel(tmp_path):
    rng = np.random.default_rng(5)
    height, width = 200, 12000
    path = str(tmp_path / "pwd.pgm")
    write_pgm(path, rng.integers(0, 256, size=(height, width),
                                 dtype=np.uint8))
    tracemalloc.start()
    try:
        image_path(read_pgm(path), height // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * height * width


@pytest.mark.parametrize("n_pixels", [
    16, COUNT_SLICE, 2 * COUNT_SLICE, 2 * COUNT_SLICE + 78],
    ids=lambda n: f"uint8-{n}")
def test_gray_image_counts_equal_bincount(n_pixels):
    # less than one slice, whole slices, and a partial last slice
    rng = np.random.default_rng(n_pixels)
    px = rng.integers(0, 256, size=(2, n_pixels // 2)).astype(np.uint8)
    px[0, 0], px[-1, -1] = 0, 255     # some counts land in the end slices
    counts = pixel_counts(px)
    assert counts.dtype == np.intp
    assert np.array_equal(counts, np.bincount(px.ravel(), minlength=256))


@pytest.mark.parametrize("make", [
    lambda rng: rng.integers(0, 256, size=(7, 2 * COUNT_SLICE // 7 + 3),
                             dtype=np.uint8),                # odd count
    lambda rng: rng.integers(0, 256, size=(9, 4000),
                             dtype=np.uint8)[1::2, 3:-2],     # strided
    lambda rng: rng.integers(0, 256, size=(300, 41),
                             dtype=np.uint8).T,               # transposed
    lambda rng: np.tile(np.uint8(200) * (np.arange(1201) % 3 == 1),
                        (200, 1)),                            # two values
], ids=["odd-count", "strided", "transposed", "two-valued"])
def test_pixel_counts_equal_bincount_on_any_layout(make):
    px = make(np.random.default_rng(3))
    assert np.array_equal(pixel_counts(px),
                          np.bincount(px.ravel(), minlength=256))


@pytest.mark.parametrize("header", ["P5\n7 5\n255\n", "P5\n7  5\n255\n"],
                         ids=["odd-header", "even-header"])
def test_pixel_counts_equal_bincount_on_a_pgm_view(header, tmp_path):
    # an odd-length header leaves the pixel view at an odd address
    px = np.random.default_rng(4).integers(0, 256, size=(5, 7),
                                           dtype=np.uint8)
    path = tmp_path / "odd.pgm"
    path.write_bytes(header.encode() + px.tobytes())
    view = read_pgm(str(path))
    assert view.ctypes.data % 2 == len(header) % 2
    assert np.array_equal(view, px)
    assert np.array_equal(pixel_counts(view),
                          np.bincount(px.ravel(), minlength=256))


@pytest.mark.parametrize("height", [300, 40000])
def test_extract_envelopes_distances_beyond_narrow_integers(height):
    # distances above 255 and 32767: a too-narrow dtype would wrap them
    px = np.zeros((height, 5), dtype=np.uint8)
    px[0, 0] = px[-1, 1] = 255         # the farthest rows on either side
    px[[0, -1], 2] = 255
    px[height // 3, 3] = 255
    bright = px >= 128
    for baseline_row in (1, height // 2, height - 2):
        env = extract_envelopes(px, BYTE_LEVELS, 128.0, baseline_row)
        upper, lower = envelopes_by_column(bright, baseline_row)
        assert env[0].tobytes() == upper.tobytes()
        assert env[1].tobytes() == lower.tobytes()


def test_extract_envelopes_synthetic_columns():
    # column 0: bright rows 2..4 above baseline 5 and row 8 below
    px = np.zeros((10, 4), dtype=np.uint8)
    px[2:5, 0] = 255
    px[8, 0] = 255
    px[5, 1] = 255     # only the baseline row itself: ignored
    px[0, 2] = 255     # farthest row above
    env = extract_envelopes(px, BYTE_LEVELS, threshold=128.0, baseline_row=5)
    assert env.dtype == np.float64
    assert env.tolist() == [[3.0, 0.0, 5.0, 0.0], [-3.0, 0.0, 0.0, 0.0]]
    for row in (0, 9, 12):    # on the edge rows or outside the 10 rows
        with pytest.raises(ValueError, match=f"10-row image, got {row}$"):
            extract_envelopes(px, BYTE_LEVELS, 128.0, baseline_row=row)


@pytest.mark.parametrize("density", [0.02, 0.2, 0.6])
def test_extract_envelopes_equals_column_loop(density):
    rng = np.random.default_rng(int(density * 100))
    height, width = 24, 300
    px = np.uint8(255) * (rng.random((height, width)) < density)
    px[0, ::7] = 255                   # bright pixels on the image edges
    px[-1, ::5] = 255
    px[:, ::11] = 0                    # empty columns
    bright = px >= 128.0
    for baseline_row in (1, height // 2, height - 2):
        env = extract_envelopes(px, BYTE_LEVELS, 128.0, baseline_row)
        upper, lower = envelopes_by_column(bright, baseline_row)
        assert env[0].tobytes() == upper.tobytes()
        assert env[1].tobytes() == lower.tobytes()


def test_extract_envelopes_nonnegative_upper_nonpositive_lower():
    rng = np.random.default_rng(1)
    px = np.uint8(255) * (rng.random((30, 50)) > 0.8)
    upper, lower = extract_envelopes(px, BYTE_LEVELS, 128.0, 15)
    assert np.all(upper >= 0)
    assert np.all(lower <= 0)


def test_preprocess_envelopes_preserves_shape():
    fs_img = 100.0
    t = np.arange(800) / fs_img
    u = 30.0 + 20.0 * np.sin(2 * np.pi * 2.3 * t)
    l = -25.0 - 10.0 * np.sin(2 * np.pi * 2.3 * t + 0.4)
    out = preprocess_envelopes(np.array([u, l]), fs_img)
    assert out.shape == (2, int(round(800 / fs_img * TARGET_FS)))
    assert abs(np.mean(out[0])) < 1e-9
    assert abs(np.mean(out[1])) < 1e-9
    # in-band sinusoid survives: compare against the centered resampled truth
    truth = np.interp(np.arange(out.shape[1]) / TARGET_FS, t, u)
    truth -= truth.mean()
    r = np.corrcoef(out[0], truth)[0, 1]
    assert r >= 0.99


def test_preprocess_envelopes_constant_input():
    raw = np.array([np.full(500, 12.0), np.zeros(500)])
    out = preprocess_envelopes(raw, 100.0)
    assert out.shape == (2, int(round(500 / 100.0 * TARGET_FS)))
    assert np.all(out[0] == 0.0)  # exact zeros, not merely small
    assert np.all(out[1] == 0.0)


def test_pca_compress_envelopes_collinear_case():
    # oracle: with lower = -upper the principal axis is (1,-1)/sqrt(2), so
    # the projection equals sqrt(2) * centered upper
    u = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    out = pca_compress_envelopes(np.array([u, -u]))
    expected = np.sqrt(2.0) * (u - u.mean())
    assert np.allclose(out, expected)
    with pytest.raises(DegenerateInput):
        pca_compress_envelopes(np.array([np.full(5, 2.0), np.full(5, -3.0)]))
