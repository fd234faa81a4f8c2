import json
import re

import numpy as np
import pytest

from pwdrecon.core import (
    RecordManifest,
    WaveConfig,
    from_json_dict,
    to_json_dict,
    write_json,
)
from pwdrecon.errors import BadMagic, FileMissing, SizeMismatch
from pwdrecon.harness.io import (
    load_manifests,
    load_preprocessed,
    load_record,
    read_pgm,
    read_raw_f32,
    save_preprocessed,
    write_pgm,
    write_raw_f32,
)
from pwdrecon.pwd_envelope import GrayImage


def test_raw_f32_roundtrip(tmp_path):
    path = str(tmp_path / "x.f32")
    x = np.array([0.0, -1.5, 3.25, 1e-7, 2e9])
    write_raw_f32(path, x)
    back = read_raw_f32(path)
    assert back.dtype == np.float64
    # float32 quantization is the only loss
    assert np.array_equal(back, x.astype(np.float32).astype(np.float64))


def test_raw_f32_little_endian_layout(tmp_path):
    path = str(tmp_path / "one.f32")
    write_raw_f32(path, np.array([1.0]))
    with open(path, "rb") as fh:
        assert fh.read() == b"\x00\x00\x80\x3f"  # IEEE-754 LE 1.0f


def test_raw_f32_errors(tmp_path):
    with pytest.raises(FileMissing):
        read_raw_f32(str(tmp_path / "absent.f32"))
    bad = tmp_path / "bad.f32"
    bad.write_bytes(b"\x00\x00\x00")  # 3 bytes
    with pytest.raises(SizeMismatch):
        read_raw_f32(str(bad))


def test_pgm_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(13, 17)).astype(np.float64)
    path = str(tmp_path / "img.pgm")
    write_pgm(path, GrayImage(px))
    back = read_pgm(path)
    assert np.array_equal(back.pixels, px)


def test_pgm_reads_comments_and_rejects_bad(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + bytes(6))
    img = read_pgm(str(path))
    assert img.pixels.shape == (2, 3)
    assert np.all(img.pixels == 0.0)

    (tmp_path / "p2.pgm").write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
    with pytest.raises(BadMagic):
        read_pgm(str(tmp_path / "p2.pgm"))

    (tmp_path / "short.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(4))
    with pytest.raises(SizeMismatch):
        read_pgm(str(tmp_path / "short.pgm"))


def _manifest(rid="rec000"):
    return RecordManifest(
        record_id=rid, channel_paths=(f"{rid}.ch0.f32", f"{rid}.ch1.f32",
                                      f"{rid}.ch2.f32"),
        image_path=f"{rid}.pwd.pgm", aecg_fs=512.0,
        bipolar_channel_indices=(0, 1, 2), wave_config=WaveConfig.EA_PLUS,
        image_baseline_row=10, image_columns_per_second=100.0,
        aux={"n_samples": 64})


def test_manifest_dict_roundtrip():
    m = _manifest()
    d = to_json_dict(m)
    assert d["wave_config"] == "EA+"
    assert d["channel_paths"] == list(m.channel_paths)
    assert from_json_dict(RecordManifest, d) == m


def test_manifest_file_roundtrip(tmp_path):
    path = str(tmp_path / "records.json")
    ms = [_manifest("a"), _manifest("b")]
    write_json(path, ms)
    assert load_manifests(path) == ms
    with pytest.raises(FileMissing):
        load_manifests(str(tmp_path / "nope.json"))


def test_load_record_checks_sizes(tmp_path):
    m = _manifest()
    rng = np.random.default_rng(1)
    for p in m.channel_paths:
        write_raw_f32(str(tmp_path / p), rng.normal(size=64))
    write_pgm(str(tmp_path / m.image_path),
              GrayImage(rng.integers(0, 256, size=(20, 30)).astype(float)))
    rec, img = load_record(m, str(tmp_path))
    assert rec.n_channels == 3 and len(rec.channels[0]) == 64
    assert img.pixels.shape == (20, 30)

    # wrong-length channel file is rejected
    write_raw_f32(str(tmp_path / m.channel_paths[0]), rng.normal(size=63))
    with pytest.raises(SizeMismatch):
        load_record(m, str(tmp_path))


def test_load_preprocessed_checks_every_stream(small_dataset, tmp_path):
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    assert len(load_preprocessed(prep)) == len(records)
    rid = records[0].record_id
    for name in ("upper", "lower"):
        path = str(tmp_path / "prep" / f"{rid}.{name}.f32")
        write_raw_f32(path, read_raw_f32(path)[:-300])
    with pytest.raises(SizeMismatch, match=f"^{rid}: upper stream"):
        load_preprocessed(prep)


@pytest.mark.parametrize("edit, message", [
    ({"polarity": None}, "missing field 'polarity'"),  # None drops the key
    ({"polarty": "+ve"}, "unknown field 'polarty'"),
    ({"polarity": "+"}, ".polarity: '+' is not a valid Polarity"),
    ({"fs": "284"}, ".fs: expected float, got '284'"),
], ids=["missing-key", "unknown-key", "enum-value", "string-number"])
def test_load_preprocessed_names_the_file_and_field(tmp_path, edit, message):
    entry = {"record_id": "r", "fs": 284.0, "n_samples": 8,
             "wave_config": "EA+", "polarity": "+ve"}
    for name in ("fecg", "upper", "lower"):
        write_raw_f32(str(tmp_path / f"r.{name}.f32"), np.zeros(8))
    index = tmp_path / "preprocessed.json"
    index.write_text(json.dumps([entry]))
    assert load_preprocessed(str(tmp_path))[0].polarity.value == "+ve"
    entry.update(edit)
    index.write_text(json.dumps([{k: v for k, v in entry.items()
                                  if v is not None}]))
    with pytest.raises(ValueError, match=re.escape(f"{index}: ") + ".*"
                       + re.escape(message)):
        load_preprocessed(str(tmp_path))
