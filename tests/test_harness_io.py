import dataclasses
import json
import os
import re
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from pwdrecon import baselines
from pwdrecon.baselines import LinearMap, lasso_fit, ridge_fit
from pwdrecon.core import (
    EnvelopeSelection,
    ModelKind,
    RecordManifest,
    WaveConfig,
    from_json_dict,
    to_json_dict,
    write_json,
)
from pwdrecon.dsp import WINDOW_SECONDS
from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.harness.io import (
    MODEL_VERSION,
    load_manifests,
    load_model,
    load_preprocessed,
    load_record,
    read_pgm,
    read_f32_rows,
    save_model,
    save_preprocessed,
    write_pgm,
    write_raw_f32,
)
from pwdrecon.net.model import init_params, predict


def test_raw_f32_roundtrip(tmp_path):
    path = str(tmp_path / "x.f32")
    x = np.array([0.0, -1.5, 3.25, 1e-7, 2e9])
    write_raw_f32(path, x)
    (back,) = read_f32_rows([path], None, "")
    assert back.dtype == np.float64
    # float32 quantization is the only loss
    assert np.array_equal(back, x.astype(np.float32).astype(np.float64))


def test_raw_f32_little_endian_layout(tmp_path):
    path = str(tmp_path / "one.f32")
    write_raw_f32(path, np.array([1.0]))
    with open(path, "rb") as fh:
        assert fh.read() == b"\x00\x00\x80\x3f"  # IEEE-754 LE 1.0f


def test_raw_f32_errors(tmp_path):
    absent = str(tmp_path / "absent.f32")
    with pytest.raises(FileNotFoundError) as exc:
        read_f32_rows([absent], None, "")
    assert exc.value.filename == absent
    with pytest.raises(IsADirectoryError) as exc:
        read_f32_rows([str(tmp_path)], None, "")
    assert exc.value.filename == str(tmp_path)
    for size in (0, 3):
        bad = tmp_path / "bad.f32"
        bad.write_bytes(bytes(size))
        with pytest.raises(ValueError) as exc:
            read_f32_rows([str(bad)], None, "")
        assert str(exc.value) == (f"{bad}: {size} bytes is not a float32 "
                                  "multiple")
    # a file both short and holding a NaN is refused for its length
    write_raw_f32(str(bad), np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError) as exc:
        read_f32_rows([str(bad)], 4, "index.json")
    assert str(exc.value) == f"{bad}: 3 samples, index.json says 4"


def test_pgm_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
    path = str(tmp_path / "img.pgm")
    write_pgm(path, px)
    back = read_pgm(path)
    assert np.array_equal(back, px)


def test_read_pgm_keeps_the_file_bytes(tmp_path):
    px = np.random.default_rng(3).integers(0, 256, size=(13, 17),
                                           dtype=np.uint8)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n17 13\n255\n" + px.tobytes())
    img = read_pgm(str(path))
    assert img.dtype == np.uint8 and img.shape == (13, 17)
    assert not img.flags.writeable
    assert img.tobytes() == px.tobytes()


def test_pgm_reads_comments_and_rejects_bad(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + bytes(6))
    img = read_pgm(str(path))
    assert img.shape == (2, 3)
    assert np.all(img == 0)

    p2 = tmp_path / "p2.pgm"
    p2.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{p2}: only binary P5 PGM supported")):
        read_pgm(str(p2))

    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n3 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match=re.escape(
            f"{short}: expected 6 pixel bytes, got 4")):
        read_pgm(str(short))

    with pytest.raises(FileNotFoundError) as exc:
        read_pgm(str(tmp_path / "absent.pgm"))
    assert exc.value.filename == str(tmp_path / "absent.pgm")


@pytest.mark.parametrize("blob, fault", [
    (b"P5\n", "malformed PGM header"),
    (b"P5\nab 2\n255\n" + bytes(4), "malformed PGM header"),
    (b"P5\n-2 2\n255\n" + bytes(4), "malformed PGM header"),
    (b"P5\n1 1\n255\n" + bytes(1), "image must be at least 2x2"),
    (b"P5\n2 2\n65535\n" + bytes(8), "only maxval 255 supported"),
], ids=["truncated", "non-numeric", "negative", "too-small", "16-bit"])
def test_read_pgm_header_faults_name_the_file(blob, fault, tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as exc:
        read_pgm(str(path))
    assert str(exc.value).startswith(f"{path}: {fault}")


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
    with pytest.raises(FileNotFoundError) as exc:
        load_manifests(str(tmp_path / "nope.json"))
    assert exc.value.filename == str(tmp_path / "nope.json")


def test_load_record_checks_sizes(tmp_path):
    # four channel files, of which the bipolar three are read in their order
    m = dataclasses.replace(
        _manifest(), channel_paths=tuple(f"ch{i}.f32" for i in range(4)),
        bipolar_channel_indices=(2, 0, 3))
    rng = np.random.default_rng(1)
    chans = rng.normal(size=(4, 64)).astype(np.float32)
    for p, ch in zip(m.channel_paths, chans):
        if p != "ch1.f32":  # not bipolar, so never opened
            write_raw_f32(str(tmp_path / p), ch)
    write_pgm(str(tmp_path / m.image_path),
              rng.integers(0, 256, size=(20, 30), dtype=np.uint8))
    rows, img = load_record(m, str(tmp_path))
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert np.array_equal(rows, chans[[2, 0, 3]])
    assert img.shape == (20, 30)

    # wrong-length channel file is rejected, against the manifest and,
    # without its n_samples, against the first channel read
    ch0, ch2 = str(tmp_path / "ch0.f32"), str(tmp_path / "ch2.f32")
    write_raw_f32(ch0, chans[0, :63])
    with pytest.raises(ValueError) as exc:
        load_record(m, str(tmp_path))
    assert str(exc.value) == f"{ch0}: 63 samples, manifest says 64"
    with pytest.raises(ValueError) as exc:
        load_record(dataclasses.replace(m, aux={}), str(tmp_path))
    assert str(exc.value) == f"{ch0}: 63 samples, {ch2} has 64"


@pytest.mark.parametrize("name, bad, read", [
    ("rec000.ch1.f32", np.nan, lambda m, base: load_record(m, base)),
    ("r.fecg.f32", np.inf, lambda m, base: load_preprocessed(base)),
    ("r.upper.f32", -np.inf, lambda m, base: load_preprocessed(base)),
], ids=["raw-channel", "fecg-stream", "envelope-stream"])
def test_readers_refuse_a_non_finite_sample(name, bad, read, tmp_path):
    # one 64-sample raw record and one preprocessed record, both finite
    m = _manifest()
    rng = np.random.default_rng(2)
    for p in (*m.channel_paths, "r.fecg.f32", "r.upper.f32", "r.lower.f32"):
        write_raw_f32(str(tmp_path / p), rng.normal(size=64))
    write_pgm(str(tmp_path / m.image_path), np.zeros((20, 30), np.uint8))
    (tmp_path / "preprocessed.json").write_text(json.dumps([
        {"record_id": "r", "fs": 284.0, "n_samples": 64, "wave_config": "EA+",
         "polarity": "+ve"}]))
    path = str(tmp_path / name)
    (samples,) = read_f32_rows([path], None, "")
    samples[17] = bad
    write_raw_f32(path, samples)
    with pytest.raises(ValueError) as exc:
        read(m, str(tmp_path))
    assert str(exc.value) == f"{path}: 1 of 64 samples are NaN or infinite"


def test_load_record_reads_each_channel_into_its_row(tmp_path):
    # the (3, n) float64 rows and one float32 channel at a time: no float64
    # copy of a channel beside its row
    n = 100_000
    m = dataclasses.replace(_manifest(), aux={"n_samples": n})
    for p in m.channel_paths:
        write_raw_f32(str(tmp_path / p), np.ones(n))
    write_pgm(str(tmp_path / m.image_path), np.zeros((20, 30), np.uint8))
    tracemalloc.start()
    try:
        rows, _ = load_record(m, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (3, n)
    assert peak <= (3 * 8 + 4) * n + 65536


def test_load_preprocessed_checks_every_stream(small_dataset, tmp_path):
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    assert len(load_preprocessed(prep)) == len(records)
    rid = records[0].record_id
    for name in ("upper", "lower"):
        path = str(tmp_path / "prep" / f"{rid}.{name}.f32")
        write_raw_f32(path, read_f32_rows([path], None, "")[0][:-300])
    upper = os.path.join(prep, f"{rid}.upper.f32")
    n = records[0].fecg.size
    with pytest.raises(ValueError) as exc:
        load_preprocessed(prep)
    assert str(exc.value) == (f"{upper}: {n - 300} samples, "
                              f"{os.path.join(prep, 'preprocessed.json')} "
                              f"says {n}")


@pytest.mark.parametrize("edit, message", [
    ({"polarity": None}, "missing field 'polarity'"),  # None drops the key
    ({"polarty": "+ve"}, "unknown field 'polarty'"),
    ({"polarity": "+"}, ".polarity: '+' is not a valid Polarity"),
    ({"fs": "284"}, ".fs: expected float, got '284'"),
    ({"fs": 100}, ".fs: must be 284.0, got 100.0"),
], ids=["missing-key", "unknown-key", "enum-value", "string-number",
        "other-rate"])
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


# one config per model family; 0.25 s windows are 71 samples
CONFIGS = {
    "PwDRecNet": ExperimentConfig(window_s=0.25, net_channels=(4, 8, 16),
                                  kernel_size=5),
    "Ridge": ExperimentConfig(window_s=0.25, model=ModelKind.RIDGE),
    "Lasso": ExperimentConfig(window_s=0.25, model=ModelKind.LASSO,
                              envelope_selection=EnvelopeSelection.UPPER),
}


def _fitted(config):
    """A model of the shapes `config` implies, with distinctive values; the
    lasso stops after 2 steps, unconverged."""
    rng = np.random.default_rng(9)
    if config.model is ModelKind.PWDRECNET:
        params = init_params(config.net_channels, config.kernel_size,
                             config.out_channels, seed=9)
        for a in params.values():
            a += rng.normal(size=a.shape) * 0.01
        return params
    X = rng.normal(size=(30, 71))
    Y = rng.normal(size=(30, 71 * config.out_channels))
    if config.model is ModelKind.RIDGE:
        return ridge_fit(X, Y, 1.0)
    with pytest.MonkeyPatch.context() as mp, \
            pytest.warns(RuntimeWarning, match="lasso did not converge"):
        mp.setattr(baselines, "LASSO_MAX_ITER", 2)
        mp.setattr(baselines, "LASSO_TOL", 1e-14)
        return lasso_fit(X, Y, 1e-3)


def _config_bytes(config):
    return json.dumps(to_json_dict(config), sort_keys=True).encode()


@pytest.mark.parametrize("kind", list(CONFIGS))
def test_model_file_roundtrip_bit_exact(kind, tmp_path):
    config = CONFIGS[kind]
    model = _fitted(config)
    path = str(tmp_path / "model.npz")
    save_model(config, model, path)
    loaded_config, loaded = load_model(path)
    assert loaded_config == config
    with np.load(path) as z:
        names = z.files
        assert z["__config__"].tobytes() == _config_bytes(config)
    if config.model is ModelKind.PWDRECNET:
        assert names == ["__version__", "__config__", *model]
        assert list(loaded) == list(model)
        for name, a in model.items():
            assert np.array_equal(a, loaded[name]), name
        x = np.random.default_rng(1).normal(size=(2, 71))
        assert np.array_equal(predict(model, x), predict(loaded, x))
        return
    assert names == ["__version__", "__config__", "weight", "bias",
                     "converged", "n_iter", "gap"]
    for f in dataclasses.fields(LinearMap):
        assert np.array_equal(getattr(loaded, f.name),
                              getattr(model, f.name)), f.name
    assert type(loaded.converged) is bool
    assert type(loaded.n_iter) is int
    assert type(loaded.gap) is float
    if config.model is ModelKind.LASSO:
        assert (loaded.converged, loaded.n_iter) == (False, 2)
        assert loaded.gap == model.gap > 1e-14


def _resave(change):
    """An edit of a model file: `change` applied to its arrays, re-saved."""
    def edit(path):
        with np.load(path) as z:
            arrays = dict(z)
        change(arrays)
        np.savez(path, **arrays)
    return edit


def _set(name, value):
    return _resave(lambda arrays: arrays.update({name: value}))


def _drop(name):
    return _resave(lambda arrays: arrays.pop(name))


def _config(config):
    """An edit that stores another config's JSON as the file's config."""
    return _set("__config__", np.frombuffer(_config_bytes(config),
                                            dtype=np.uint8))


def _flip_config_byte(arrays):
    """0.25 s windows become 0.24 s: the JSON ends `"window_s": 0.25}`."""
    arrays["__config__"] = arrays["__config__"].copy()
    arrays["__config__"][-2] ^= 1


def _write_npy(path):
    with open(path, "wb") as fh:  # one .npy array under the .npz name
        np.save(fh, np.zeros(3))


def _flip_member_byte(member):
    """An edit of the file's bytes in place: the last data byte of the
    archive member `member` flips, and its stored CRC-32 stays."""
    def edit(path):
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(member)
        with open(path, "r+b") as fh:
            fh.seek(info.header_offset + 26)  # the local header's lengths
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            fh.seek(info.header_offset + 30 + name_len + extra_len
                    + info.compress_size - 1)
            last = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([last ^ 1]))
    return edit


NET, RIDGE, LASSO = CONFIGS.values()
VERSION = f"model file version {{}}, expected {MODEL_VERSION}"
WINDOW = (f"ExperimentConfig.window_s: must be one of {WINDOW_SECONDS}, "
          f"got 0.24")
FIRST_ARRAY = {"PwDRecNet": "enc0.conv0.w", "Ridge": "weight",
               "Lasso": "weight"}
FAULTS = [
    # (kind, fault, edit of the saved file, error, message)
    *((kind, "missing-file", os.remove, FileNotFoundError, "")
      for kind in CONFIGS),
    *((kind, "not-an-archive", _write_npy, ValueError, "not an .npz archive")
      for kind in CONFIGS),
    *((kind, "corrupt-member", _flip_member_byte(f"{FIRST_ARRAY[kind]}.npy"),
       ValueError, f"Bad CRC-32 for file '{FIRST_ARRAY[kind]}.npy'")
      for kind in CONFIGS),
    *((kind, "no-version", _drop("__version__"), ValueError,
       VERSION.format("missing")) for kind in CONFIGS),
    *((kind, "other-version", _set("__version__", np.array(2)), ValueError,
       VERSION.format(2)) for kind in CONFIGS),
    *((kind, "no-config", _drop("__config__"), ValueError,
       "no __config__ array") for kind in CONFIGS),
    *((kind, "bad-config", _resave(_flip_config_byte), ValueError, WINDOW)
      for kind in CONFIGS),
    ("PwDRecNet", "missing-array", _drop("head.b"), ValueError,
     "array head.b is missing, expected (2,)"),
    ("Ridge", "missing-array", _drop("weight"), ValueError,
     "array weight is missing, expected (142, 71)"),
    ("Lasso", "missing-array", _drop("n_iter"), ValueError,
     "array n_iter is missing, expected ()"),
    ("PwDRecNet", "misshaped-array", _set("enc0.conv0.w", np.ones((1, 1, 5))),
     ValueError, "array enc0.conv0.w is (1, 1, 5), expected (4, 1, 5)"),
    ("Ridge", "misshaped-array", _set("bias", np.zeros(1)), ValueError,
     "array bias is (1,), expected (142,)"),
    ("Lasso", "misshaped-array", _set("weight", np.zeros(71)), ValueError,
     "array weight is (71,), expected (71, 71)"),
    # a config that does not describe the arrays stored beside it
    ("PwDRecNet", "other-family", _config(RIDGE), ValueError,
     "array weight is missing, expected (142, 71)"),
    ("Ridge", "other-family", _config(NET), ValueError,
     "array enc0.conv0.w is missing, expected (4, 1, 5)"),
    ("Lasso", "other-family", _config(NET), ValueError,
     "array enc0.conv0.w is missing, expected (4, 1, 5)"),
    ("Lasso", "other-channels", _config(RIDGE), ValueError,
     "array weight is (71, 71), expected (142, 71)"),
]


@pytest.mark.parametrize("kind, fault, edit, error, message", FAULTS,
                         ids=[f"{k}-{f}" for k, f, *_ in FAULTS])
def test_model_file_faults_name_the_file(kind, fault, edit, error, message,
                                         tmp_path):
    path = str(tmp_path / "model.npz")
    save_model(CONFIGS[kind], _fitted(CONFIGS[kind]), path)
    edit(path)
    with pytest.raises(error) as exc:
        load_model(path)
    if message:
        assert str(exc.value) == f"{path}: {message}"
    else:  # the OSError of opening it
        assert exc.value.filename == path
