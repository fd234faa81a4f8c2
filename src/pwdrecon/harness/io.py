"""File formats: raw little-endian float32 channels, binary PGM images,
JSON manifests and preprocessed indexes, and model.npz.

The raw layout keeps the toolkit free of any archive-format dependency;
converting a real dataset into it is a one-shot external step.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import dataclass

import numpy as np

from ..baselines import LinearMap
from ..core import ModelKind, Polarity, PreprocessedRecord, RecordManifest
from ..core import TARGET_FS, WaveConfig, check_record_id, from_json_dict
from ..core import read_json, to_json_dict, write_json
from ..errors import BadMagic, FileMissing, ShapeMismatch, SizeMismatch
from ..net.model import init_params
from .experiment import ExperimentConfig


def write_raw_f32(path: str, samples: np.ndarray) -> None:
    """Write samples as raw little-endian float32."""
    np.asarray(samples, dtype="<f4").tofile(path)


def _f32_count(path: str) -> int:
    """The number of float32 values in a raw file, refused when missing,
    empty or not a whole number of them."""
    if not os.path.exists(path):
        raise FileMissing(path)
    size = os.path.getsize(path)
    if size == 0 or size % 4 != 0:
        raise SizeMismatch(f"{path}: {size} bytes is not a float32 multiple")
    return size // 4


def read_raw_f32(path: str) -> np.ndarray:
    """Read a raw little-endian float32 file; returns float64 values."""
    _f32_count(path)
    return np.fromfile(path, dtype="<f4").astype(np.float64)


def write_pgm(path: str, px: np.ndarray) -> None:
    """Write a (height, width) uint8 image as a binary (P5) 8-bit PGM."""
    if px.dtype != np.uint8:
        raise ValueError(f"{path}: a PGM image must be uint8, got {px.dtype}")
    height, width = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(px.tobytes())


# magic, width, height and maxval, separated by whitespace or comment
# lines, then the single whitespace byte before the pixels
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP
                         + rb"(\d+)\s")


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM, bit-exact: its bytes are the pixels,
    a read-only (height, width) uint8 view of the file's contents."""
    if not os.path.exists(path):
        raise FileMissing(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise BadMagic(f"{path}: only binary P5 PGM supported")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise BadMagic(f"{path}: malformed PGM header: expected P5, then "
                       "width, height and maxval as unsigned integers")
    width, height, maxval = (int(t) for t in header.groups())
    if maxval != 255:
        raise BadMagic(f"{path}: only maxval 255 supported")
    pos = header.end()
    pixels = memoryview(blob)[pos:pos + width * height]  # no copy
    if len(pixels) != width * height:
        raise SizeMismatch(f"{path}: expected {width * height} pixel bytes, "
                           f"got {len(pixels)}")
    if height < 2 or width < 2:
        raise BadMagic(f"{path}: image must be at least 2x2")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def _unique_ids(path: str, entries: tuple) -> list:
    """The entries read from `path`, refused when two share a record_id,
    which names the record's files."""
    seen = set()
    for e in entries:
        if e.record_id in seen:
            raise ValueError(f"{path}: record_id {e.record_id!r} appears "
                             "more than once")
        seen.add(e.record_id)
    return list(entries)


def load_manifests(path: str) -> list[RecordManifest]:
    if not os.path.exists(path):
        raise FileMissing(path)
    return _unique_ids(path, read_json(path, tuple[RecordManifest, ...]))


def load_record(manifest: RecordManifest,
                base_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The manifest's three bipolar channels, in bipolar_channel_indices
    order, as (3, n_samples) float64 rows, and its PwD image as read_pgm
    returns it. Each channel is read into its row, with no other float64
    copy."""
    paths, sizes = [], []
    expected = manifest.aux.get("n_samples")
    for i in manifest.bipolar_channel_indices:
        rel = manifest.channel_paths[i]
        paths.append(os.path.join(base_dir, rel))
        sizes.append(_f32_count(paths[-1]))
        if expected is not None and sizes[-1] != expected:
            raise SizeMismatch(
                f"{rel}: {sizes[-1]} samples, manifest says {expected}")
    if len(set(sizes)) != 1:
        raise SizeMismatch("channel files disagree on length")
    img = read_pgm(os.path.join(base_dir, manifest.image_path))
    rows = np.empty((len(paths), sizes[0]))
    for row, path in zip(rows, paths):
        row[:] = np.fromfile(path, dtype="<f4")
    return rows, img


@dataclass(frozen=True)
class PreprocessedIndexEntry:
    """One record's entry in preprocessed.json."""

    record_id: str
    fs: float
    n_samples: int
    wave_config: WaveConfig
    polarity: Polarity

    def __post_init__(self):
        check_record_id("PreprocessedIndexEntry", self.record_id)
        if self.fs != TARGET_FS:
            raise ValueError(f"PreprocessedIndexEntry.fs: must be "
                             f"{TARGET_FS}, got {self.fs!r}")


_STREAMS = ("fecg", "upper", "lower")  # a record's .f32 files, in row order


def save_preprocessed(out_dir: str, records: list[PreprocessedRecord]) -> None:
    """Persist preprocessed records: f32 streams plus an index JSON."""
    os.makedirs(out_dir, exist_ok=True)
    index = []
    for rec in records:
        for name, samples in zip(_STREAMS, (rec.fecg, *rec.env)):
            write_raw_f32(os.path.join(out_dir, f"{rec.record_id}.{name}.f32"),
                          samples)
        index.append(PreprocessedIndexEntry(
            record_id=rec.record_id, fs=TARGET_FS, n_samples=rec.fecg.size,
            wave_config=rec.wave_config, polarity=rec.polarity))
    write_json(os.path.join(out_dir, "preprocessed.json"), index)


def load_preprocessed(data_dir: str) -> list[PreprocessedRecord]:
    """Inverse of save_preprocessed."""
    path = os.path.join(data_dir, "preprocessed.json")
    if not os.path.exists(path):
        raise FileMissing(path)
    records = []
    for e in _unique_ids(path, read_json(
            path, tuple[PreprocessedIndexEntry, ...])):
        rid, n = e.record_id, e.n_samples
        streams = []
        for name in _STREAMS:
            stream = os.path.join(data_dir, f"{rid}.{name}.f32")
            samples = read_raw_f32(stream)
            if samples.size != n:
                raise SizeMismatch(f"{rid}: {name} stream {stream} has "
                                   f"{samples.size} samples, expected {n}")
            streams.append(samples)
        records.append(PreprocessedRecord(
            record_id=rid, fecg=streams[0], env=np.array(streams[1:]),
            wave_config=e.wave_config, polarity=e.polarity))
    return records


MODEL_VERSION = 3  # model.npz's layout, for every model kind


def _model_shapes(config: ExperimentConfig) -> dict[str, tuple]:
    """Every array a model.npz of this config holds, by name, in file order,
    with its shape."""
    if config.model is ModelKind.PWDRECNET:
        return {name: a.shape for name, a in init_params(
            config.net_channels, config.kernel_size, config.out_channels,
            0).items()}
    L = int(round(config.window_s * TARGET_FS))
    m = config.out_channels * L
    return {"weight": (m, L), "bias": (m,), "converged": (), "n_iter": (),
            "gap": ()}


def save_model(config: ExperimentConfig, model, path: str) -> None:
    """Write the model `config` fitted (the network's parameters or a
    baseline's LinearMap) as model.npz: `__version__`, `__config__` (the
    config as sorted-key JSON bytes), then the network's parameters or a
    baseline's arrays. The round trip through load_model is bit-exact."""
    cfg = json.dumps(to_json_dict(config), sort_keys=True).encode()
    if config.model is ModelKind.PWDRECNET:
        arrays = model
    else:
        arrays = {"weight": model.weight, "bias": model.bias,
                  "converged": np.array(model.converged),
                  "n_iter": np.array(model.n_iter),
                  "gap": np.array(model.gap)}
    np.savez(path, __version__=np.array(MODEL_VERSION),
             __config__=np.frombuffer(cfg, dtype=np.uint8), **arrays)


def load_model(path: str) -> tuple[ExperimentConfig, object]:
    """Read what save_model wrote: (the config, the network's parameters
    or a baseline's LinearMap).

    Checks, in this order, each fault naming `path`: the file exists
    (FileMissing); it is an .npz archive whose members' bytes match
    their CRC-32, its version is MODEL_VERSION and its `__config__`
    decodes to an ExperimentConfig (ValueError); every array that config
    implies is present with its shape (ShapeMismatch).
    """
    if not os.path.exists(path):
        raise FileMissing(path)
    if not zipfile.is_zipfile(path):
        raise ValueError(f"{path}: not an .npz archive")
    try:
        with np.load(path) as z:
            version = (z["__version__"].tolist() if "__version__" in z
                       else "missing")
            if version != MODEL_VERSION:
                raise ValueError(f"model file version {version}, "
                                 f"expected {MODEL_VERSION}")
            if "__config__" not in z:
                raise ValueError("no __config__ array")
            config = from_json_dict(ExperimentConfig,
                                    json.loads(z["__config__"].tobytes()))
            shapes = _model_shapes(config)
            arrays = {name: z[name] for name in shapes if name in z}
    except (zipfile.BadZipFile, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for name, shape in shapes.items():
        found = arrays[name].shape if name in arrays else "missing"
        if found != shape:
            raise ShapeMismatch(f"{path}: array {name} is {found}, "
                                f"expected {shape}")
    if config.model is ModelKind.PWDRECNET:
        return config, arrays
    return config, LinearMap(
        weight=arrays["weight"], bias=arrays["bias"],
        converged=bool(arrays["converged"]), n_iter=int(arrays["n_iter"]),
        gap=float(arrays["gap"]))
