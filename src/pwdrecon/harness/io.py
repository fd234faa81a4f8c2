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
from ..core import ENVELOPES, TARGET_FS, WaveConfig, names_a_file, refuse
from ..core import from_json_dict, read_json, to_json_dict, write_json
from ..dsp import window_length
from ..net.model import init_params
from .experiment import ExperimentConfig


def write_raw_f32(path: str, samples: np.ndarray) -> None:
    """Write samples as raw little-endian float32."""
    np.asarray(samples, dtype="<f4").tofile(path)


def read_f32_rows(paths: list[str], n: int | None, says: str) -> np.ndarray:
    """The raw little-endian float32 files at `paths`, each read into its
    row of one (len(paths), m) float64 array through one open handle, with
    no other float64 copy. A file is refused, in this order, with a
    ValueError whose message starts with its path: when it is empty or
    not a whole number of float32 values, when its length differs from
    `n` (the length that `says` states; None states none) or from the
    first file's, and when a sample is NaN or infinite."""
    rows = None
    for k, path in enumerate(paths):
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == 0 or size % 4 != 0:
                raise ValueError(f"{path}: {size} bytes is not a float32 "
                                 "multiple")
            m = size // 4
            if n is not None and m != n:
                raise ValueError(f"{path}: {m} samples, {says} says {n}")
            if rows is None:
                rows = np.empty((len(paths), m))
            elif m != rows.shape[1]:
                raise ValueError(f"{path}: {m} samples, {paths[0]} has "
                                 f"{rows.shape[1]}")
            rows[k] = np.fromfile(fh, dtype="<f4")
        bad = m - np.count_nonzero(np.isfinite(rows[k]))
        if bad:
            raise ValueError(f"{path}: {bad} of {m} samples are NaN or "
                             "infinite")
    return rows


def write_pgm(path: str, px: np.ndarray) -> None:
    """Write a (height, width) uint8 image as a binary (P5) 8-bit PGM."""
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
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: only binary P5 PGM supported")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: malformed PGM header: expected P5, then "
                         "width, height and maxval as unsigned integers")
    width, height, maxval = (int(t) for t in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos = header.end()
    pixels = memoryview(blob)[pos:pos + width * height]  # no copy
    if len(pixels) != width * height:
        raise ValueError(f"{path}: expected {width * height} pixel bytes, "
                         f"got {len(pixels)}")
    if height < 2 or width < 2:
        raise ValueError(f"{path}: image must be at least 2x2")
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
    return _unique_ids(path, read_json(path, tuple[RecordManifest, ...]))


def load_record(manifest: RecordManifest,
                base_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The manifest's three bipolar channels, in bipolar_channel_indices
    order, as read_f32_rows returns them against the manifest's
    n_samples, and its PwD image as read_pgm returns it."""
    rows = read_f32_rows([os.path.join(base_dir, manifest.channel_paths[i])
                          for i in manifest.bipolar_channel_indices],
                         manifest.aux.get("n_samples"), "manifest")
    return rows, read_pgm(os.path.join(base_dir, manifest.image_path))


@dataclass(frozen=True)
class PreprocessedIndexEntry:
    """One record's entry in preprocessed.json."""

    record_id: str
    fs: float
    n_samples: int
    wave_config: WaveConfig
    polarity: Polarity

    def __post_init__(self):
        refuse(self,
               ("record_id", names_a_file(self.record_id), "a file name"),
               ("fs", self.fs == TARGET_FS, str(TARGET_FS)))


_STREAMS = ("fecg", *ENVELOPES)  # a record's .f32 files, in row order


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
    records = []
    for e in _unique_ids(path, read_json(
            path, tuple[PreprocessedIndexEntry, ...])):
        rows = read_f32_rows(
            [os.path.join(data_dir, f"{e.record_id}.{name}.f32")
             for name in _STREAMS], e.n_samples, path)
        records.append(PreprocessedRecord(
            record_id=e.record_id, fecg=rows[0], env=rows[1:],
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
    L = window_length(config.window_s)
    m = config.out_channels * L
    return {"weight": (m, L), "bias": (m,), "converged": (), "n_iter": (),
            "gap": ()}


def save_model(config: ExperimentConfig, model, path: str) -> None:
    """Write the model `config` fitted (the network's parameters or a
    baseline's LinearMap) as model.npz: `__version__`, `__config__` (the
    config as sorted-key JSON bytes), then the network's parameters or a
    LinearMap's fields. The round trip through load_model is bit-exact."""
    cfg = json.dumps(to_json_dict(config), sort_keys=True).encode()
    arrays = model if config.model is ModelKind.PWDRECNET else vars(model)
    np.savez(path, __version__=np.array(MODEL_VERSION),
             __config__=np.frombuffer(cfg, dtype=np.uint8), **arrays)


def load_model(path: str) -> tuple[ExperimentConfig, object]:
    """Read what save_model wrote: (the config, the network's parameters
    or a baseline's LinearMap).

    Checks, in this order: the file opens (the OSError of opening it); it
    is an .npz archive whose members' bytes match their CRC-32, its
    version is MODEL_VERSION, its `__config__` decodes to an
    ExperimentConfig, and every array that config implies is present
    with its shape (a ValueError naming `path`).
    """
    with open(path, "rb") as fh:
        try:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not an .npz archive")
            fh.seek(0)  # is_zipfile leaves the file near its end
            with np.load(fh) as z:
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
            for name, shape in shapes.items():
                found = arrays[name].shape if name in arrays else "missing"
                if found != shape:
                    raise ValueError(f"array {name} is {found}, "
                                     f"expected {shape}")
        except (zipfile.BadZipFile, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if config.model is ModelKind.PWDRECNET:
        return config, arrays
    return config, LinearMap(**{name: a.item() if a.ndim == 0 else a
                                for name, a in arrays.items()})
