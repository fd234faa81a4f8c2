"""File formats: raw little-endian float32 channels, binary PGM images,
JSON manifests.

The raw layout keeps the toolkit free of any archive-format dependency;
converting a real dataset into it is a one-shot external step.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..core import MultichannelRecording, RecordManifest, TimeSeries, WaveConfig
from ..core import EnvelopePair, Polarity, from_json_dict, to_json_dict
from ..errors import BadMagic, FileMissing, SizeMismatch
from ..pwd_envelope import GrayImage


def write_raw_f32(path: str, samples: np.ndarray) -> None:
    """Write samples as raw little-endian float32."""
    np.asarray(samples, dtype="<f4").tofile(path)


def read_raw_f32(path: str) -> np.ndarray:
    """Read a raw little-endian float32 file; returns float64 values."""
    if not os.path.exists(path):
        raise FileMissing(path)
    size = os.path.getsize(path)
    if size == 0 or size % 4 != 0:
        raise SizeMismatch(f"{path}: {size} bytes is not a float32 multiple")
    return np.fromfile(path, dtype="<f4").astype(np.float64)


def write_pgm(path: str, img: GrayImage) -> None:
    """Write a binary (P5) 8-bit PGM."""
    data = np.clip(np.round(img.pixels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path: str) -> GrayImage:
    """Read a binary (P5) 8-bit PGM, bit-exact."""
    if not os.path.exists(path):
        raise FileMissing(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise BadMagic(f"{path}: only binary P5 PGM supported")
    # header: magic, width, height, maxval as whitespace-separated tokens
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":          # comment line
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise BadMagic(f"{path}: only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    pixels = blob[pos:pos + width * height]
    if len(pixels) != width * height:
        raise SizeMismatch(f"{path}: expected {width * height} pixel bytes, "
                           f"got {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return GrayImage(arr.astype(np.float64))


def save_manifests(path: str, manifests: list[RecordManifest]) -> None:
    with open(path, "w") as fh:
        json.dump([to_json_dict(m) for m in manifests], fh, indent=1)


def load_manifests(path: str) -> list[RecordManifest]:
    if not os.path.exists(path):
        raise FileMissing(path)
    with open(path) as fh:
        return [from_json_dict(RecordManifest, d) for d in json.load(fh)]


def load_record(manifest: RecordManifest,
                base_dir: str = ".") -> tuple[MultichannelRecording, GrayImage]:
    """Load AECG channels and the PwD image referenced by a manifest."""
    channels = []
    for rel in manifest.channel_paths:
        samples = read_raw_f32(os.path.join(base_dir, rel))
        expected = manifest.aux.get("n_samples")
        if expected is not None and samples.size != expected:
            raise SizeMismatch(
                f"{rel}: {samples.size} samples, manifest says {expected}")
        channels.append(TimeSeries(samples, manifest.aecg_fs))
    if len({len(ch) for ch in channels}) != 1:
        raise SizeMismatch("channel files disagree on length")
    rec = MultichannelRecording(channels=tuple(channels),
                                source_fs=manifest.aecg_fs)
    img = read_pgm(os.path.join(base_dir, manifest.image_path))
    return rec, img


def save_preprocessed(out_dir: str, records) -> None:
    """Persist preprocessed records: f32 streams plus an index JSON."""
    os.makedirs(out_dir, exist_ok=True)
    index = []
    for rec in records:
        for name, ts in (("fecg", rec.fecg), ("upper", rec.env.upper),
                         ("lower", rec.env.lower)):
            write_raw_f32(os.path.join(out_dir, f"{rec.record_id}.{name}.f32"),
                          ts.samples)
        index.append({
            "record_id": rec.record_id,
            "fs": rec.fecg.fs,
            "n_samples": len(rec.fecg),
            "wave_config": rec.wave_config.value,
            "polarity": rec.polarity.value,
        })
    with open(os.path.join(out_dir, "preprocessed.json"), "w") as fh:
        json.dump(index, fh, indent=1)


def load_preprocessed(data_dir: str):
    """Inverse of save_preprocessed; returns PreprocessedRecord list."""
    from .experiment import PreprocessedRecord

    path = os.path.join(data_dir, "preprocessed.json")
    if not os.path.exists(path):
        raise FileMissing(path)
    with open(path) as fh:
        index = json.load(fh)
    records = []
    for e in index:
        rid, n = e["record_id"], e["n_samples"]
        streams = {}
        for name in ("fecg", "upper", "lower"):
            path = os.path.join(data_dir, f"{rid}.{name}.f32")
            samples = read_raw_f32(path)
            if samples.size != n:
                raise SizeMismatch(f"{rid}: {name} stream {path} has "
                                   f"{samples.size} samples, expected {n}")
            streams[name] = TimeSeries(samples, float(e["fs"]))
        records.append(PreprocessedRecord(
            record_id=rid, fecg=streams["fecg"],
            env=EnvelopePair(upper=streams["upper"], lower=streams["lower"]),
            wave_config=WaveConfig(e["wave_config"]),
            polarity=Polarity(e["polarity"])))
    return records
