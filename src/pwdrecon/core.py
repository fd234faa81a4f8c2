"""Shared domain vocabulary: records, windows, config enums, JSON codec.

A stream is a plain float64 array on the TARGET_FS time base: the fECG
is (n,) and the upper and lower PwD envelopes are the rows of one (2, n)
array. All types are immutable value objects; invariants are checked at
construction time, never deferred to first use.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

TARGET_FS = 284.0  # common time base for fECG and PwD envelopes, Hz


def _as_readonly(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class WaveConfig(Enum):
    """PwD cycle orientation class, taken from record metadata."""

    EA_PLUS = "EA+"
    EA_MINUS = "EA-"
    GROUP = "Group"


class Polarity(Enum):
    """Dominant fECG R-deflection direction; GROUP means no filtering."""

    POSITIVE = "+ve"
    NEGATIVE = "-ve"
    GROUP = "Group"


class EnvelopeSelection(Enum):
    UPPER = "Upper"
    LOWER = "Lower"
    BOTH = "Both"


class OutputMode(Enum):
    ORIGINAL = "Original"
    PCA_SINGLE = "PcaSingle"


class ModelKind(Enum):
    PWDRECNET = "PwDRecNet"
    LINEAR = "Linear"
    RIDGE = "Ridge"
    LASSO = "Lasso"


@dataclass(frozen=True)
class WindowSet:
    """Aligned fECG and target windows, one row per window.

    x has shape (N, L); y has shape (N, C, L) with C in (1, 2); t_start
    (seconds into the record) and record_id have shape (N,).
    """

    x: np.ndarray
    y: np.ndarray
    t_start: np.ndarray
    record_id: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "t_start"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        rid = np.array(self.record_id, dtype=str)
        rid.flags.writeable = False
        object.__setattr__(self, "record_id", rid)
        if self.x.ndim != 2:
            raise ValueError("x must be (windows, length)")
        if self.y.ndim != 3:
            raise ValueError("y must be (windows, channels, length)")
        n, L = self.x.shape
        if self.y.shape[0] != n or self.y.shape[2] != L:
            raise ValueError("x and y lengths must match")
        if self.y.shape[1] not in (1, 2):
            raise ValueError("y must have 1 or 2 channels")
        if self.t_start.shape != (n,) or self.record_id.shape != (n,):
            raise ValueError("t_start and record_id need one entry per window")

    def __len__(self) -> int:
        return self.x.shape[0]


def check_record_id(owner: str, record_id: str) -> None:
    """Refuse a record id that cannot name the record's files: an empty
    one, `.`, `..` or one holding a path separator or a NUL."""
    if record_id in ("", ".", "..") \
            or any(c in record_id for c in ("/", "\\", "\0")):
        raise ValueError(f"{owner}.record_id: must be a file name, "
                         f"got {record_id!r}")


@dataclass(frozen=True)
class RecordManifest:
    """Per-record metadata: file locations, channel selection, labels."""

    record_id: str
    channel_paths: tuple[str, ...]
    image_path: str
    aecg_fs: float
    bipolar_channel_indices: tuple[int, int, int]
    wave_config: WaveConfig
    image_baseline_row: int
    image_columns_per_second: float
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        check_record_id("RecordManifest", self.record_id)
        object.__setattr__(self, "channel_paths", tuple(self.channel_paths))
        idx = tuple(int(i) for i in self.bipolar_channel_indices)
        object.__setattr__(self, "bipolar_channel_indices", idx)
        if len(idx) != 3 or len(set(idx)) != 3:
            raise ValueError("bipolar_channel_indices must be 3 distinct integers")
        if any(i < 0 or i >= len(self.channel_paths) for i in idx):
            raise ValueError("bipolar_channel_indices out of range")
        if not self.aecg_fs > 0:
            raise ValueError("aecg_fs must be > 0")
        if not self.image_columns_per_second > 0:
            raise ValueError("image_columns_per_second must be > 0")
        if self.image_baseline_row < 1:  # row 0 has no row above it
            raise ValueError(f"RecordManifest.image_baseline_row: must be "
                             f">= 1, got {self.image_baseline_row}")


@dataclass(frozen=True)
class PreprocessedRecord:
    """One record after the full preprocessing pipeline, at 284 Hz: the
    fECG as (n,) samples and the upper and lower envelopes as (2, n)
    rows."""

    record_id: str
    fecg: np.ndarray
    env: np.ndarray
    wave_config: WaveConfig
    polarity: Polarity

    def __post_init__(self):
        for name in ("fecg", "env"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        if self.fecg.ndim != 1 or self.env.shape != (2, self.fecg.size):
            raise ValueError(f"fecg must be (n,) and env (2, n), got "
                             f"{self.fecg.shape} and {self.env.shape}")


def to_json_dict(obj) -> dict:
    """A dataclass as a JSON-ready dict in field order: enums by value,
    tuples as lists."""
    d = {f.name: getattr(obj, f.name) for f in fields(obj)}
    for key, v in d.items():
        if isinstance(v, Enum):
            d[key] = v.value
        elif isinstance(v, tuple):
            d[key] = list(v)
    return d


def _decode(tp, v):
    """The value of type `tp` that JSON value `v` stands for."""
    if is_dataclass(tp):
        return from_json_dict(tp, v)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(v, list):
            raise ValueError(f"expected a list, got {v!r}")
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(v)
        if len(v) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(v)}")
        return tuple(_decode(a, x) for a, x in zip(args, v))
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(v)
    if tp in (int, float):
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or tp is int and not float(v).is_integer():
            raise ValueError(f"expected {tp.__name__}, got {v!r}")
        return tp(v)
    if not isinstance(v, tp):
        raise ValueError(f"expected {tp.__name__}, got {v!r}")
    return v


def from_json_dict(cls, d: dict):
    """Inverse of to_json_dict, converting each field by its annotation.

    A float field accepts JSON integers and an int field integral
    numbers. An unknown or missing key, or a value the field cannot
    take, is a ValueError naming the class and the field.
    """
    name = cls.__name__
    if not isinstance(d, dict):
        raise ValueError(f"{name}: expected a JSON object, got {d!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, v in d.items():
        if key not in hints:
            raise ValueError(f"{name}: unknown field {key!r}")
        try:
            kwargs[key] = _decode(hints[key], v)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}.{key}: {exc}") from None
    for f in fields(cls):
        if f.name not in d and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ValueError(f"{name}: missing field {f.name!r}")
    return cls(**kwargs)


def read_json(path: str, tp):
    """The `tp` value (a dataclass, or a tuple of them) the JSON file at
    `path` holds. Any fault in the file -- bad syntax, a wrong top-level
    type, a field the type cannot take -- is a ValueError naming it."""
    with open(path) as fh:
        try:
            return _decode(tp, json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_json(path: str, value) -> None:
    """Write a dataclass, or a list of them, as read_json reads it back."""
    obj = ([to_json_dict(v) for v in value] if isinstance(value, list)
           else to_json_dict(value))
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
