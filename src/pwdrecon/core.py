"""Shared domain vocabulary: signals, records, envelopes, windows, config enums.

All types are immutable value objects; invariants are checked at
construction time, never deferred to first use.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

import numpy as np

TARGET_FS = 284.0  # common time base for fECG and PwD envelopes, Hz


def _as_readonly(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly(self.samples))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.fs > 0:
            raise ValueError("fs must be > 0")

    def __len__(self) -> int:
        return self.samples.size


def duration(ts: TimeSeries) -> float:
    """Duration in seconds, len(samples)/fs with no truncation."""
    return len(ts) / ts.fs


@dataclass(frozen=True)
class MultichannelRecording:
    """Channels sharing one time base, plus the original acquisition rate."""

    channels: tuple[TimeSeries, ...]
    source_fs: float

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.channels) < 1:
            raise ValueError("at least one channel required")
        fs0, n0 = self.channels[0].fs, len(self.channels[0])
        for ch in self.channels:
            if ch.fs != fs0 or len(ch) != n0:
                raise ValueError("all channels must share fs and length")
        if not self.source_fs > 0:
            raise ValueError("source_fs must be > 0")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def as_matrix(self) -> np.ndarray:
        """(n_samples, n_channels) matrix view of the channels."""
        return np.stack([ch.samples for ch in self.channels], axis=1)


@dataclass(frozen=True)
class EnvelopePair:
    """Upper and lower PwD envelopes on one shared time base."""

    upper: TimeSeries
    lower: TimeSeries

    def __post_init__(self):
        if self.upper.fs != self.lower.fs:
            raise ValueError("upper and lower must share fs")
        if len(self.upper) != len(self.lower):
            raise ValueError("upper and lower must share length")

    @property
    def fs(self) -> float:
        return self.upper.fs


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


class SplitMode(Enum):
    TIME_BASED = "TimeBased"
    RANDOM = "Random"


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
