"""Shared domain vocabulary: records, windows, config enums, the JSON
codec and the JSON and CSV file writers.

A stream is a plain float64 array on the TARGET_FS time base: the fECG
is (n,) and the upper and lower PwD envelopes are the rows of one (2, n)
array. All types are immutable value objects. Each value's invariants
are established by the function that builds it; a type checks only what
the codec decodes from outside.
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
    (seconds into the record) has shape (N,): segment and build_windows,
    its only builders, guarantee these shapes. build_windows keeps each
    record's rows together and in time order, records in id order.
    """

    x: np.ndarray
    y: np.ndarray
    t_start: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "t_start"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))


def refuse(value, *checks) -> None:
    """Refuse a dataclass value at the first (field, ok, rule) of `checks`
    whose `ok` is false: a ValueError `<Class>.<field>: must be <rule>,
    got <the field's value>`."""
    for name, ok, rule in checks:
        if not ok:
            raise ValueError(f"{type(value).__name__}.{name}: must be "
                             f"{rule}, got {getattr(value, name)!r}")


def names_a_file(record_id: str) -> bool:
    """Whether a record id can name the record's files: it is not empty,
    `.` or `..` and holds no path separator or NUL."""
    return record_id not in ("", ".", "..") \
        and not any(c in record_id for c in ("/", "\\", "\0"))


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
        idx, n_ch = self.bipolar_channel_indices, len(self.channel_paths)
        refuse(self,
               ("record_id", names_a_file(self.record_id), "a file name"),
               ("bipolar_channel_indices", len(set(idx)) == 3,
                "3 distinct integers"),
               ("bipolar_channel_indices", all(0 <= i < n_ch for i in idx),
                f"indices into the {n_ch} channel_paths"),
               ("aecg_fs", 0 < self.aecg_fs < np.inf, "finite and > 0"),
               ("image_columns_per_second",
                0 < self.image_columns_per_second < np.inf,
                "finite and > 0"),
               # image row 0 has no row above it
               ("image_baseline_row", self.image_baseline_row >= 1, ">= 1"))


ENVELOPES = ("upper", "lower")  # PreprocessedRecord.env's rows, in order


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


def write_json(path: str, values: list) -> None:
    """Write a list of dataclasses as read_json reads it back."""
    with open(path, "w") as fh:
        json.dump([to_json_dict(v) for v in values], fh, indent=1)


def write_csv(path: str, header, rows) -> None:
    """Write a CSV table: the header, then one line per row, each value
    by str(); callers pass values already formatted."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n"
                      for row in (header, *rows))
