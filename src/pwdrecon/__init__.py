"""pwdrecon: pulsed-wave Doppler envelope reconstruction from fetal ECG."""

from .core import (
    EnvelopePair,
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    RecordManifest,
    TimeSeries,
    WaveConfig,
    WindowSet,
)

__version__ = "0.1.0"

__all__ = [
    "EnvelopePair", "EnvelopeSelection", "ModelKind", "OutputMode",
    "Polarity", "RecordManifest", "TimeSeries", "WaveConfig", "WindowSet",
    "__version__",
]
