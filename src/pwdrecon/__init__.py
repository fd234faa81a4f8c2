"""pwdrecon: pulsed-wave Doppler envelope reconstruction from fetal ECG."""

from .core import (
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    RecordManifest,
    WaveConfig,
    WindowSet,
)

__version__ = "0.1.0"

__all__ = [
    "EnvelopeSelection", "ModelKind", "OutputMode", "Polarity",
    "RecordManifest", "WaveConfig", "WindowSet", "__version__",
]
