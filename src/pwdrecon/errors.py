"""Exception hierarchy shared by all pwdrecon modules."""


class PwdReconError(Exception):
    """Base class for all errors raised by this package."""


# --- dsp ---

class NumericalInstability(PwdReconError):
    """A result that cannot be trusted: a FastICA unmixing or a baseline
    fit that did not converge."""


class SignalTooShort(PwdReconError):
    """Signal too short for the requested filtering operation."""


class ZeroVariance(PwdReconError):
    """Operation requires a non-constant signal."""


class SignalShorterThanWindow(PwdReconError):
    """Record shorter than one window length."""


# --- separation ---

class DegenerateInput(PwdReconError):
    """Input data has no usable variance structure."""


class NoFetalComponent(PwdReconError):
    """No independent component has a beat rate in the fetal band."""


class NoPeaksDetected(PwdReconError):
    """Polarity detection found no QRS-like peaks."""


# --- pwd envelope ---

class ConstantImage(PwdReconError):
    """Image has a single intensity value; thresholding undefined."""


# --- model files ---

class ShapeMismatch(PwdReconError):
    """A model file lacks an array its config implies, or holds one of
    another shape."""


# --- harness / eval ---

class FileMissing(PwdReconError):
    """An input path does not exist or is not a file."""


class SizeMismatch(PwdReconError):
    """File size inconsistent with the manifest."""


class BadMagic(PwdReconError):
    """Not a binary 8-bit P5 PGM, a malformed PGM header, or an image
    smaller than 2x2."""


class NoWindowsAfterFilter(PwdReconError):
    """Config filters excluded every window; cell reported as empty."""


class AllWindowsExcluded(PwdReconError):
    """Every window pair had zero variance; no correlation defined."""


class NonFinitePrediction(PwdReconError):
    """A model predicted NaN or infinite samples; no metric is defined."""
