"""Exception hierarchy shared by all pwdrecon modules."""


class PwdReconError(Exception):
    """Base class for all errors raised by this package."""


# --- dsp ---

class NumericalInstability(PwdReconError):
    """A result that cannot be trusted: a designed filter with a pole on or
    outside the unit circle, or a FastICA unmixing or baseline fit that
    did not converge."""


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


# --- nn engine ---

class ShapeMismatch(PwdReconError):
    """Tensor shapes inconsistent with the operation's contract."""


class OddLength(PwdReconError):
    """maxpool2 requires an even temporal length."""


class EmptyDataset(PwdReconError):
    """Training requires at least one sample."""


# --- harness / eval ---

class FileMissing(PwdReconError):
    """An input file does not exist."""


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
