"""Exception hierarchy shared by all pwdrecon modules."""


class PwdReconError(Exception):
    """Base class for all errors raised by this package."""


# --- signal too short or flat: dsp and separation ---

class SignalTooShort(PwdReconError):
    """Signal too short for a stage."""


class ZeroVariance(PwdReconError):
    """Operation requires a non-constant signal."""


# --- solvers: FastICA and the baseline fits ---

class NumericalInstability(PwdReconError):
    """A result that cannot be trusted: a FastICA unmixing or a baseline
    fit that did not converge."""


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


# --- harness / eval ---

class NoWindowsAfterFilter(PwdReconError):
    """Config filters excluded every window; cell reported as empty."""


class AllWindowsExcluded(PwdReconError):
    """Every window pair had zero variance; no correlation defined."""


class NonFinitePrediction(PwdReconError):
    """A model predicted NaN or infinite samples; no metric is defined."""
