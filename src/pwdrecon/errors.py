"""Exception hierarchy shared by all pwdrecon modules.

Each subclass is one way a run refuses data it cannot process; the CLI
exits 2 on any of them. The program tells two apart: `build_windows`
leaves a record out on DegenerateInput, and `ablate` renders
NoWindowsAfterFilter as an empty cell and every other error as a
failed one.
"""


class PwdReconError(Exception):
    """Base class for all errors raised by this package."""


class SignalTooShort(PwdReconError):
    """Signal too short for a stage."""


class DegenerateInput(PwdReconError):
    """Input data has no usable variance structure: a constant signal,
    image or channel pair, an all-zero covariance, or a window set in
    which no correlation is defined."""


class NumericalInstability(PwdReconError):
    """A result that cannot be trusted: a FastICA unmixing or a baseline
    fit that did not converge, or a prediction that is not finite."""


class NoFetalComponent(PwdReconError):
    """No fetal beat found in the record: no independent component has a
    beat rate in the fetal band, or the fECG has no QRS-like peaks."""


class NoWindowsAfterFilter(PwdReconError):
    """Config filters excluded every window; cell reported as empty."""
