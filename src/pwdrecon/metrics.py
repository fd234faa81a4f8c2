"""Per-window Pearson correlation / MSE metrics and the near-zero rule.

Near-zero mean correlations are rendered as bare "+" or "-" strings,
since signs are the only trustworthy information below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NumericalInstability

NEAR_ZERO_R = 0.001


@dataclass(frozen=True)
class MetricReport:
    mean_r: float
    mean_mse: float
    n_windows: int
    n_excluded: int

    @property
    def rendered_r(self) -> str:
        return render_r(self.mean_r)


def render_r(mean_r: float) -> str:
    if abs(mean_r) < NEAR_ZERO_R:
        return "+" if mean_r >= 0 else "-"
    return f"{mean_r:.4f}"


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one BLAS dot per (window, channel)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def window_metrics(pred: np.ndarray, true: np.ndarray) -> MetricReport:
    """Aggregate per-window metrics over aligned prediction/target windows.

    Both arguments are aligned (windows, channels, length) arrays with at
    least one window of at least 2 samples.

    Each (window, channel) pair is scored by the product-moment
    correlation coefficient, clipped to [-1, 1]. Correlation is averaged
    channels-first then windows; pairs where either side has zero
    variance are excluded from the correlation mean (but not from the
    MSE), and a window with no pair left is counted as excluded. A NaN
    or infinite prediction raises NumericalInstability.
    """
    bad = pred.size - np.count_nonzero(np.isfinite(pred))
    if bad:
        raise NumericalInstability(f"{bad} of {pred.size} predicted samples "
                                   "are NaN or infinite")
    n_windows = len(pred)
    mse = np.mean(((pred - true) ** 2).reshape(n_windows, -1), axis=1)

    pc = pred - pred.mean(axis=2, keepdims=True)
    tc = true - true.mean(axis=2, keepdims=True)
    norm_p, norm_t = np.sqrt(_dot(pc, pc)), np.sqrt(_dot(tc, tc))
    defined = (norm_p != 0.0) & (norm_t != 0.0)
    r = np.clip(np.divide(_dot(pc, tc), norm_p * norm_t,
                          out=np.zeros_like(norm_p), where=defined),
                -1.0, 1.0)
    n_defined = defined.sum(axis=1)
    kept = n_defined > 0
    if not kept.any():
        raise DegenerateInput("no window had a defined correlation")
    window_r = r[kept].sum(axis=1) / n_defined[kept]
    # a running sum in window order (not numpy's pairwise sum) keeps
    # mean_mse bit-identical to previously recorded metrics.csv files
    return MetricReport(mean_r=float(np.mean(window_r)),
                        mean_mse=sum(mse.tolist()) / n_windows,
                        n_windows=n_windows,
                        n_excluded=n_windows - int(kept.sum()))
