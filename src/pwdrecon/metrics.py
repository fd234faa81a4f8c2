"""Pearson correlation / MSE metrics and the near-zero rendering rule.

Near-zero mean correlations are rendered as bare "+" or "-" strings,
since signs are the only trustworthy information below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllWindowsExcluded, ZeroVariance

NEAR_ZERO_R = 0.001


@dataclass(frozen=True)
class MetricReport:
    mean_r: float
    mean_mse: float
    n_windows: int
    n_excluded: int
    rendered_r: str

    def __post_init__(self):
        if self.n_excluded > self.n_windows:
            raise ValueError("n_excluded cannot exceed n_windows")


def pearson_r(a: np.ndarray, b: np.ndarray) -> float:
    """Standard product-moment correlation coefficient."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("need equal lengths >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    na, nb = np.sqrt(ac @ ac), np.sqrt(bc @ bc)
    if na == 0.0 or nb == 0.0:
        raise ZeroVariance("correlation undefined for constant input")
    return float(np.clip(ac @ bc / (na * nb), -1.0, 1.0))


def render_r(mean_r: float, threshold: float = NEAR_ZERO_R) -> str:
    if abs(mean_r) < threshold:
        return "+" if mean_r >= 0 else "-"
    return f"{mean_r:.4f}"


def window_metrics(pred_windows: list[np.ndarray],
                   true_windows: list[np.ndarray],
                   threshold: float = NEAR_ZERO_R) -> MetricReport:
    """Aggregate per-window metrics over aligned prediction/target windows.

    Either argument is a list of windows or an array with one window per
    row.

    Correlation is averaged channels-first then windows; window-channel
    pairs where either side has zero variance are excluded from the
    correlation mean (but not from the MSE) and counted per window.
    """
    if len(pred_windows) != len(true_windows) or len(pred_windows) == 0:
        raise ValueError("need equally many prediction and target windows")
    window_rs = []
    n_excluded = 0
    mse_sum = 0.0
    for pred, true in zip(pred_windows, true_windows):
        pred = np.atleast_2d(pred)
        true = np.atleast_2d(true)
        if pred.shape != true.shape:
            raise ValueError(f"window shapes differ: {pred.shape} vs "
                             f"{true.shape}")
        mse_sum += float(np.mean((pred - true) ** 2))
        ch_rs = []
        for c in range(pred.shape[0]):
            try:
                ch_rs.append(pearson_r(pred[c], true[c]))
            except ZeroVariance:
                continue
        if ch_rs:
            window_rs.append(float(np.mean(ch_rs)))
        else:
            n_excluded += 1
    n_windows = len(pred_windows)
    if not window_rs:
        raise AllWindowsExcluded("no window had a defined correlation")
    mean_r = float(np.mean(window_rs))
    return MetricReport(mean_r=mean_r,
                        mean_mse=mse_sum / n_windows,
                        n_windows=n_windows,
                        n_excluded=n_excluded,
                        rendered_r=render_r(mean_r, threshold))

