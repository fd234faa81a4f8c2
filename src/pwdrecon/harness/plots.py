"""Per-window prediction plots: a small SVG line plot of the traces."""

from __future__ import annotations

import numpy as np

WIDTH, PANEL_HEIGHT = 640, 160  # SVG pixels

_COLORS = {
    "fecg": "#1f77b4",          # blue
    "true_upper": "#bfa800",    # yellow-ish
    "true_lower": "#2ca02c",    # green
    "pred_upper": "#800000",    # maroon
    "pred_lower": "#7f00ff",    # violet
    "true_pca": "#ff7f0e",      # orange
    "pred_pca": "#000000",      # black
}


def _polyline(t, y, width, height, t_span, y_span, color):
    t0, t1 = t_span
    y0, y1 = y_span
    xs = (t - t0) / (t1 - t0 + 1e-300) * width
    ys = height - (y - y0) / (y1 - y0 + 1e-300) * height
    pts = " ".join(f"{x:.2f},{yy:.2f}" for x, yy in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{pts}"/>')


def write_window_svg(path: str, t: np.ndarray, traces: dict) -> None:
    """Two stacked panels: fECG input on top, envelopes below."""
    env_names = [n for n in traces if n != "fecg"]
    total_h = 2 * PANEL_HEIGHT + 30
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{total_h}">']
    t_span = (float(t[0]), float(t[-1]))

    def panel(names, y_off, label):
        vals = np.concatenate([np.asarray(traces[n]) for n in names])
        y_span = (float(vals.min()), float(vals.max()))
        parts.append(f'<g transform="translate(0,{y_off})">')
        for n in names:
            color = _COLORS.get(n, "#555555")
            parts.append(_polyline(t, np.asarray(traces[n]), WIDTH,
                                   PANEL_HEIGHT, t_span, y_span, color))
        parts.append(f'<text x="4" y="12" font-size="10">{label}</text></g>')

    panel(["fecg"], 0, "fECG input")
    panel(env_names, PANEL_HEIGHT + 30,
          "PwD envelopes (truth vs prediction)")
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
