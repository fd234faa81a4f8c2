"""Synthetic aligned fECG/PwD record generator.

Produces desk-scale records with known ground truth: a PQRST-like fetal
beat train mixed with a dominant maternal beat train into 3 abdominal
channels, plus a rasterized PwD spectrogram image whose envelopes carry
E/A humps (inflow) and a V hump (outflow) locked to the fetal R peaks.
Clean sources are written alongside for oracle checks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..core import RecordManifest, WaveConfig, refuse, write_json
from .io import write_pgm, write_raw_f32

# (offset ms from R, amplitude, width ms) per deflection
_ECG_SHAPE = (
    (-120.0, 0.15, 25.0),   # P
    (-25.0, -0.12, 10.0),   # Q
    (0.0, 1.00, 12.0),      # R
    (25.0, -0.25, 10.0),    # S
    (150.0, 0.30, 40.0),    # T
)

# (latency ms from R, amplitude px, width ms) per PwD envelope hump
_PWD_HUMPS = {
    "inflow": ((170.0, 60.0, 35.0),    # E
               (300.0, 40.0, 30.0)),   # A
    "outflow": ((60.0, 55.0, 40.0),),  # V
}


@dataclass(frozen=True)
class SyntheticSpec:
    n_records: int = 4
    duration_s: float = 16.0
    fetal_bpm: tuple[float, float] = (120.0, 160.0)
    maternal_bpm: tuple[float, float] = (70.0, 90.0)
    fetal_maternal_ratio: float = 0.1
    noise_sigma: float = 0.01
    jitter_ms: float = 0.0          # envelope misalignment vs fECG
    fetal_rr_jitter: float = 0.0    # fractional beat-to-beat RR variability
    seed: int = 0
    wave_config: WaveConfig = WaveConfig.EA_PLUS
    fecg_polarity: int = 1          # +1 or -1, R deflection direction
    aecg_fs: float = 512.0
    columns_per_second: float = 100.0
    image_height: int = 200
    baseline_row: int = 100

    def __post_init__(self):
        fin = math.isfinite
        fb, mb = self.fetal_bpm, self.maternal_bpm
        refuse(self,
               ("n_records", self.n_records >= 1, ">= 1"),
               ("fetal_bpm", 0 < fb[0] <= fb[1] and fin(fb[1]),
                "a finite, positive, ordered range"),
               ("maternal_bpm", 0 < mb[0] <= mb[1] and fin(mb[1]),
                "a finite, positive, ordered range"),
               ("fetal_maternal_ratio", fin(self.fetal_maternal_ratio),
                "finite"),
               ("noise_sigma", fin(self.noise_sigma)
                and self.noise_sigma >= 0, "finite and >= 0"),
               ("jitter_ms", fin(self.jitter_ms) and self.jitter_ms >= 0,
                "finite and >= 0"),
               ("fetal_rr_jitter", 0 <= self.fetal_rr_jitter < 0.5,
                "in [0, 0.5)"),
               ("seed", self.seed >= 0, ">= 0"),
               ("fecg_polarity", self.fecg_polarity in (1, -1), "+1 or -1"),
               ("aecg_fs", fin(self.aecg_fs) and self.aecg_fs > 0,
                "finite and > 0"),
               ("columns_per_second", fin(self.columns_per_second)
                and self.columns_per_second > 0, "finite and > 0"),
               # round(x) >= 2 iff x >= 1.5; the reader needs 2 columns
               ("duration_s", fin(self.duration_s) and self.duration_s * min(
                   self.aecg_fs, self.columns_per_second) >= 1.5,
                "finite and long enough for 2 samples and 2 image columns"),
               # _rasterize's offsets are int16
               ("image_height", 3 <= self.image_height < 2 ** 15,
                "in [3, 32767]"),
               # the reader's rule: a row above and one below the baseline
               ("baseline_row", 1 <= self.baseline_row
                <= self.image_height - 2, "in [1, image_height - 2]"))


def _gauss_train(t: np.ndarray, centers: np.ndarray, amp: float,
                 width_s: float) -> np.ndarray:
    """One Gaussian per centre, cut off 5 widths out, over one flat index
    of every centre's samples. np.add.at adds in index order, so
    overlapping tails sum in centre order."""
    lo = np.searchsorted(t, centers - 5 * width_s)
    n = np.searchsorted(t, centers + 5 * width_s) - lo
    idx = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    out = np.zeros_like(t)
    np.add.at(out, idx, amp * np.exp(
        -0.5 * ((t[idx] - np.repeat(centers, n)) / width_s) ** 2))
    return out


def _beat_times(rng, duration_s: float, period: float,
                rr_jitter: float) -> np.ndarray:
    """Beat instants with fractional beat-to-beat interval variability."""
    times = [rng.uniform(0.0, period)]
    while True:
        nxt = times[-1] + period * (1.0 + rr_jitter * rng.uniform(-1.0, 1.0))
        if nxt >= duration_s:
            break
        times.append(nxt)
    return np.array(times)


def _beat_train(t: np.ndarray, r_times: np.ndarray,
                shape: tuple) -> np.ndarray:
    """One Gaussian per (offset ms, amplitude, width ms) row, per beat."""
    x = np.zeros_like(t)
    for off_ms, amp, width_ms in shape:
        x += _gauss_train(t, r_times + off_ms / 1000.0, amp, width_ms / 1000.0)
    return x


def generate_synthetic(spec: SyntheticSpec,
                       out_dir: str) -> list[RecordManifest]:
    """Render records to out_dir and return their manifests.

    Also writes `records.json` (the dataset manifest) and per-record
    clean-source files used by the verification oracles.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    manifests = []
    for r in range(spec.n_records):
        rid = f"rec{r:03d}"
        fetal_bpm = rng.uniform(*spec.fetal_bpm)
        maternal_bpm = rng.uniform(*spec.maternal_bpm)
        fetal_period = 60.0 / fetal_bpm
        maternal_period = 60.0 / maternal_bpm

        t = np.arange(int(round(spec.duration_s * spec.aecg_fs))) / spec.aecg_fs
        fetal_r = _beat_times(rng, spec.duration_s, fetal_period,
                              spec.fetal_rr_jitter)
        maternal_r = np.arange(rng.uniform(0.0, maternal_period),
                               spec.duration_s, maternal_period)

        fetal = spec.fetal_maternal_ratio * (
            spec.fecg_polarity * _beat_train(t, fetal_r, _ECG_SHAPE))
        maternal = _beat_train(t, maternal_r, _ECG_SHAPE)

        # fixed random mixing into 3 channels, maternal dominant; keep the
        # fetal mixing direction away from the maternal one so the fetal
        # source survives removal of the maternal-dominant component
        mat_w = rng.uniform(0.7, 1.3, size=3)
        while True:
            fet_w = rng.uniform(0.5, 1.5, size=3) * rng.choice([-1.0, 1.0],
                                                               size=3)
            cos = abs(mat_w @ fet_w) / (np.linalg.norm(mat_w)
                                        * np.linalg.norm(fet_w))
            mags = np.sort(np.abs(fet_w))
            # a clear dominant electrode keeps the recorded fetal polarity
            # unambiguous despite maternal residue in the beat-locked median
            if cos <= 0.7 and mags[2] >= 1.3 * mags[1]:
                break
        # orient the fetal mixing vector so its dominant weight is positive:
        # the dominant abdominal channel then shows the true fECG polarity
        if fet_w[np.argmax(np.abs(fet_w))] < 0:
            fet_w = -fet_w
        channels = (np.outer(mat_w, maternal) + np.outer(fet_w, fetal)
                    + spec.noise_sigma * rng.normal(size=(3, t.size)))

        # truth envelopes at image column rate, jittered per beat
        tc = np.arange(int(round(spec.duration_s * spec.columns_per_second))) \
            / spec.columns_per_second
        jit = rng.uniform(-spec.jitter_ms, spec.jitter_ms,
                          size=fetal_r.size) / 1000.0
        beats = fetal_r + jit
        inflow = _beat_train(tc, beats, _PWD_HUMPS["inflow"])
        outflow = _beat_train(tc, beats, _PWD_HUMPS["outflow"])
        if spec.wave_config is WaveConfig.EA_MINUS:
            upper, lower = outflow, -inflow
        else:
            upper, lower = inflow, -outflow

        img = _rasterize(upper, lower, spec.image_height, spec.baseline_row)

        paths = {}
        for i in range(3):
            p = f"{rid}.ch{i}.f32"
            write_raw_f32(os.path.join(out_dir, p), channels[i])
            paths[f"ch{i}"] = p
        img_path = f"{rid}.pwd.pgm"
        write_pgm(os.path.join(out_dir, img_path), img)
        write_raw_f32(os.path.join(out_dir, f"{rid}.fetal_clean.f32"), fetal)
        write_raw_f32(os.path.join(out_dir, f"{rid}.truth_upper.f32"), upper)
        write_raw_f32(os.path.join(out_dir, f"{rid}.truth_lower.f32"), lower)

        manifests.append(RecordManifest(
            record_id=rid,
            channel_paths=(paths["ch0"], paths["ch1"], paths["ch2"]),
            image_path=img_path,
            aecg_fs=spec.aecg_fs,
            bipolar_channel_indices=(0, 1, 2),
            wave_config=spec.wave_config,
            image_baseline_row=spec.baseline_row,
            image_columns_per_second=spec.columns_per_second,
            aux={
                "n_samples": t.size,
                "fetal_bpm": fetal_bpm,
                "maternal_bpm": maternal_bpm,
                "fecg_polarity": spec.fecg_polarity,
                "fetal_clean_path": f"{rid}.fetal_clean.f32",
                "truth_upper_path": f"{rid}.truth_upper.f32",
                "truth_lower_path": f"{rid}.truth_lower.f32",
            },
        ))
    write_json(os.path.join(out_dir, "records.json"), manifests)
    return manifests


def _rasterize(upper: np.ndarray, lower: np.ndarray, height: int,
               baseline_row: int) -> np.ndarray:
    """Fill bright pixels from the baseline out to each envelope curve."""
    up = np.clip(np.round(upper), 0, baseline_row - 1).astype(np.int16)
    lo = np.clip(np.round(-lower), 0, height - baseline_row - 2) \
        .astype(np.int16)
    # a pixel is bright when its signed offset from the baseline row lies
    # in [-up, lo] of its column: offset + up, read unsigned so that a
    # negative sum wraps past every bound, is at most up + lo
    off = (np.arange(height, dtype=np.int16) - baseline_row)[:, None]
    img = ((off + up).view(np.uint16)
           <= (up + lo).view(np.uint16)).view(np.uint8)
    img[baseline_row] = 0  # the baseline row itself stays dark
    img *= 255
    return img
