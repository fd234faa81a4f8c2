"""Experiment protocol: record preprocessing, splitting, single runs and
the ablation grids mirroring the six reported study layouts."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from ..baselines import lasso_fit, linmap_predict, ols_fit, ridge_fit
from ..core import (
    TARGET_FS,
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    PreprocessedRecord,
    RecordManifest,
    WaveConfig,
    WindowSet,
)
from ..dsp import (
    WINDOW_SECONDS,
    design_bandpass,
    filtfilt,
    resample_linear,
    segment,
    zscore,
)
from ..errors import (
    DegenerateInput,
    NoWindowsAfterFilter,
    NumericalInstability,
    PwdReconError,
    SignalShorterThanWindow,
    ZeroVariance,
)
from ..metrics import MetricReport, window_metrics
from ..net.model import predict
from ..net.train import train
from ..pwd_envelope import (
    extract_envelopes,
    normalize_intensity,
    otsu_threshold,
    pca_compress_envelopes,
    pixel_counts,
    preprocess_envelopes,
)
from ..separation import detect_polarity, extract_fecg
from .plots import write_window_csv, write_window_svg

FECG_SOS = design_bandpass("butterworth")  # the fECG stream's filter

# the fixed protocol: per-record time split, RMSprop rate, penalties
TRAIN_RATIO = 0.8
LR = 1e-3
RIDGE_LAM = 1.0
LASSO_LAM = 0.01


def preprocess_record(rows: np.ndarray, img: np.ndarray,
                      manifest: RecordManifest,
                      seed: int) -> PreprocessedRecord:
    """Run both preprocessing paths and align the streams.

    PwD path, on the (height, width) uint8 image load_record returns:
    intensity normalization, Otsu binarization, max-min envelope
    extraction, then the envelope chain (Bessel filtered). It runs first,
    so a baseline row outside the image is refused before the fECG work.
    fECG path, on the (3, n_samples) bipolar rows: PCA-ICA-PCA
    extraction, z-score, resampling to 284 Hz, Butterworth 0.1-50 Hz
    zero-phase filter.
    Both outputs are truncated to the shorter common duration.
    """
    counts = pixel_counts(img)
    levels = normalize_intensity(counts)
    thr = otsu_threshold(levels, counts)
    raw = extract_envelopes(img, levels, thr, manifest.image_baseline_row)
    env = preprocess_envelopes(raw, manifest.image_columns_per_second)

    fecg = extract_fecg(rows, manifest.aecg_fs, seed=seed)
    # polarity belongs to the extracted waveform; the 50 Hz cutoff below
    # shrinks the narrow R lobe and can flip marginal cases
    polarity = detect_polarity(fecg, manifest.aecg_fs)
    fecg = filtfilt(FECG_SOS, resample_linear(zscore(fecg), manifest.aecg_fs))

    n = min(fecg.size, env.shape[1])
    return PreprocessedRecord(record_id=manifest.record_id, fecg=fecg[:n],
                              env=env[:, :n],
                              wave_config=manifest.wave_config,
                              polarity=polarity)


def split(windows: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered split per record: the first TRAIN_RATIO of each
    record's windows train, the rest test.

    Returns (train_idx, test_idx) row indices into `windows`: records in
    sorted id order, each record's rows in time order. Every record has
    at least 2 windows (build_windows drops the others), and each side
    gets at least one of them.
    """
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for rid in np.unique(windows.record_id):
        rows = np.flatnonzero(windows.record_id == rid)
        rows = rows[np.argsort(windows.t_start[rows], kind="stable")]
        n_train = min(max(int(round(TRAIN_RATIO * rows.size)), 1),
                      rows.size - 1)
        train_idx.append(rows[:n_train])
        test_idx.append(rows[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


@dataclass(frozen=True)
class ExperimentConfig:
    """One ablation cell: data filters, target construction, model."""

    window_s: float = 2.0
    batch_size: int = 128
    wave_config: WaveConfig = WaveConfig.GROUP
    envelope_selection: EnvelopeSelection = EnvelopeSelection.BOTH
    polarity_filter: Polarity = Polarity.GROUP
    output_mode: OutputMode = OutputMode.ORIGINAL
    model: ModelKind = ModelKind.PWDRECNET
    seed: int = 0
    epochs: int = 50
    net_channels: tuple[int, int, int] = (16, 32, 64)
    kernel_size: int = 7

    def __post_init__(self):
        for name, ok, rule in (
                ("window_s", self.window_s in WINDOW_SECONDS,
                 f"one of {WINDOW_SECONDS}"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("epochs", self.epochs >= 1, ">= 1"),
                ("kernel_size", self.kernel_size >= 1
                 and self.kernel_size % 2 == 1, "odd and >= 1"),
                ("net_channels", all(c >= 1 for c in self.net_channels),
                 ">= 1 in every entry")):
            if not ok:
                raise ValueError(f"ExperimentConfig.{name}: must be {rule}, "
                                 f"got {getattr(self, name)!r}")
        if self.output_mode is OutputMode.PCA_SINGLE \
                and self.envelope_selection is not EnvelopeSelection.BOTH:
            raise ValueError("PCA-compressed output consumes both envelopes")

    @property
    def out_channels(self) -> int:
        if self.output_mode is OutputMode.PCA_SINGLE:
            return 1
        return 2 if self.envelope_selection is EnvelopeSelection.BOTH else 1


def _target_channels(rec: PreprocessedRecord,
                     config: ExperimentConfig) -> np.ndarray:
    """The config's normalized training targets, as (C, n) rows."""
    if config.output_mode is OutputMode.PCA_SINGLE:
        rows = pca_compress_envelopes(rec.env)[None]
    elif config.envelope_selection is EnvelopeSelection.UPPER:
        rows = rec.env[:1]
    elif config.envelope_selection is EnvelopeSelection.LOWER:
        rows = rec.env[1:]
    else:
        rows = rec.env
    return zscore(rows)


def build_windows(records: list[PreprocessedRecord],
                  config: ExperimentConfig) -> WindowSet:
    """Filter records per config and segment them into one window set."""
    sets: list[WindowSet] = []
    for rec in records:
        if config.wave_config is not WaveConfig.GROUP \
                and rec.wave_config is not config.wave_config:
            continue
        if config.polarity_filter is not Polarity.GROUP \
                and rec.polarity is not config.polarity_filter:
            continue
        try:
            targets = _target_channels(rec, config)
            ws = segment(rec.fecg, targets, config.window_s, rec.record_id)
        except (ZeroVariance, DegenerateInput, SignalShorterThanWindow):
            continue
        if len(ws) >= 2:
            sets.append(ws)
    if not sets:
        raise NoWindowsAfterFilter("no windows left after filtering")
    return WindowSet(*(np.concatenate([getattr(ws, f) for ws in sets])
                       for f in ("x", "y", "t_start", "record_id")))


def experiment_windows(config: ExperimentConfig,
                       records: list[PreprocessedRecord]):
    """The config's window set and its split: (windows, train_idx, test_idx)."""
    windows = build_windows(records, config)
    train_idx, test_idx = split(windows)
    return windows, train_idx, test_idx


def _fit(config: ExperimentConfig, x: np.ndarray, y: np.ndarray):
    """Train the configured model; returns (model, training log)."""
    if config.model is ModelKind.PWDRECNET:
        return train(x, y, config.net_channels, config.kernel_size,
                     config.epochs, config.batch_size, config.seed, LR)
    Y = y.reshape(len(y), -1)
    if config.model is ModelKind.LINEAR:
        return ols_fit(x, Y), []
    if config.model is ModelKind.RIDGE:
        return ridge_fit(x, Y, RIDGE_LAM), []
    return lasso_fit(x, Y, LASSO_LAM), []


def evaluate(config: ExperimentConfig, model, windows: WindowSet,
             test_idx: np.ndarray):
    """Predict the test windows with a fitted model and score them.

    `model` is the network's parameters or a baseline's LinearMap, as
    `config.model` says; a LinearMap that did not converge raises
    NumericalInstability, so no number comes from it. Returns
    (predictions (N, C, L), MetricReport).
    """
    x = windows.x[test_idx]
    if config.model is ModelKind.PWDRECNET:
        preds = predict(model, x, config.batch_size)
    else:
        if not model.converged:
            raise NumericalInstability(
                f"{config.model.value} fit did not converge in "
                f"{model.n_iter} steps: relative duality gap {model.gap:.3g}")
        preds = linmap_predict(model, x).reshape(len(x), config.out_channels,
                                                 -1)
    return preds, window_metrics(preds, windows.y[test_idx])


def run_experiment(config: ExperimentConfig,
                   records: list[PreprocessedRecord],
                   out_dir: str | None = None):
    """Execute one ablation cell; returns (MetricReport, fitted model)."""
    windows, train_idx, test_idx = experiment_windows(config, records)
    model, log = _fit(config, windows.x[train_idx], windows.y[train_idx])
    preds, report = evaluate(config, model, windows, test_idx)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_report_csv(os.path.join(out_dir, "metrics.csv"), config,
                          report)
        _write_training_log(os.path.join(out_dir, "training_log.csv"), log)
        for i, (row, pred) in enumerate(zip(test_idx[:3],
                                            preds)):
            x, y = windows.x[row], windows.y[row]
            t = windows.t_start[row] + np.arange(x.size) / TARGET_FS
            traces = {"fecg": x}
            names = (["true_upper", "true_lower"] if y.shape[0] == 2
                     else ["true_upper"])
            for c, nm in enumerate(names):
                traces[nm] = y[c]
                traces[nm.replace("true", "pred")] = pred[c]
            stem = os.path.join(out_dir, f"window{i}")
            write_window_csv(stem + ".csv", t, traces)
            write_window_svg(stem + ".svg", t, traces)
    return report, model


# `split` is always TimeBased, the one split protocol; the column keeps
# the file layout
METRICS_HEADER = ("window_s,batch_size,wave_config,envelope,polarity,"
                  "output_mode,model,split,seed,mean_r,rendered_r,mean_mse,"
                  "n_windows,n_excluded\n")


def _metrics_row(config: ExperimentConfig, report: MetricReport) -> str:
    return (f"{config.window_s},{config.batch_size},"
            f"{config.wave_config.value},{config.envelope_selection.value},"
            f"{config.polarity_filter.value},{config.output_mode.value},"
            f"{config.model.value},TimeBased,{config.seed},"
            f"{report.mean_r:.6f},{report.rendered_r},"
            f"{report.mean_mse:.6f},{report.n_windows},"
            f"{report.n_excluded}\n")


def _write_report_csv(path: str, config: ExperimentConfig,
                      report: MetricReport) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER)
        fh.write(_metrics_row(config, report))


def _write_training_log(path: str, log: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for e in log:
            fh.write(f"{e['epoch']},{e['train_loss']:.9g},"
                     f"{e['val_loss']:.9g}\n")


# --- ablation grids --------------------------------------------------------

_WAVES = (WaveConfig.EA_PLUS, WaveConfig.EA_MINUS, WaveConfig.GROUP)
_POLS = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.GROUP)
_ENVS = (EnvelopeSelection.UPPER, EnvelopeSelection.LOWER,
         EnvelopeSelection.BOTH)
_MODELS = (ModelKind.LINEAR, ModelKind.RIDGE, ModelKind.LASSO,
           ModelKind.PWDRECNET)


def grid_cells(name: str, base: ExperimentConfig):
    """Yield (row_label, col_label, config) for a named grid.

    Grid layouts mirror the six reported study tables: cells counted
    row-major are 25, 9, 9, 18, 12 and 12 respectively.
    """
    if name == "table1":
        rows = [(f"t={t}", replace(base, window_s=t))
                for t in (0.25, 0.5, 0.75, 1.0, 2.0)]
        for rl, rc in rows:
            for bs in (32, 64, 128, 256, 512):
                yield rl, f"batch={bs}", replace(rc, batch_size=bs)
    elif name == "table2":
        for wave in _WAVES:
            for t in (0.75, 1.0, 2.0):
                yield wave.value, f"t={t}", replace(
                    base, wave_config=wave, window_s=t)
    elif name == "table3":
        for wave in _WAVES:
            for env in _ENVS:
                yield f"{wave.value}/{env.value}", "r", replace(
                    base, wave_config=wave, envelope_selection=env,
                    window_s=2.0)
    elif name == "table4":
        for pol in _POLS:
            for wave in _WAVES:
                for t in (0.75, 2.0):
                    yield (f"{pol.value}/{wave.value}", f"t={t}", replace(
                        base, polarity_filter=pol, wave_config=wave,
                        window_s=t))
    elif name == "table5":
        for mode in (OutputMode.ORIGINAL, OutputMode.PCA_SINGLE):
            for wave in _WAVES:
                for t in (0.75, 2.0):
                    yield (f"{mode.value}/{wave.value}", f"t={t}", replace(
                        base, output_mode=mode, wave_config=wave,
                        window_s=t))
    elif name == "table6":
        for model in _MODELS:
            for wave in _WAVES:
                yield (f"{model.value}/{wave.value}", "r (t=0.75)", replace(
                    base, model=model, wave_config=wave, window_s=0.75))
    else:
        raise ValueError(f"unknown grid {name!r}; expected table1..table6")


GRID_NAMES = ("table1", "table2", "table3", "table4", "table5", "table6")


@dataclass(frozen=True)
class GridFile:
    """An ablation grid file: the grids to run, over a base config."""

    grids: tuple[str, ...]
    base: ExperimentConfig = ExperimentConfig()

    def __post_init__(self):
        for name in self.grids:
            if name not in GRID_NAMES:
                raise ValueError(f"GridFile.grids: unknown grid {name!r}")


def run_ablation(name: str, records: list[PreprocessedRecord],
                 base: ExperimentConfig, out_dir: str | None = None):
    """Run every cell of a named grid; failures become marker cells.

    Returns (rows, cols, cell strings dict); writes `<name>.csv` in the
    paper's row-by-column layout when out_dir is given.
    """
    rows: list[str] = []
    cols: list[str] = []
    cells: dict[tuple[str, str], str] = {}
    for row, col, config in grid_cells(name, base):
        if row not in rows:
            rows.append(row)
        if col not in cols:
            cols.append(col)
        try:
            report, _ = run_experiment(config, records)
            cells[(row, col)] = report.rendered_r
        except NoWindowsAfterFilter:
            cells[(row, col)] = "-"
        except PwdReconError:
            cells[(row, col)] = "x"
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as fh:
            fh.write("," + ",".join(cols) + "\n")
            for row in rows:
                fh.write(row + "," +
                         ",".join(cells[(row, c)] for c in cols) + "\n")
    return rows, cols, cells
