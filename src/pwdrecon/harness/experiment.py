"""Experiment protocol: record preprocessing, splitting, single runs and
the ablation grids mirroring the six reported study layouts."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines import lasso_fit, linmap_predict, ols_fit, ridge_fit
from ..core import (
    TARGET_FS,
    EnvelopePair,
    EnvelopeSelection,
    ModelKind,
    MultichannelRecording,
    OutputMode,
    Polarity,
    RecordManifest,
    SplitMode,
    TimeSeries,
    WaveConfig,
    WindowSet,
)
from ..dsp import (
    design_bandpass,
    filtfilt,
    resample_linear,
    segment,
    zscore,
)
from ..errors import (
    NoWindowsAfterFilter,
    PwdReconError,
    SignalShorterThanWindow,
    TooFewWindows,
    ZeroVariance,
)
from ..metrics import MetricReport, window_metrics
from ..net import NetConfig, TrainConfig, predict, train
from ..pwd_envelope import (
    GrayImage,
    extract_envelopes,
    normalize_intensity,
    otsu_threshold,
    pca_compress_envelopes,
    preprocess_envelopes,
)
from ..separation import detect_polarity, extract_fecg
from .plots import write_window_csv, write_window_svg


@dataclass(frozen=True)
class PreprocessedRecord:
    """One record after the full preprocessing pipeline, at 284 Hz."""

    record_id: str
    fecg: TimeSeries
    env: EnvelopePair
    wave_config: WaveConfig
    polarity: Polarity


def preprocess_record(rec: MultichannelRecording, img: GrayImage,
                      manifest: RecordManifest,
                      seed: int) -> PreprocessedRecord:
    """Run both preprocessing paths and align the streams.

    fECG path: bipolar selection, PCA-ICA-PCA extraction, z-score,
    resampling to 284 Hz, Butterworth 0.1-50 Hz zero-phase filter.
    PwD path: intensity normalization, Otsu binarization, max-min
    envelope extraction, then the envelope chain (Bessel filtered).
    Both outputs are truncated to the shorter common duration.
    """
    bipolar = MultichannelRecording(
        channels=tuple(rec.channels[i]
                       for i in manifest.bipolar_channel_indices),
        source_fs=rec.source_fs)
    fecg = extract_fecg(bipolar, seed=seed)
    # polarity belongs to the extracted waveform; the 50 Hz cutoff below
    # shrinks the narrow R lobe and can flip marginal cases
    polarity = detect_polarity(fecg)
    fecg = resample_linear(zscore(fecg), TARGET_FS)
    butter = design_bandpass("butterworth", 0.1, 50.0, 4, TARGET_FS)
    fecg = filtfilt(butter, fecg)

    norm = normalize_intensity(img)
    thr = otsu_threshold(norm)
    raw = extract_envelopes(norm, thr, manifest.image_baseline_row,
                            manifest.image_columns_per_second)
    env = preprocess_envelopes(raw)

    n = min(len(fecg), len(env.upper))
    fecg = TimeSeries(fecg.samples[:n], TARGET_FS)
    env = EnvelopePair(upper=TimeSeries(env.upper.samples[:n], TARGET_FS),
                       lower=TimeSeries(env.lower.samples[:n], TARGET_FS))
    return PreprocessedRecord(record_id=manifest.record_id, fecg=fecg,
                              env=env, wave_config=manifest.wave_config,
                              polarity=polarity)


def split(windows: WindowSet, mode: SplitMode, ratio: float = 0.8,
          seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """80/20 split per record, time-ordered or seeded-random.

    Returns (train_idx, test_idx) row indices into `windows`: records in
    sorted id order, each record's rows in time order or permuted.
    """
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for rid in np.unique(windows.record_id):
        rows = np.flatnonzero(windows.record_id == rid)
        rows = rows[np.argsort(windows.t_start[rows], kind="stable")]
        if rows.size < 2:
            raise TooFewWindows(f"record {rid} has {rows.size} window(s)")
        if mode is SplitMode.RANDOM:
            rows = rows[rng.permutation(rows.size)]
        n_train = min(max(int(round(ratio * rows.size)), 1), rows.size - 1)
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
    split: SplitMode = SplitMode.TIME_BASED
    seed: int = 0
    epochs: int = 50
    lr: float = 1e-3
    ratio: float = 0.8
    net_channels: tuple[int, int, int] = (16, 32, 64)
    kernel_size: int = 7
    ridge_lam: float = 1.0
    lasso_lam: float = 0.01

    def __post_init__(self):
        if self.output_mode is OutputMode.PCA_SINGLE \
                and self.envelope_selection is not EnvelopeSelection.BOTH:
            raise ValueError("PCA-compressed output consumes both envelopes")

    @property
    def out_channels(self) -> int:
        if self.output_mode is OutputMode.PCA_SINGLE:
            return 1
        return 2 if self.envelope_selection is EnvelopeSelection.BOTH else 1


def _target_channels(rec: PreprocessedRecord,
                     config: ExperimentConfig) -> list[TimeSeries]:
    if config.output_mode is OutputMode.PCA_SINGLE:
        chans = [pca_compress_envelopes(rec.env)]
    elif config.envelope_selection is EnvelopeSelection.UPPER:
        chans = [rec.env.upper]
    elif config.envelope_selection is EnvelopeSelection.LOWER:
        chans = [rec.env.lower]
    else:
        chans = [rec.env.upper, rec.env.lower]
    return [zscore(c) for c in chans]  # normalized training targets


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
        except (ZeroVariance, SignalShorterThanWindow):
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
    train_idx, test_idx = split(windows, config.split, config.ratio,
                                config.seed)
    return windows, train_idx, test_idx


def _fit(config: ExperimentConfig, x: np.ndarray, y: np.ndarray):
    """Train the configured model; returns (model, training log)."""
    if config.model is ModelKind.PWDRECNET:
        net_cfg = NetConfig(out_channels=config.out_channels,
                            channels=config.net_channels,
                            kernel_size=config.kernel_size)
        train_cfg = TrainConfig(epochs=config.epochs,
                                batch_size=config.batch_size,
                                seed=config.seed, lr=config.lr)
        return train(x, y, net_cfg, train_cfg)
    Y = y.reshape(len(y), -1)
    if config.model is ModelKind.LINEAR:
        return ols_fit(x, Y), []
    if config.model is ModelKind.RIDGE:
        return ridge_fit(x, Y, config.ridge_lam), []
    return lasso_fit(x, Y, config.lasso_lam), []


def evaluate(config: ExperimentConfig, model, windows: WindowSet,
             test_idx: np.ndarray):
    """Predict the test windows with a fitted model and score them.

    `model` is the network's parameters or a baseline's LinearMap, as
    `config.model` says. Returns (predictions (N, C, L), MetricReport).
    """
    x = windows.x[test_idx]
    if config.model is ModelKind.PWDRECNET:
        preds = predict(model, x, config.batch_size)
    else:
        preds = linmap_predict(model, x).reshape(len(x), config.out_channels,
                                                 -1)
    return preds, window_metrics(preds, windows.y[test_idx])


def run_experiment(config: ExperimentConfig,
                   records: list[PreprocessedRecord],
                   out_dir: str | None = None):
    """Execute one ablation cell; returns (MetricReport, artifacts)."""
    windows, train_idx, test_idx = experiment_windows(config, records)
    model, log = _fit(config, windows.x[train_idx], windows.y[train_idx])
    preds, report = evaluate(config, model, windows, test_idx)
    artifacts = {"model": model, "training_log": log, "report": report,
                 "n_train": len(train_idx), "n_test": len(test_idx)}

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
    return report, artifacts


METRICS_HEADER = ("window_s,batch_size,wave_config,envelope,polarity,"
                  "output_mode,model,split,seed,mean_r,rendered_r,mean_mse,"
                  "n_windows,n_excluded\n")


def _metrics_row(config: ExperimentConfig, report: MetricReport) -> str:
    return (f"{config.window_s},{config.batch_size},"
            f"{config.wave_config.value},{config.envelope_selection.value},"
            f"{config.polarity_filter.value},{config.output_mode.value},"
            f"{config.model.value},{config.split.value},{config.seed},"
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


def run_ablation(name: str, records: list[PreprocessedRecord],
                 out_dir: str | None = None,
                 base: ExperimentConfig | None = None):
    """Run every cell of a named grid; failures become marker cells.

    Returns (rows, cols, cell strings dict); writes `<name>.csv` in the
    paper's row-by-column layout when out_dir is given.
    """
    base = base or ExperimentConfig()
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
