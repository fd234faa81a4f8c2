"""Experiment protocol: record preprocessing, splitting, single runs and
the ablation grids mirroring the six reported study layouts."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from ..baselines import lasso_fit, linmap_predict, ols_fit, ridge_fit
from ..core import (
    ENVELOPES,
    TARGET_FS,
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    PreprocessedRecord,
    RecordManifest,
    WaveConfig,
    WindowSet,
    refuse,
    write_csv,
)
from ..dsp import (
    WINDOW_SECONDS,
    design_bandpass,
    filtfilt,
    resample_linear,
    segment,
    window_length,
    zscore,
)
from ..errors import (
    DegenerateInput,
    NoWindowsAfterFilter,
    NumericalInstability,
    PwdReconError,
)
from ..metrics import window_metrics
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
from .plots import write_window_svg

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
    fecg = filtfilt(design_bandpass("butterworth"),
                    resample_linear(zscore(fecg), manifest.aecg_fs))

    n = min(fecg.size, env.shape[1])
    return PreprocessedRecord(record_id=manifest.record_id, fecg=fecg[:n],
                              env=env[:, :n],
                              wave_config=manifest.wave_config,
                              polarity=polarity)


def split(n: int) -> int:
    """How many of a record's n >= 2 windows train: the first TRAIN_RATIO
    of them, at least one and at most n - 1. The rest test."""
    return min(max(round(TRAIN_RATIO * n), 1), n - 1)


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
        refuse(self,
               ("window_s", self.window_s in WINDOW_SECONDS,
                f"one of {WINDOW_SECONDS}"),
               ("batch_size", self.batch_size >= 1, ">= 1"),
               ("seed", self.seed >= 0, ">= 0"),
               ("epochs", self.epochs >= 1, ">= 1"),
               ("kernel_size", self.kernel_size >= 1
                and self.kernel_size % 2 == 1, "odd and >= 1"),
               ("net_channels", all(c >= 1 for c in self.net_channels),
                ">= 1 in every entry"))
        if self.output_mode is OutputMode.PCA_SINGLE \
                and self.envelope_selection is not EnvelopeSelection.BOTH:
            raise ValueError("PCA-compressed output consumes both envelopes")

    @property
    def targets(self) -> tuple[str, ...]:
        """The names of the target's channels, in row order: envelopes
        by ENVELOPES name, or "pca" for the PCA-compressed envelope."""
        if self.output_mode is OutputMode.PCA_SINGLE:
            return ("pca",)
        return {EnvelopeSelection.UPPER: ENVELOPES[:1],
                EnvelopeSelection.LOWER: ENVELOPES[1:],
                EnvelopeSelection.BOTH: ENVELOPES}[self.envelope_selection]

    @property
    def out_channels(self) -> int:
        return len(self.targets)


def _target_channels(rec: PreprocessedRecord,
                     config: ExperimentConfig) -> np.ndarray:
    """The config's normalized training targets, as (C, n) rows in
    `config.targets` order."""
    if config.targets == ("pca",):
        return zscore(pca_compress_envelopes(rec.env)[None])
    return zscore(rec.env[[ENVELOPES.index(t) for t in config.targets]])


def _selected(records: list[PreprocessedRecord],
              config: ExperimentConfig) -> list[PreprocessedRecord]:
    """The records that pass the config's wave and polarity filters."""
    return [rec for rec in records
            if (config.wave_config is WaveConfig.GROUP
                or rec.wave_config is config.wave_config)
            and (config.polarity_filter is Polarity.GROUP
                 or rec.polarity is config.polarity_filter)]


def build_windows(records: list[PreprocessedRecord],
                  config: ExperimentConfig) -> tuple[WindowSet, WindowSet]:
    """Filter records per config, cut each into windows in time order
    and split them: returns (train, test). Records go in sorted
    record_id order, each giving its first split(n) of n >= 2 windows
    to train and the rest to test; a shorter record is left out."""
    L = window_length(config.window_s)
    sides: tuple[list, list] = ([], [])
    for rec in sorted(_selected(records, config), key=lambda r: r.record_id):
        if rec.fecg.size < 2 * L:  # split needs two windows a record
            continue
        try:
            targets = _target_channels(rec, config)
        except DegenerateInput:
            continue
        ws = segment(rec.fecg, targets, config.window_s)
        k = split(len(ws.x))
        for side, rows in zip(sides, (slice(k), slice(k, None))):
            side.append((ws.x[rows], ws.y[rows], ws.t_start[rows]))
    if not sides[0]:
        raise NoWindowsAfterFilter("no windows left after filtering")
    return tuple(WindowSet(*map(np.concatenate, zip(*side)))
                 for side in sides)


def _fit(config: ExperimentConfig, x: np.ndarray, y: np.ndarray):
    """Train the configured model; returns (model, training log). The
    network trains and predicts in float32, the one place its precision
    is chosen: half the bytes of float64 through every convolution."""
    if config.model is ModelKind.PWDRECNET:
        return train(x.astype(np.float32), y.astype(np.float32),
                     config.net_channels, config.kernel_size,
                     config.epochs, config.batch_size, config.seed, LR)
    Y = y.reshape(len(y), -1)
    if config.model is ModelKind.LINEAR:
        return ols_fit(x, Y), []
    if config.model is ModelKind.RIDGE:
        return ridge_fit(x, Y, RIDGE_LAM), []
    return lasso_fit(x, Y, LASSO_LAM), []


def evaluate(config: ExperimentConfig, model, test: WindowSet):
    """Predict the test windows with a fitted model and score them.

    `model` is the network's parameters or a baseline's LinearMap, as
    `config.model` says; a LinearMap that did not converge raises
    NumericalInstability, so no number comes from it. Returns
    (predictions (N, C, L), MetricReport).
    """
    if config.model is ModelKind.PWDRECNET:
        preds = predict(model, test.x)
    else:
        if not model.converged:
            raise NumericalInstability(
                f"{config.model.value} fit did not converge in "
                f"{model.n_iter} steps: relative duality gap {model.gap:.3g}")
        preds = linmap_predict(model, test.x).reshape(
            len(test.x), config.out_channels, -1)
    return preds, window_metrics(preds, test.y)


# `split` is always TimeBased, the one split protocol; the column keeps
# the file layout
METRICS_HEADER = ("window_s", "batch_size", "wave_config", "envelope",
                  "polarity", "output_mode", "model", "split", "seed",
                  "mean_r", "rendered_r", "mean_mse", "n_windows",
                  "n_excluded")


def run_experiment(config: ExperimentConfig,
                   records: list[PreprocessedRecord],
                   out_dir: str | None = None):
    """Execute one ablation cell; returns (MetricReport, fitted model)."""
    train_set, test_set = build_windows(records, config)
    model, log = _fit(config, train_set.x, train_set.y)
    preds, report = evaluate(config, model, test_set)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "metrics.csv"), METRICS_HEADER, [(
            config.window_s, config.batch_size, config.wave_config.value,
            config.envelope_selection.value, config.polarity_filter.value,
            config.output_mode.value, config.model.value, "TimeBased",
            config.seed, f"{report.mean_r:.6f}", report.rendered_r,
            f"{report.mean_mse:.6f}", report.n_windows, report.n_excluded)])
        write_csv(os.path.join(out_dir, "training_log.csv"),
                  ("epoch", "train_loss", "val_loss", "steps"),
                  [(e["epoch"], f"{e['train_loss']:.9g}",
                    f"{e['val_loss']:.9g}", e["steps"]) for e in log])
        for i, (x, y, t0, pred) in enumerate(zip(
                test_set.x[:3], test_set.y, test_set.t_start, preds)):
            t = t0 + np.arange(x.size) / TARGET_FS
            traces = {"fecg": x}
            for name, true, predicted in zip(config.targets, y, pred):
                traces[f"true_{name}"] = true
                traces[f"pred_{name}"] = predicted
            stem = os.path.join(out_dir, f"window{i}")
            write_csv(stem + ".csv", ("time", *traces), zip(
                [f"{v:.6f}" for v in t],
                *([f"{v:.9g}" for v in tr] for tr in traces.values())))
            write_window_svg(stem + ".svg", t, traces)
    return report, model


# --- ablation grids --------------------------------------------------------

def _axis(field: str, values, prefix: str) -> list[tuple[str, dict]]:
    """One config field's values as (label, change) pairs, labelled
    `<prefix><value>`, an enum member by its value."""
    return [(prefix + str(getattr(v, "value", v)), {field: v})
            for v in values]


def _cross(outer: list, inner: list) -> list[tuple[str, dict]]:
    """Every pair of an outer and an inner entry, labelled `outer/inner`."""
    return [(f"{lo}/{li}", {**co, **ci}) for lo, co in outer
            for li, ci in inner]


_WAVES = _axis("wave_config", WaveConfig, "")
_T2 = _axis("window_s", (0.75, 2.0), "t=")

# name -> (rows, columns) of the six reported study tables; a cell changes
# its row's and its column's fields of the base config
GRIDS = {
    "table1": (_axis("window_s", (0.25, 0.5, 0.75, 1.0, 2.0), "t="),
               _axis("batch_size", (32, 64, 128, 256, 512), "batch=")),
    "table2": (_WAVES, _axis("window_s", (0.75, 1.0, 2.0), "t=")),
    "table3": (_cross(_WAVES, _axis("envelope_selection", EnvelopeSelection,
                                    "")),
               [("r", {"window_s": 2.0})]),
    "table4": (_cross(_axis("polarity_filter", Polarity, ""), _WAVES), _T2),
    "table5": (_cross(_axis("output_mode", OutputMode, ""), _WAVES), _T2),
    "table6": (_cross(_axis("model", (ModelKind.LINEAR, ModelKind.RIDGE,
                                      ModelKind.LASSO, ModelKind.PWDRECNET),
                            ""), _WAVES),
               [("r (t=0.75)", {"window_s": 0.75})]),
}
GRID_NAMES = tuple(GRIDS)


def grid_cells(name: str, base: ExperimentConfig):
    """Yield (row_label, col_label, config) for a named grid, row-major:
    25, 9, 9, 18, 12 and 12 cells for table1..table6. A cell the base
    cannot take is a ValueError naming the grid and the row."""
    rows, cols = GRIDS[name]
    for row, row_change in rows:
        for col, col_change in cols:
            try:
                config = replace(base, **row_change, **col_change)
            except ValueError as exc:
                raise ValueError(f"{name} row {row}: {exc}") from None
            yield row, col, config


@dataclass(frozen=True)
class GridFile:
    """An ablation grid file: the grids to run, over a base config."""

    grids: tuple[str, ...]
    base: ExperimentConfig = ExperimentConfig()

    def __post_init__(self):
        for name in self.grids:
            if name not in GRIDS:
                raise ValueError(f"GridFile.grids: unknown grid {name!r}")
            list(grid_cells(name, self.base))  # refuse a bad cell up front


def _cell_key(config: ExperimentConfig,
              records: list[PreprocessedRecord]) -> tuple:
    """Everything a cell's value depends on: the records the filters
    select, the fields that cut and target the windows, the model, and
    for the network the fields that train it. A baseline reads none of
    the network's fields."""
    key = (tuple(sorted(rec.record_id for rec in _selected(records, config))),
           config.window_s, config.envelope_selection, config.output_mode,
           config.model)
    if config.model is ModelKind.PWDRECNET:
        key += (config.batch_size, config.epochs, config.net_channels,
                config.kernel_size, config.seed)
    return key


def run_ablation(name: str, records: list[PreprocessedRecord],
                 base: ExperimentConfig, out_dir: str, cache: dict):
    """Run every cell of a named grid; failures become marker cells.

    `cache` maps a cell key (_cell_key) to the cell's string. Pass one
    dict to every grid run on the same records: a cell whose key is in
    it takes that string and is not fitted again, so each distinct fit
    runs once.
    Returns (rows, cols, cell strings dict) and writes `<name>.csv` in
    out_dir, in the paper's row-by-column layout.
    """
    rows, cols = ([label for label, _ in axis] for axis in GRIDS[name])
    cells: dict[tuple[str, str], str] = {}
    for row, col, config in grid_cells(name, base):
        key = _cell_key(config, records)
        if key not in cache:
            try:
                cache[key] = run_experiment(config, records)[0].rendered_r
            except NoWindowsAfterFilter:
                cache[key] = "-"
            except PwdReconError:
                cache[key] = "x"
        cells[(row, col)] = cache[key]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, f"{name}.csv"), ("", *cols),
              [(row, *(cells[(row, c)] for c in cols)) for row in rows])
    return rows, cols, cells
