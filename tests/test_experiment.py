import dataclasses
import os
import warnings

import numpy as np
import pytest

from pwdrecon import baselines, separation
from pwdrecon.core import (
    TARGET_FS,
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    WaveConfig,
    WindowSet,
)
from pwdrecon.errors import (
    NonFinitePrediction,
    NoWindowsAfterFilter,
    NumericalInstability,
)
from pwdrecon.harness import experiment
from pwdrecon.harness.experiment import (
    GRID_NAMES,
    ExperimentConfig,
    PreprocessedRecord,
    build_windows,
    experiment_windows,
    grid_cells,
    preprocess_record,
    run_ablation,
    run_experiment,
    split,
)
from pwdrecon.harness.io import (
    load_preprocessed,
    load_record,
    save_preprocessed,
)
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic
from pwdrecon.net.model import init_params
from pwdrecon.separation import FETAL_RATE_HZ, MIN_BEAT_STRENGTH

FAST = dict(epochs=2, net_channels=(2, 4, 8), kernel_size=3)


def _windows(n_per_record, records=("a", "b"), L=8):
    rng = np.random.default_rng(0)
    n = n_per_record * len(records)
    return WindowSet(x=rng.normal(size=(n, L)), y=rng.normal(size=(n, 2, L)),
                     t_start=np.tile(np.arange(n_per_record, dtype=float),
                                     len(records)),
                     record_id=np.repeat(records, n_per_record))


def test_split_time_based_is_per_record_prefix():
    ws = _windows(5)
    train, test = split(ws)
    assert len(train) == 8 and len(test) == 2
    for rid in ("a", "b"):
        tr = ws.t_start[train][ws.record_id[train] == rid]
        te = ws.t_start[test][ws.record_id[test] == rid]
        assert max(tr) < min(te)  # later windows go to test


def test_split_extremes_keep_both_sides_nonempty():
    ws = _windows(2)  # round(0.8 * 2) = 2 train windows, clamped to 1
    train, test = split(ws)
    assert all(np.sum(ws.record_id[s] == r) == 1
               for r in ("a", "b") for s in (train, test))


def test_config_validation_and_out_channels():
    assert ExperimentConfig().out_channels == 2
    assert ExperimentConfig(
        envelope_selection=EnvelopeSelection.UPPER).out_channels == 1
    assert ExperimentConfig(
        output_mode=OutputMode.PCA_SINGLE).out_channels == 1
    with pytest.raises(ValueError):
        ExperimentConfig(output_mode=OutputMode.PCA_SINGLE,
                         envelope_selection=EnvelopeSelection.UPPER)


@pytest.mark.parametrize("field, value", [
    ("window_s", 1.5), ("batch_size", -1), ("batch_size", 0), ("epochs", 0),
    ("kernel_size", 4), ("kernel_size", -1), ("net_channels", (16, 0, 64)),
    ("seed", -1),
])
def test_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=f"^ExperimentConfig.{field}: "):
        ExperimentConfig(**{field: value})


def test_build_windows_filters_and_targets(small_dataset):
    _, _, records = small_dataset
    cfg = ExperimentConfig(window_s=2.0)
    ws = build_windows(records, cfg)
    assert len(ws) and ws.y.shape == (len(ws), 2, 568)
    # targets are z-scored per record
    for rid in set(ws.record_id):
        chan = ws.y[ws.record_id == rid, 0].ravel()
        assert abs(chan.mean()) < 0.2 and 0.5 < chan.std() < 1.5

    upper_only = build_windows(records, ExperimentConfig(
        window_s=2.0, envelope_selection=EnvelopeSelection.UPPER))
    assert upper_only.y.shape[1:] == (1, 568)

    # all records here are EA+; filtering on EA- leaves nothing
    with pytest.raises(NoWindowsAfterFilter):
        build_windows(records, ExperimentConfig(
            window_s=2.0, wave_config=WaveConfig.EA_MINUS))


@pytest.mark.parametrize("mode", list(OutputMode), ids=lambda m: m.value)
def test_build_windows_skips_record_with_constant_envelopes(mode):
    rng = np.random.default_rng(3)
    n = int(4 * TARGET_FS)

    def record(rid, upper, lower):
        return PreprocessedRecord(rid, rng.normal(size=n),
                                  np.array([upper, lower]),
                                  WaveConfig.EA_PLUS, Polarity.POSITIVE)

    flat = record("flat", np.zeros(n), np.zeros(n))
    good = record("good", rng.normal(size=n), rng.normal(size=n))
    ws = build_windows([flat, good],
                       ExperimentConfig(window_s=1.0, output_mode=mode))
    assert set(ws.record_id) == {"good"} and len(ws) == 4
    assert ws.y.shape[1] == (1 if mode is OutputMode.PCA_SINGLE else 2)


def test_build_windows_leaves_out_a_one_window_record():
    """split needs 2 windows a record; a record with 1 never reaches it."""
    rng = np.random.default_rng(4)

    def record(rid, seconds):
        n = int(seconds * TARGET_FS)
        fecg, up, lo = (rng.normal(size=n) for _ in range(3))
        return PreprocessedRecord(rid, fecg, np.array([up, lo]),
                                  WaveConfig.EA_PLUS, Polarity.POSITIVE)

    cfg = ExperimentConfig(window_s=1.0)
    ws = build_windows([record("one", 1.5), record("two", 2.0)], cfg)
    assert list(ws.record_id) == ["two", "two"]
    with pytest.raises(NoWindowsAfterFilter):
        build_windows([record("one", 1.5)], cfg)


def test_run_experiment_baseline_and_artifacts(small_dataset, tmp_path):
    _, _, records = small_dataset
    out = str(tmp_path / "run")
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE, **FAST)
    report, model = run_experiment(cfg, records, out_dir=out)
    _, _, test_idx = experiment_windows(cfg, records)
    assert report.n_windows == len(test_idx)
    assert model.weight.shape == (2 * 284, 284)
    assert -1.0 <= report.mean_r <= 1.0
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "training_log.csv"))
    assert os.path.exists(os.path.join(out, "window0.csv"))
    assert os.path.exists(os.path.join(out, "window0.svg"))
    with open(os.path.join(out, "metrics.csv")) as fh:
        header, row = fh.read().strip().split("\n")
    assert header.startswith("window_s,")
    assert row.startswith("1.0,")


def test_run_experiment_net_smoke(small_dataset, tmp_path):
    _, _, records = small_dataset
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.PWDRECNET, **FAST)
    report, model = run_experiment(cfg, records, out_dir=str(tmp_path))
    with open(tmp_path / "training_log.csv") as fh:
        assert len(fh.read().splitlines()) == 1 + 2  # header, 2 epochs
    # the network the config describes, in init_params' order
    net = init_params((2, 4, 8), 3, 2, seed=0)
    assert [(n, a.shape) for n, a in model.items()] == \
        [(n, a.shape) for n, a in net.items()]


def test_preprocessed_record_properties(small_dataset):
    _, manifests, records = small_dataset
    for m, rec in zip(manifests, records):
        assert rec.fecg.shape == (rec.env.shape[1],)
        assert rec.env.shape[0] == 2
        assert rec.wave_config is m.wave_config
        assert rec.polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
        assert abs(rec.fecg.mean()) < 0.1


def test_preprocess_record_refuses_a_bad_baseline_row_before_fecg_work(
        small_dataset, monkeypatch):
    out, manifests, _ = small_dataset
    rows, img = load_record(manifests[0], out)
    height = img.shape[0]

    def extraction(*args, **kwargs):
        raise AssertionError("the fECG path ran")

    monkeypatch.setattr(experiment, "extract_fecg", extraction)
    m = dataclasses.replace(manifests[0], image_baseline_row=height - 1)
    with pytest.raises(ValueError, match=f"{height}-row image, "
                                         f"got {height - 1}$"):
        preprocess_record(rows, img, m, seed=0)


def test_save_load_preprocessed_roundtrip(small_dataset, tmp_path):
    _, _, records = small_dataset
    out = str(tmp_path / "prep")
    save_preprocessed(out, records)
    loaded = load_preprocessed(out)
    assert [r.record_id for r in loaded] == [r.record_id for r in records]
    for a, b in zip(records, loaded):
        assert a.wave_config is b.wave_config and a.polarity is b.polarity
        # only float32 quantization differs
        assert np.allclose(a.fecg, b.fecg, atol=1e-5)
        assert np.allclose(a.env[0], b.env[0], atol=1e-4)


GRID_SIZES = {"table1": 25, "table2": 9, "table3": 9, "table4": 18,
              "table5": 12, "table6": 12}


def test_grid_cell_counts():
    base = ExperimentConfig()
    for name in GRID_NAMES:
        cells = list(grid_cells(name, base))
        assert len(cells) == GRID_SIZES[name], name
        # labels are unique per cell
        assert len({(r, c) for r, c, _ in cells}) == GRID_SIZES[name]
    with pytest.raises(ValueError):
        list(grid_cells("table7", base))


def test_run_ablation_writes_csv_with_markers(small_dataset, tmp_path):
    _, _, records = small_dataset
    out = str(tmp_path / "abl")
    base = ExperimentConfig(model=ModelKind.RIDGE, **FAST)
    rows, cols, cells = run_ablation("table2", records, out_dir=out,
                                     base=base)
    assert len(cells) == 9
    path = os.path.join(out, "table2.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 1 + len(rows)
    assert lines[0] == "," + ",".join(cols)
    # all records are EA+: the EA- row must be all "-" markers
    ea_minus_line = [l for l in lines if l.startswith("EA-")][0]
    assert ea_minus_line.split(",")[1:] == ["-"] * len(cols)
    # EA+ rows contain rendered correlations
    ea_plus_line = [l for l in lines if l.startswith("EA+")][0]
    assert all(c not in ("-", "x") for c in ea_plus_line.split(",")[1:])


def _unconverged_lasso(monkeypatch):
    """Every lasso fit stops after one step, far from its solution."""
    monkeypatch.setattr(baselines, "LASSO_MAX_ITER", 1)


def _nan_predictions(monkeypatch):
    monkeypatch.setattr(experiment, "linmap_predict",
                        lambda m, x: np.full((len(x), len(m.bias)), np.nan))


@pytest.mark.parametrize("fault, model, error, match", [
    (_unconverged_lasso, ModelKind.LASSO, NumericalInstability,
     "Lasso fit did not converge in 1 steps: relative duality gap"),
    (_nan_predictions, ModelKind.RIDGE, NonFinitePrediction,
     "predicted samples are NaN or infinite")],
    ids=["unconverged-lasso", "nan-prediction"])
def test_untrustworthy_fit_gives_no_number(fault, model, error, match,
                                           small_dataset, monkeypatch):
    """No table number from an unconverged baseline or a NaN prediction:
    the experiment raises, and its grid cells become failure markers."""
    _, _, records = small_dataset
    fault(monkeypatch)
    base = ExperimentConfig(model=model, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lasso's own warning
        with pytest.raises(error, match=match):
            run_experiment(base, records)
        _, cols, cells = run_ablation("table2", records, base=base)
    # all records are EA+: EA- cells have no windows, the rest fail
    assert [cells[("EA+", c)] for c in cols] == ["x"] * 3
    assert [cells[("EA-", c)] for c in cols] == ["-"] * 3


# The benchmark's ablate_all set at seed 1604 (np.random.SeedSequence(1604)
# draws the two synth seeds): its record neg-rec000 has two ICA sources in
# the fetal band.
PERTURBED_SET = {
    "pos": SyntheticSpec(n_records=2, duration_s=10.0, seed=2320802988,
                         wave_config=WaveConfig.EA_PLUS, fecg_polarity=1),
    "neg": SyntheticSpec(n_records=2, duration_s=10.0, seed=314377722,
                         wave_config=WaveConfig.EA_MINUS, fecg_polarity=-1)}
# Rescaling the loaded rows by 1 + 1e-12 u moved no cell's mean r by more
# than 6.4e-13. A cell prints r to 4 decimals, so it can change only where
# r lies that close to a rounding boundary, and then by one printed step.
CELL_DRIFT = 1e-4


def _cell_kind(cell):
    return cell if cell in ("-", "+", "x") else "number"


def test_grid_cells_survive_round_off_perturbation_of_the_input(
        tmp_path, monkeypatch):
    manifests = {g: generate_synthetic(spec, str(tmp_path / g))
                 for g, spec in PERTURBED_SET.items()}
    beat_rate, rates = separation._beat_rate, []

    def recorded_beat_rate(x, fs):
        rates.append(beat_rate(x, fs))
        return rates[-1]

    monkeypatch.setattr(separation, "_beat_rate", recorded_beat_rate)

    def cells(scale):
        records = []
        for g, ms in manifests.items():
            for m in ms:
                rows, img = load_record(m, str(tmp_path / g))
                records.append(preprocess_record(
                    rows * scale(rows.shape), img, dataclasses.replace(
                        m, record_id=f"{g}-{m.record_id}"), seed=0))
        base = ExperimentConfig(model=ModelKind.RIDGE, **FAST)
        return {(name, *key): cell for name in ("table3", "table6")
                for key, cell in run_ablation(name, records, base)[2].items()}

    plain = cells(lambda shape: 1.0)
    # two sources per record, so consecutive pairs of rates
    fetal = [est is not None and FETAL_RATE_HZ[0] <= est[0] <= FETAL_RATE_HZ[1]
             and est[1] >= MIN_BEAT_STRENGTH for est in rates]
    assert any(fetal[i] and fetal[i + 1] for i in range(0, len(fetal), 2))
    rng = np.random.default_rng(0)
    perturbed = cells(lambda shape: 1.0 + 1e-12 * rng.uniform(-1, 1, shape))

    assert plain.keys() == perturbed.keys()
    for key, cell in plain.items():
        other = perturbed[key]
        assert _cell_kind(cell) == _cell_kind(other), (key, cell, other)
        if _cell_kind(cell) == "number":
            assert abs(float(cell) - float(other)) <= CELL_DRIFT + 1e-12, \
                (key, cell, other)
