import dataclasses
import filecmp
import json
import os
import re
import warnings

import numpy as np
import pytest

from pwdrecon import baselines, separation
from pwdrecon.cli import main as cli_main
from pwdrecon.core import (
    TARGET_FS,
    EnvelopeSelection,
    ModelKind,
    OutputMode,
    Polarity,
    WaveConfig,
    to_json_dict,
)
from pwdrecon.dsp import window_length
from pwdrecon.errors import (
    NoWindowsAfterFilter,
    NumericalInstability,
)
from pwdrecon.harness import experiment
from pwdrecon.harness.experiment import (
    GRID_NAMES,
    GRIDS,
    ExperimentConfig,
    GridFile,
    PreprocessedRecord,
    build_windows,
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


def _record(rid, seconds, seed=0):
    """An EA+, positive-polarity record of random streams."""
    rng = np.random.default_rng(seed)
    n = int(seconds * TARGET_FS)
    fecg, up, lo = (rng.normal(size=n) for _ in range(3))
    return PreprocessedRecord(rid, fecg, np.array([up, lo]),
                              WaveConfig.EA_PLUS, Polarity.POSITIVE)


def _arrays(sets):
    """Every array of a (train, test) pair, for a bit-for-bit comparison."""
    return [(getattr(ws, f).shape, getattr(ws, f).tobytes())
            for ws in sets for f in ("x", "y", "t_start")]


def test_split_time_based_is_per_record_prefix():
    """Each record gives its first split(n) windows to train and the rest
    to test, records in sorted id order."""
    seconds = {"c": 5.5, "a": 2.0, "d": 10.0, "b": 3.2}
    records = [_record(rid, s, seed=i)
               for i, (rid, s) in enumerate(seconds.items())]
    train, test = build_windows(records, ExperimentConfig(window_s=1.0))
    L = window_length(1.0)
    at = [0, 0]
    for rec in sorted(records, key=lambda r: r.record_id):
        n = rec.fecg.size // L
        k = split(n)
        for side, ws, rows in ((0, train, range(k)), (1, test, range(k, n))):
            got = slice(at[side], at[side] + len(rows))
            assert np.array_equal(ws.t_start[got],
                                  np.array(rows) * L / TARGET_FS)
            assert np.array_equal(ws.x[got], rec.fecg[
                rows.start * L:rows.stop * L].reshape(-1, L))
            at[side] += len(rows)
    assert at == [len(train.x), len(test.x)] == [1 + 2 + 4 + 8, 1 + 1 + 1 + 2]


def test_split_extremes_keep_both_sides_nonempty():
    assert [split(n) for n in (2, 3, 4, 5, 10)] == [1, 2, 3, 4, 8]
    for n in range(2, 500):
        assert 1 <= split(n) <= n - 1
        assert split(n) == min(round(0.8 * n), n - 1)


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
    train, test = build_windows(records, cfg)
    assert len(train.x) and len(test.x)
    assert train.y.shape[1:] == test.y.shape[1:] == (2, 568)
    # targets are z-scored per record
    for rec in records:
        chan = np.concatenate([ws.y[:, 0].ravel()
                               for ws in build_windows([rec], cfg)])
        assert abs(chan.mean()) < 0.2 and 0.5 < chan.std() < 1.5

    upper_only = build_windows(records, ExperimentConfig(
        window_s=2.0, envelope_selection=EnvelopeSelection.UPPER))
    assert all(ws.y.shape[1:] == (1, 568) for ws in upper_only)

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
    cfg = ExperimentConfig(window_s=1.0, output_mode=mode)
    train, test = build_windows([flat, good], cfg)
    assert _arrays((train, test)) == _arrays(build_windows([good], cfg))
    assert (len(train.x), len(test.x)) == (3, 1)
    assert train.y.shape[1] == (1 if mode is OutputMode.PCA_SINGLE else 2)


def _grid_windows(records):
    """Yield (config, (train, test)) for every grid cell with windows."""
    for name in GRIDS:
        for _, _, config in grid_cells(name, ExperimentConfig()):
            try:
                yield config, build_windows(records, config)
            except NoWindowsAfterFilter:
                continue


def test_build_windows_lays_out_what_window_set_and_split_rely_on(
        small_dataset):
    """WindowSet checks no shape: in every grid cell, build_windows gives
    the shapes WindowSet documents, and lays out each side as the records'
    own sides one after another, in sorted id order, each record's
    windows in time order."""
    _, _, records = small_dataset
    built = 0
    for config, sets in _grid_windows(records):
        L = window_length(config.window_s)
        for ws in sets:
            n = len(ws.x)
            assert n and ws.x.shape == (n, L)
            assert ws.y.shape == (n, config.out_channels, L)
            assert ws.t_start.shape == (n,)
        want = ([], [])
        for rec in sorted(records, key=lambda r: r.record_id):
            try:
                own = build_windows([rec], config)
            except NoWindowsAfterFilter:
                continue
            t = np.concatenate([ws.t_start for ws in own])
            assert np.all(np.diff(t) > 0)
            for side, ws in zip(want, own):
                side.append(ws)
        for ws, side in zip(sets, want):
            for f in ("x", "y", "t_start"):
                assert np.array_equal(getattr(ws, f), np.concatenate(
                    [getattr(part, f) for part in side]))
        built += 1
    assert built


def test_build_windows_ignores_the_order_records_come_in(small_dataset):
    _, _, records = small_dataset
    forward = list(_grid_windows(records))
    backward = list(_grid_windows(records[::-1]))
    assert [c for c, _ in forward] == [c for c, _ in backward]
    for (_, sets), (_, reversed_sets) in zip(forward, backward):
        assert _arrays(sets) == _arrays(reversed_sets)
    assert forward


def test_build_windows_leaves_out_a_one_window_record():
    """split needs 2 windows a record; a record with 1 never reaches it."""
    cfg = ExperimentConfig(window_s=1.0)
    one, two = _record("one", 1.5, seed=4), _record("two", 2.0, seed=5)
    train, test = build_windows([one, two], cfg)
    assert len(train.x) == len(test.x) == 1
    assert _arrays((train, test)) == _arrays(build_windows([two], cfg))
    with pytest.raises(NoWindowsAfterFilter):
        build_windows([one], cfg)


def test_run_experiment_baseline_and_artifacts(small_dataset, tmp_path):
    _, _, records = small_dataset
    out = str(tmp_path / "run")
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE, **FAST)
    report, model = run_experiment(cfg, records, out_dir=out)
    _, test = build_windows(records, cfg)
    assert report.n_windows == len(test.x)
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


@pytest.mark.parametrize("change, names, colors", [
    ({}, "true_upper,pred_upper,true_lower,pred_lower",
     ("#bfa800", "#800000", "#2ca02c", "#7f00ff")),
    ({"envelope_selection": EnvelopeSelection.LOWER},
     "true_lower,pred_lower", ("#2ca02c", "#7f00ff")),
    ({"output_mode": OutputMode.PCA_SINGLE}, "true_pca,pred_pca",
     ("#ff7f0e", "#000000")),
], ids=["both", "lower", "pca"])
def test_window_files_name_the_target_channels(change, names, colors,
                                               small_dataset, tmp_path):
    _, _, records = small_dataset
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE, **FAST,
                           **change)
    run_experiment(cfg, records, out_dir=str(tmp_path))
    with open(tmp_path / "window0.csv") as fh:
        assert fh.readline() == f"time,fecg,{names}\n"
    svg = (tmp_path / "window0.svg").read_text()
    strokes = re.findall(r'stroke="(#[0-9a-f]{6})"', svg)
    assert strokes == ["#1f77b4", *colors]  # the fECG, then the targets


def test_run_experiment_net_smoke(small_dataset, tmp_path):
    _, _, records = small_dataset
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.PWDRECNET, **FAST)
    report, model = run_experiment(cfg, records, out_dir=str(tmp_path))
    with open(tmp_path / "training_log.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 2  # header, 2 epochs
    assert lines[0] == "epoch,train_loss,val_loss,steps"
    # every fitted window fits in one batch of 128: one step an epoch
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "1"]
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
    with pytest.raises(ValueError, match="unknown grid 'table7'"):
        GridFile(grids=("table7",))


_WAVES = ("EA+", "EA-", "Group")
_T2 = (0.75, 2.0)
# The six study layouts, written out apart from GRIDS: each grid's row
# labels, column labels, the fields every cell sets, and their values
# cell by cell, row-major, in to_json_dict's form.
STUDY_GRIDS = {
    "table1": (
        ["t=0.25", "t=0.5", "t=0.75", "t=1.0", "t=2.0"],
        ["batch=32", "batch=64", "batch=128", "batch=256", "batch=512"],
        ("window_s", "batch_size"),
        [(t, b) for t in (0.25, 0.5, 0.75, 1.0, 2.0)
         for b in (32, 64, 128, 256, 512)]),
    "table2": (
        ["EA+", "EA-", "Group"], ["t=0.75", "t=1.0", "t=2.0"],
        ("wave_config", "window_s"),
        [(w, t) for w in _WAVES for t in (0.75, 1.0, 2.0)]),
    "table3": (
        ["EA+/Upper", "EA+/Lower", "EA+/Both", "EA-/Upper", "EA-/Lower",
         "EA-/Both", "Group/Upper", "Group/Lower", "Group/Both"], ["r"],
        ("wave_config", "envelope_selection", "window_s"),
        [(w, e, 2.0) for w in _WAVES for e in ("Upper", "Lower", "Both")]),
    "table4": (
        ["+ve/EA+", "+ve/EA-", "+ve/Group", "-ve/EA+", "-ve/EA-",
         "-ve/Group", "Group/EA+", "Group/EA-", "Group/Group"],
        ["t=0.75", "t=2.0"],
        ("polarity_filter", "wave_config", "window_s"),
        [(p, w, t) for p in ("+ve", "-ve", "Group") for w in _WAVES
         for t in _T2]),
    "table5": (
        ["Original/EA+", "Original/EA-", "Original/Group", "PcaSingle/EA+",
         "PcaSingle/EA-", "PcaSingle/Group"], ["t=0.75", "t=2.0"],
        ("output_mode", "wave_config", "window_s"),
        [(o, w, t) for o in ("Original", "PcaSingle") for w in _WAVES
         for t in _T2]),
    "table6": (
        ["Linear/EA+", "Linear/EA-", "Linear/Group", "Ridge/EA+",
         "Ridge/EA-", "Ridge/Group", "Lasso/EA+", "Lasso/EA-", "Lasso/Group",
         "PwDRecNet/EA+", "PwDRecNet/EA-", "PwDRecNet/Group"],
        ["r (t=0.75)"],
        ("model", "wave_config", "window_s"),
        [(m, w, 0.75) for m in ("Linear", "Ridge", "Lasso", "PwDRecNet")
         for w in _WAVES]),
}


@pytest.mark.parametrize("base", [
    ExperimentConfig(),
    ExperimentConfig(model=ModelKind.RIDGE, epochs=2, net_channels=(2, 4, 8),
                     kernel_size=3)], ids=["default", "benchmark"])
def test_grids_keep_the_study_layouts(base):
    assert GRID_NAMES == tuple(STUDY_GRIDS)
    for name, (rows, cols, fields, values) in STUDY_GRIDS.items():
        assert [[label for label, _ in axis] for axis in GRIDS[name]] \
            == [rows, cols], name
        cells = list(grid_cells(name, base))
        assert [(r, c) for r, c, _ in cells] \
            == [(r, c) for r in rows for c in cols], name
        assert [to_json_dict(config) for _, _, config in cells] \
            == [{**to_json_dict(base), **dict(zip(fields, v))}
                for v in values], name


def test_run_ablation_writes_csv_with_markers(small_dataset, tmp_path):
    _, _, records = small_dataset
    out = str(tmp_path / "abl")
    base = ExperimentConfig(model=ModelKind.RIDGE, **FAST)
    rows, cols, cells = run_ablation("table2", records, out_dir=out,
                                     base=base, cache={})
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
    (_nan_predictions, ModelKind.RIDGE, NumericalInstability,
     "predicted samples are NaN or infinite")],
    ids=["unconverged-lasso", "nan-prediction"])
def test_untrustworthy_fit_gives_no_number(fault, model, error, match,
                                           small_dataset, monkeypatch,
                                           tmp_path):
    """No table number from an unconverged baseline or a NaN prediction:
    the experiment raises, and its grid cells become failure markers."""
    _, _, records = small_dataset
    fault(monkeypatch)
    base = ExperimentConfig(model=model, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lasso's own warning
        with pytest.raises(error, match=match):
            run_experiment(base, records)
        _, cols, cells = run_ablation("table2", records, base=base,
                                      out_dir=str(tmp_path), cache={})
    # all records are EA+: EA- cells have no windows, the rest fail
    assert [cells[("EA+", c)] for c in cols] == ["x"] * 3
    assert [cells[("EA-", c)] for c in cols] == ["-"] * 3


def _mixed_records():
    """Random records whose envelopes follow the fECG, so each cell has
    its own r: two groups of wave and polarity, one record that crosses
    them, and a 3 s record that no 2 s window cell can use."""
    specs = (("a", WaveConfig.EA_PLUS, Polarity.POSITIVE, 10.0),
             ("b", WaveConfig.EA_MINUS, Polarity.NEGATIVE, 10.0),
             ("c", WaveConfig.EA_PLUS, Polarity.NEGATIVE, 10.0),
             ("d", WaveConfig.EA_MINUS, Polarity.NEGATIVE, 3.0))
    records = []
    for i, (rid, wave, polarity, seconds) in enumerate(specs):
        rng = np.random.default_rng(100 + i)
        fecg = rng.normal(size=int(seconds * TARGET_FS))
        env = np.array([fecg, -fecg]) + rng.normal(size=(2, fecg.size))
        records.append(PreprocessedRecord(rid, fecg, env, wave, polarity))
    return records


MIXED_BASE = ExperimentConfig(model=ModelKind.RIDGE, **FAST)


def _counted_fits(monkeypatch):
    """The configs run_ablation fits, in call order."""
    fits, run = [], experiment.run_experiment

    def counted(config, records, out_dir=None):
        fits.append(config)
        return run(config, records, out_dir)

    monkeypatch.setattr(experiment, "run_experiment", counted)
    return fits


def _distinct_fit(config, records):
    """What decides a cell, written out apart from the program: the
    records its filters select, the window and target fields and the
    model, and for the network the fields that train it."""
    ids = sorted(r.record_id for r in records
                 if config.wave_config in (WaveConfig.GROUP, r.wave_config)
                 and config.polarity_filter in (Polarity.GROUP, r.polarity))
    net = (config.batch_size, config.epochs, config.net_channels,
           config.kernel_size, config.seed) \
        if config.model is ModelKind.PWDRECNET else ()
    return (tuple(ids), config.window_s, config.envelope_selection,
            config.output_mode, config.model, *net)


def test_grid_cells_share_failure_markers_through_the_cache(
        small_dataset, monkeypatch, tmp_path):
    """A cell that takes its key's value from the cache takes an `x` or a
    `-` as it would a number: all records are EA+, so the Group row reads
    the EA+ row's fits."""
    _, _, records = small_dataset
    _unconverged_lasso(monkeypatch)
    fits = _counted_fits(monkeypatch)
    base = ExperimentConfig(model=ModelKind.LASSO, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lasso's own warning
        _, cols, cells = run_ablation("table2", records, base,
                                      str(tmp_path), {})
    assert [cells[(row, c)] for row in ("EA+", "Group") for c in cols] \
        == ["x"] * 6
    assert [cells[("EA-", c)] for c in cols] == ["-"] * 3
    assert len(fits) == 6


def test_ablate_writes_the_same_tables_with_one_cache_for_all_grids(
        tmp_path):
    """`pwdrecon ablate --grid all` shares one cache across the grids;
    every table is byte-identical to one run with a fresh cache per
    grid, where no grid reads another's fits."""
    data = str(tmp_path / "prep")
    save_preprocessed(data, _mixed_records())
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grids": list(GRID_NAMES),
                                "base": to_json_dict(MIXED_BASE)}))
    shared = str(tmp_path / "shared")
    assert cli_main(["ablate", "--grid", str(grid), "--data", data,
                     "--out", shared]) == 0
    records = load_preprocessed(data)
    fresh = str(tmp_path / "fresh")
    for name in GRID_NAMES:
        run_ablation(name, records, MIXED_BASE, fresh, {})
    files = [f"{name}.csv" for name in GRID_NAMES]
    assert filecmp.cmpfiles(shared, fresh, files, shallow=False)[0] == files


def test_ablate_fits_each_distinct_cell_once(monkeypatch, tmp_path):
    """The fits equal the distinct cells; table1's baseline rows repeat
    one fit across the five batch sizes; and every cell reads what its
    own fit gives."""
    records = _mixed_records()
    fits = _counted_fits(monkeypatch)
    run_ablation("table1", records, MIXED_BASE, str(tmp_path), {})
    assert len(fits) == 5
    fits.clear()
    cache, cells = {}, {}
    for name in GRID_NAMES:
        cells[name] = run_ablation(name, records, MIXED_BASE, str(tmp_path),
                                   cache)[2]
    configs = [c for name in GRID_NAMES
               for _, _, c in grid_cells(name, MIXED_BASE)]
    assert len(fits) == len({_distinct_fit(c, records) for c in configs})
    assert len({_distinct_fit(c, records) for c in fits}) == len(fits)
    assert len(fits) < len(configs)
    monkeypatch.undo()
    kinds = set()
    for name in GRID_NAMES:
        for row, col, config in grid_cells(name, MIXED_BASE):
            try:
                want = run_experiment(config, records)[0].rendered_r
            except NoWindowsAfterFilter:
                want = "-"
            assert cells[name][(row, col)] == want, (name, row, col)
            kinds.add(_cell_kind(want))
    assert kinds == {"-", "number"}


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
        out = str(tmp_path / "tables")
        return {(name, *key): cell for name in ("table3", "table6")
                for key, cell in run_ablation(name, records, base,
                                              out, {})[2].items()}

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
