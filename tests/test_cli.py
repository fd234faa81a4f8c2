import dataclasses
import json
import os
import re

import numpy as np
import pytest

from pwdrecon import baselines, separation
from pwdrecon.baselines import LinearMap
from pwdrecon.cli import main
from pwdrecon.core import ModelKind, to_json_dict, write_json
from pwdrecon.harness import experiment, io
from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.harness.io import load_model, save_model, save_preprocessed
from pwdrecon.separation import extract_fecg


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_train_seed_flag_lands_in_the_model_file(small_dataset, tmp_path,
                                                 capsys):
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    cfg = _write_json(tmp_path / "cfg.json",
                      {"window_s": 1.0, "model": "Ridge", "kernel_size": 3,
                       "seed": 5, "net_channels": [2, 4, 8]})
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", prep, "--out", str(run),
                 "--seed", "9"]) == 0
    capsys.readouterr()
    assert load_model(str(run / "model.npz"))[0] \
        == ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE,
                            kernel_size=3, seed=9, net_channels=(2, 4, 8))


def test_cli_full_pipeline(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"n_records": 3, "duration_s": 8.0, "seed": 1})
    ds = str(tmp_path / "ds")
    assert main(["synth", "--spec", spec, "--out", ds]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records"] == 3

    prep = str(tmp_path / "prep")
    assert main(["preprocess", "--manifest", os.path.join(ds, "records.json"),
                 "--out", prep, "--seed", "0"]) == 0
    assert os.path.exists(os.path.join(prep, "preprocessed.json"))
    capsys.readouterr()

    cfg = _write_json(tmp_path / "cfg.json",
                      {"window_s": 1.0, "epochs": 2,
                       "net_channels": [2, 4, 8], "kernel_size": 3})
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--data", prep,
                 "--out", run]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {"mean_r", "rendered_r", "mean_mse"} <= set(summary)
    assert os.path.exists(os.path.join(run, "model.npz"))
    assert not os.path.exists(os.path.join(run, "experiment.json"))

    assert main(["evaluate", "--model", os.path.join(run, "model.npz"),
                 "--data", prep]) == 0
    ev = json.loads(capsys.readouterr().out)
    # evaluating the saved checkpoint on the same split reproduces training
    assert ev["mean_r"] == pytest.approx(summary["mean_r"], abs=1e-9)

    abl = str(tmp_path / "abl")
    grid = _write_json(tmp_path / "grid.json",
                       {"base": {"model": "Ridge", "epochs": 1},
                        "grids": ["table2"]})
    assert main(["ablate", "--grid", grid, "--data", prep,
                 "--out", abl]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(abl, "table2.csv"))


@pytest.mark.parametrize("model", list(ModelKind),
                         ids=[m.value for m in ModelKind])
def test_evaluate_reproduces_train_for_every_model(model, small_dataset,
                                                   tmp_path, capsys):
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    cfg = _write_json(tmp_path / "cfg.json",
                      {"window_s": 0.25, "model": model.value, "epochs": 2,
                       "net_channels": [2, 4, 8], "kernel_size": 3})
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--data", prep,
                 "--out", run]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert main(["evaluate", "--model", os.path.join(run, "model.npz"),
                 "--data", prep]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["mean_r"] == trained["mean_r"]
    # the lasso's duality-gap certificate is part of the train result
    assert ("gap" in trained) == (model is ModelKind.LASSO)
    if model is ModelKind.LASSO:
        assert 0.0 <= trained["gap"] <= 1e-6


def test_unconverged_lasso_exits_2(small_dataset, tmp_path, capsys,
                                   monkeypatch):
    """train refuses to report a lasso that did not converge, and evaluate
    refuses a saved map that says it did not."""
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    cfg = _write_json(tmp_path / "cfg.json",
                      {"window_s": 0.25, "model": "Lasso"})
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--data", prep,
                 "--out", run]) == 0
    capsys.readouterr()
    model = os.path.join(run, "model.npz")
    config, fitted = load_model(model)
    save_model(config, dataclasses.replace(fitted, converged=False, gap=0.5),
               model)
    assert main(["evaluate", "--model", model, "--data", prep]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalInstability"
    assert "relative duality gap 0.5" in err["message"]

    monkeypatch.setattr(baselines, "LASSO_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="lasso did not converge"):
        rc = main(["train", "--config", cfg, "--data", prep,
                   "--out", str(tmp_path / "run1")])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "NumericalInstability"
    assert "relative duality gap" in err["message"]


def test_preprocess_error_names_the_record(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"n_records": 2, "duration_s": 10.0, "seed": 1,
                        "fetal_maternal_ratio": 0})
    ds = str(tmp_path / "ds")
    assert main(["synth", "--spec", spec, "--out", ds]) == 0
    capsys.readouterr()
    rc = main(["preprocess", "--manifest", os.path.join(ds, "records.json"),
               "--out", str(tmp_path / "prep"), "--seed", "0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoFetalComponent"
    assert err["message"].startswith("rec000: ")
    assert not os.path.exists(tmp_path / "prep")


def test_preprocess_refuses_an_unconverged_fastica(tmp_path, capsys,
                                                  monkeypatch):
    """No stream comes from an unmixing that did not converge: the warning
    stays, and the record and the stage are named."""
    spec = _write_json(tmp_path / "spec.json",
                       {"n_records": 2, "duration_s": 8.0, "seed": 1})
    ds = str(tmp_path / "ds")
    assert main(["synth", "--spec", spec, "--out", ds]) == 0
    capsys.readouterr()
    monkeypatch.setattr(separation, "FASTICA_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="FastICA component"):
        rc = main(["preprocess", "--manifest",
                   os.path.join(ds, "records.json"),
                   "--out", str(tmp_path / "prep"), "--seed", "0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalInstability"
    assert err["message"].startswith("rec000: FastICA did not converge: ")
    assert err["message"].endswith("at most 1 per component")
    assert not os.path.exists(tmp_path / "prep")


def test_preprocess_value_error_names_the_record(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"n_records": 2, "duration_s": 4.0, "seed": 1})
    ds = tmp_path / "ds"
    assert main(["synth", "--spec", spec, "--out", str(ds)]) == 0
    capsys.readouterr()
    manifest = ds / "records.json"
    entries = json.loads(manifest.read_text())
    entries[0]["image_baseline_row"] = 500  # below the 200-row image
    manifest.write_text(json.dumps(entries))
    rc = main(["preprocess", "--manifest", str(manifest),
               "--out", str(tmp_path / "prep"), "--seed", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "rec000: "
                   "image_baseline_row: must lie strictly inside the "
                   "200-row image, got 500"}
    assert not os.path.exists(tmp_path / "prep")


@pytest.mark.parametrize("row", [-3, 0])
def test_preprocess_refuses_a_baseline_row_above_the_image_on_loading(
        row, tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"n_records": 2, "duration_s": 4.0, "seed": 1})
    ds = tmp_path / "ds"
    assert main(["synth", "--spec", spec, "--out", str(ds)]) == 0
    capsys.readouterr()
    manifest = ds / "records.json"
    entries = json.loads(manifest.read_text())
    entries[1]["image_baseline_row"] = row
    manifest.write_text(json.dumps(entries))
    for name in os.listdir(ds):    # reading any record would now fail
        if name.endswith(".f32"):
            os.remove(ds / name)
    rc = main(["preprocess", "--manifest", str(manifest),
               "--out", str(tmp_path / "prep"), "--seed", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{manifest}: "
                   f"RecordManifest.image_baseline_row: must be >= 1, "
                   f"got {row}"}
    assert not os.path.exists(tmp_path / "prep")


def test_cli_error_paths(tmp_path, capsys):
    # missing manifest -> PwdReconError -> exit 2 with JSON on stderr
    rc = main(["preprocess", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "p")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileMissing"

    # malformed spec file -> exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n_records\": 0}")
    rc = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "ds")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


@pytest.mark.parametrize("command, body, field", [
    ("train", {"modle": "Ridge"}, "modle"),
    ("synth", {"n_recrods": 2}, "n_recrods"),
    ("ablate", {"base": {"epoch": 2}, "grids": ["table2"]}, "epoch"),
    ("ablate", {"bsae": {}, "grids": ["table2"]}, "bsae"),
    ("preprocess", [{"record_id": "r", "chanel_paths": []}], "chanel_paths"),
    ("train", {"model": "Ridgee"}, "model"),
    ("synth", {"wave_config": "EA"}, "wave_config"),
    ("train", {"batch_size": 12.5}, "batch_size"),
    ("train", {"batch_size": -1}, "batch_size"),
    ("train", {"batch_size": 0}, "batch_size"),
    ("train", {"epochs": 0}, "epochs"),
    ("train", {"kernel_size": 4}, "kernel_size"),
    ("train", {"window_s": 1.5}, "window_s"),
    ("ablate", {"base": {"batch_size": 0}, "grids": ["table2"]}, "batch_size"),
    ("ablate", {"base": {"model": "Ridge"}}, "grids"),
    ("train", {"model": "Ridge", "seed": -1}, "seed"),
    ("synth", {"seed": -2}, "seed"),
    ("ablate", {"base": {"seed": -1}, "grids": ["table2"]}, "seed"),
], ids=["train-key", "synth-key", "grid-base-key", "grid-key",
        "manifest-key", "enum-value", "spec-enum-value", "int-value",
        "negative-batch", "zero-batch", "zero-epochs", "even-kernel",
        "window-length", "grid-base-range", "grid-without-grids",
        "negative-seed", "spec-negative-seed", "grid-base-negative-seed"])
def test_cli_json_errors_name_the_field(command, body, field, tmp_path,
                                        capsys):
    path = _write_json(tmp_path / "in.json", body)
    flag = {"train": "--config", "synth": "--spec", "ablate": "--grid",
            "preprocess": "--manifest"}[command]
    argv = [command, flag, path, "--out", str(tmp_path / "out")]
    if command in ("train", "ablate"):
        argv += ["--data", str(tmp_path / "no-data")]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert repr(field) in err["message"] or f".{field}:" in err["message"]


@pytest.mark.parametrize("grids, bad", [
    (["table2", "tablex"], "tablex"),
    ("table1", "table1"),
], ids=["unknown-name", "bare-string"])
def test_cli_ablate_checks_grid_names_before_running(grids, bad, small_dataset,
                                                     tmp_path, capsys):
    _, _, records = small_dataset
    prep = str(tmp_path / "prep")
    save_preprocessed(prep, records)
    grid = _write_json(tmp_path / "grid.json",
                       {"base": {"model": "Ridge"}, "grids": grids})
    out = tmp_path / "abl"
    assert main(["ablate", "--grid", grid, "--data", prep,
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and repr(bad) in err["message"]
    assert not out.exists()  # no grid ran, so no CSV was written


RIDGE = ExperimentConfig(model=ModelKind.RIDGE, window_s=0.25)


def _cli_argv(command, tmp_path, **paths):
    """argv for `command` whose file flags default to valid or unread
    files in tmp_path; `paths` overrides them by flag name, and a flag
    set to None is left out. The model is the zero map of the shapes
    RIDGE implies: 2 x 71 outputs of 71 samples."""
    model = str(tmp_path / "model.npz")
    if not os.path.exists(model):
        save_model(RIDGE, LinearMap(weight=np.zeros((142, 71)),
                                    bias=np.zeros(142)), model)
    config = str(tmp_path / "ridge.json")
    write_json(config, RIDGE)
    flags = {"spec": None, "manifest": None, "grid": None,
             "model": model, "config": config,
             "data": str(tmp_path), "out": str(tmp_path / "out")}
    flags.update(paths)
    need = {"synth": ("spec", "out"), "preprocess": ("manifest", "out"),
            "train": ("config", "data", "out"),
            "evaluate": ("model", "data"),
            "ablate": ("grid", "data", "out")}[command]
    return [command] + [a for f in need if flags[f] is not None
                        for a in (f"--{f}", flags[f])]


@pytest.mark.parametrize("command, flag, name, text", [
    ("ablate", "grid", "grid.json", "7"),
    ("evaluate", "data", "preprocessed.json", "7"),
    ("preprocess", "manifest", "records.json", '{"a": 1}'),
    ("train", "config", "cfg.json", '{"epochs": 2,}'),
], ids=["grid-not-an-object", "preprocessed-not-a-list",
        "manifest-not-a-list", "syntax-error"])
def test_cli_bad_json_file_is_a_value_error_naming_it(command, flag, name,
                                                      text, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_text(text)
    given = str(tmp_path) if name == "preprocessed.json" else str(bad)
    assert main(_cli_argv(command, tmp_path, **{flag: given})) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}: ")


@pytest.mark.parametrize("command, flag, code, error", [
    ("preprocess", "manifest", 2, "FileMissing"),
    ("evaluate", "data", 2, "FileMissing"),
    ("evaluate", "model", 2, "FileMissing"),
    ("synth", "spec", 1, "FileNotFoundError"),
    ("train", "config", 1, "FileNotFoundError"),
    ("ablate", "grid", 1, "FileNotFoundError"),
], ids=["manifest", "preprocessed", "model", "spec", "config", "grid"])
def test_cli_missing_file_keeps_its_exit_code(command, flag, code, error,
                                              tmp_path, capsys):
    missing = str(tmp_path / "absent")
    argv = _cli_argv(command, tmp_path, **{flag: missing})
    assert main(argv) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and missing in err["message"]


def _store_config(model, config):
    """Replace the JSON config a model file holds with `config`, a dict."""
    with np.load(model) as z:
        arrays = dict(z)
    arrays["__config__"] = np.frombuffer(json.dumps(config).encode(),
                                         dtype=np.uint8)
    np.savez(model, **arrays)


@pytest.mark.parametrize("config, fault", [
    ({"model": "PwDRecNet"},
     "array enc0.conv0.w is missing, expected (16, 1, 7)"),
    ({"model": "Ridge", "window_s": 0.5},
     "array weight is (142, 71), expected (284, 142)"),
], ids=["other-family", "other-window"])
def test_cli_evaluate_refuses_a_model_its_config_does_not_describe(
        config, fault, tmp_path, capsys):
    """The config stored in the file must describe the arrays beside it."""
    argv = _cli_argv("evaluate", tmp_path)
    model = str(tmp_path / "model.npz")
    _store_config(model, config)
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ShapeMismatch", "message": f"{model}: {fault}"}


def test_cli_refuses_preprocessed_streams_not_at_284_hz(small_dataset,
                                                        tmp_path, capsys):
    _, _, records = small_dataset
    save_preprocessed(str(tmp_path), records)
    index = tmp_path / "preprocessed.json"
    entries = json.loads(index.read_text())
    entries[0]["fs"] = 100
    index.write_text(json.dumps(entries))
    assert main(_cli_argv("train", tmp_path)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"] == (f"{index}: PreprocessedIndexEntry.fs: "
                              "must be 284.0, got 100.0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    ("synth", "SyntheticSpec.seed: must be >= 0, got -1"),
    ("preprocess", "--seed: must be >= 0, got -1"),
    ("train", "ExperimentConfig.seed: must be >= 0, got -1"),
    ("ablate", "ExperimentConfig.seed: must be >= 0, got -1"),
], ids=["synth", "preprocess", "train", "ablate"])
def test_cli_refuses_a_negative_seed_flag(command, message, tmp_path, capsys):
    """Refused before any input is read: the manifest here is absent."""
    spec = _write_json(tmp_path / "spec.json", {"n_records": 1})
    argv = _cli_argv(command, tmp_path, spec=spec, grid="table2",
                     manifest=str(tmp_path / "absent.json"))
    assert main(argv + ["--seed", "-1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


def _manifest_entries(small_dataset):
    """The shared dataset's manifest entries, their files by absolute path."""
    out, manifests, _ = small_dataset
    entries = [to_json_dict(m) for m in manifests]
    for e in entries:
        e["channel_paths"] = [os.path.join(out, p) for p in e["channel_paths"]]
        e["image_path"] = os.path.join(out, e["image_path"])
    return entries


@pytest.mark.parametrize("rid", ["", ".", "..", "../escaped", "sub/rec",
                                 "sub\\rec", "rec\0"])
def test_preprocess_refuses_a_record_id_that_is_not_a_file_name(
        rid, small_dataset, tmp_path, capsys):
    entries = _manifest_entries(small_dataset)
    entries[1]["record_id"] = rid
    manifest = _write_json(tmp_path / "records.json", entries)
    prep = tmp_path / "prep"
    assert main(["preprocess", "--manifest", manifest,
                 "--out", str(prep)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{manifest}: "
                   f"RecordManifest.record_id: must be a file name, "
                   f"got {rid!r}"}
    assert sorted(os.listdir(tmp_path)) == ["records.json"]


def test_preprocess_refuses_a_repeated_record_id(small_dataset, tmp_path,
                                                  capsys):
    entries = _manifest_entries(small_dataset)
    entries[2]["record_id"] = entries[0]["record_id"]
    manifest = _write_json(tmp_path / "records.json", entries)
    assert main(["preprocess", "--manifest", manifest,
                 "--out", str(tmp_path / "prep")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{manifest}: "
                   "record_id 'rec000' appears more than once"}
    assert sorted(os.listdir(tmp_path)) == ["records.json"]


@pytest.mark.parametrize("rid, fault", [
    ("rec000", "record_id 'rec000' appears more than once"),
    ("../escaped", "PreprocessedIndexEntry.record_id: must be a file name, "
     "got '../escaped'"),
], ids=["repeated", "path"])
def test_train_refuses_an_index_whose_ids_cannot_name_streams(
        rid, fault, small_dataset, tmp_path, capsys, monkeypatch):
    _, _, records = small_dataset
    save_preprocessed(str(tmp_path), records)
    index = tmp_path / "preprocessed.json"
    entries = json.loads(index.read_text())
    entries[1]["record_id"] = rid
    index.write_text(json.dumps(entries))
    read = []
    monkeypatch.setattr(io, "read_raw_f32", lambda path: read.append(path))
    assert main(_cli_argv("train", tmp_path)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{index}: {fault}"}
    assert read == []  # refused before any stream is read
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("split", "TimeBased"), ("ratio", 0.8), ("lr", 1e-3), ("ridge_lam", 1.0),
    ("lasso_lam", 0.01),
], ids=["split", "ratio", "lr", "ridge_lam", "lasso_lam"])
def test_removed_config_keys_are_refused(key, value, tmp_path, capsys):
    """A model whose config holds a key from before the split, its ratio,
    the rate and the penalties became fixed is refused, naming the file
    and the key."""
    argv = _cli_argv("evaluate", tmp_path)
    model = str(tmp_path / "model.npz")
    _store_config(model, {**to_json_dict(RIDGE), key: value})
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{model}: "
                   f"ExperimentConfig: unknown field {key!r}"}


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("flag", ["--seed", "--config"],
                         ids=["seed", "config"])
def test_evaluate_has_no_seed_or_config_flag(flag, capsys):
    # evaluate draws nothing at random: the split is by time, and the
    # model's config and parameters come from its file
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", "m.npz", "--data", "d", flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_heredoc(name):
    """The JSON the README's quick start writes to `name`, as it is there."""
    with open(README) as fh:
        text = fh.read()
    found = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF\n",
                      text, re.S)
    assert found, f"README.md writes no {name}"
    return json.loads(found.group(1))


@pytest.fixture(scope="module")
def readme_raw(tmp_path_factory):
    """Step 1 of the README's quick start: synth with the README's spec."""
    root = tmp_path_factory.mktemp("readme")
    spec = _write_json(root / "spec.json", _readme_heredoc("spec.json"))
    raw = str(root / "data" / "raw")
    assert main(["synth", "--spec", spec, "--out", raw]) == 0
    return raw


def test_readme_rec012_extracts_its_fetal_source(readme_raw):
    """Regression example: the README's rec012 used to report half its
    fetal rate (its autocorrelation peaks higher at twice the period), and
    extract_fecg refused it with NoFetalComponent."""
    (m,) = [m for m in io.load_manifests(
        os.path.join(readme_raw, "records.json")) if m.record_id == "rec012"]
    rows, _ = io.load_record(m, readme_raw)
    fecg = extract_fecg(rows, m.aecg_fs, seed=0)
    clean = io.read_raw_f32(os.path.join(readme_raw,
                                         m.aux["fetal_clean_path"]))
    assert abs(np.corrcoef(fecg, clean)[0, 1]) >= 0.85


def test_readme_quick_start_runs(readme_raw, tmp_path, capsys):
    """The README's quick start from its own spec: preprocess every record,
    then train the README's config as Ridge (the 50-epoch network is too
    slow here) and evaluate the saved model."""
    prep = str(tmp_path / "data" / "prep")
    assert main(["preprocess", "--manifest",
                 os.path.join(readme_raw, "records.json"), "--out", prep,
                 "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(io.load_preprocessed(prep)) == 20
    config = dict(_readme_heredoc("config.json"), model="Ridge")
    cfg = _write_json(tmp_path / "config.json", config)
    run = str(tmp_path / "runs" / "base")
    assert main(["train", "--config", cfg, "--data", prep,
                 "--out", run]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert main(["evaluate", "--model", os.path.join(run, "model.npz"),
                 "--data", prep]) == 0
    assert json.loads(capsys.readouterr().out)["mean_r"] == trained["mean_r"]
