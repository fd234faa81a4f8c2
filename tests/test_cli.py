import json
import os

import pytest

from pwdrecon.cli import config_from_dict, main
from pwdrecon.core import ModelKind, SplitMode, to_json_dict
from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.harness.io import save_preprocessed


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(window_s=1.0, model=ModelKind.RIDGE,
                           split=SplitMode.RANDOM, seed=5,
                           net_channels=(2, 4, 8))
    d = json.loads(json.dumps(to_json_dict(cfg)))
    assert d["model"] == "Ridge" and d["split"] == "Random"
    assert config_from_dict(d) == cfg
    assert config_from_dict(d, seed=9).seed == 9


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


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
    assert os.path.exists(os.path.join(run, "experiment.json"))

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
], ids=["train-key", "synth-key", "grid-base-key", "grid-key",
        "manifest-key", "enum-value", "spec-enum-value", "int-value"])
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


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
