"""Command-line entry point.

Subcommands: synth, preprocess, train, evaluate, ablate. Errors exit
nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .baselines import load_linear_map, save_linear_map
from .core import ModelKind, from_json_dict, to_json_dict
from .errors import PwdReconError
from .harness.experiment import (
    GRID_NAMES,
    ExperimentConfig,
    evaluate,
    experiment_windows,
    preprocess_record,
    run_ablation,
    run_experiment,
)
from .harness.io import (
    load_manifests,
    load_preprocessed,
    load_record,
    save_preprocessed,
)
from .harness.synth import SyntheticSpec, generate_synthetic
from .metrics import window_metrics  # noqa: F401  patched by perfbench/layers.py
from .net import load_checkpoint, save_checkpoint
from .net import predict  # noqa: F401  patched by perfbench/layers.py


def config_from_dict(d: dict, seed: int | None = None) -> ExperimentConfig:
    config = from_json_dict(ExperimentConfig, d)
    return config if seed is None else dataclasses.replace(config, seed=seed)


def _cmd_synth(args) -> int:
    with open(args.spec) as fh:
        spec = from_json_dict(SyntheticSpec, json.load(fh))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    manifests = generate_synthetic(spec, args.out)
    print(json.dumps({"records": len(manifests),
                      "manifest": os.path.join(args.out, "records.json")}))
    return 0


def _cmd_preprocess(args) -> int:
    manifests = load_manifests(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    records = []
    for m in manifests:
        try:
            rec, img = load_record(m, base_dir)
            records.append(preprocess_record(rec, img, m,
                                             seed=args.seed or 0))
        except PwdReconError as exc:
            raise type(exc)(f"{m.record_id}: {exc}") from exc
    save_preprocessed(args.out, records)
    print(json.dumps({"records": len(records), "out": args.out}))
    return 0


def _cmd_train(args) -> int:
    with open(args.config) as fh:
        config = config_from_dict(json.load(fh), args.seed)
    records = load_preprocessed(args.data)
    os.makedirs(args.out, exist_ok=True)
    report, artifacts = run_experiment(config, records, out_dir=args.out)
    with open(os.path.join(args.out, "experiment.json"), "w") as fh:
        json.dump(to_json_dict(config), fh, indent=1)
    save = (save_checkpoint if config.model is ModelKind.PWDRECNET
            else save_linear_map)
    save(artifacts["model"], os.path.join(args.out, "model.npz"))
    result = {"mean_r": report.mean_r, "rendered_r": report.rendered_r,
              "mean_mse": report.mean_mse}
    if config.model is ModelKind.LASSO:
        result["gap"] = artifacts["model"].gap
    print(json.dumps(result))
    return 0


def _cmd_evaluate(args) -> int:
    config_path = args.config or os.path.join(
        os.path.dirname(os.path.abspath(args.model)), "experiment.json")
    with open(config_path) as fh:
        config = config_from_dict(json.load(fh), args.seed)
    load = (load_checkpoint if config.model is ModelKind.PWDRECNET
            else load_linear_map)
    model = load(args.model)
    records = load_preprocessed(args.data)
    windows, _, test_idx = experiment_windows(config, records)
    _, report = evaluate(config, model, windows, test_idx)
    print(json.dumps({"mean_r": report.mean_r,
                      "rendered_r": report.rendered_r,
                      "mean_mse": report.mean_mse,
                      "n_windows": report.n_windows,
                      "n_excluded": report.n_excluded}))
    return 0


def _cmd_ablate(args) -> int:
    base = ExperimentConfig(seed=args.seed or 0)
    if args.grid in GRID_NAMES:
        names = [args.grid]
    elif args.grid == "all":
        names = list(GRID_NAMES)
    else:
        with open(args.grid) as fh:
            d = json.load(fh)
        extra = set(d) - {"base", "grids"}
        if extra:
            raise ValueError(f"grid file: unknown field {min(extra)!r}")
        if "grids" not in d:
            raise ValueError("grid file: missing field 'grids'")
        base = config_from_dict(d.get("base", {}), args.seed)
        names = d["grids"]
        if not isinstance(names, list):
            raise ValueError(f"grid file: 'grids' must be a list: {names!r}")
        for name in names:
            if name not in GRID_NAMES:
                raise ValueError(f"grid file: unknown grid {name!r}")
    records = load_preprocessed(args.data)
    for name in names:
        run_ablation(name, records, out_dir=args.out, base=base)
    print(json.dumps({"grids": names, "out": args.out}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pwdrecon",
        description="Doppler envelope reconstruction from fetal ECG")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic records")
    s.add_argument("--spec", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("preprocess", help="run both preprocessing paths")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_preprocess)

    s = sub.add_parser("train", help="train one experiment config")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_train)

    s = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--config")
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_evaluate)

    s = sub.add_parser("ablate", help="run an ablation grid")
    s.add_argument("--grid", required=True,
                   help="table1..table6, 'all', or a JSON grid file")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PwdReconError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
