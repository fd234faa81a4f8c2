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

from .core import ModelKind, read_json
from .errors import PwdReconError
from .harness.experiment import (
    GRID_NAMES,
    ExperimentConfig,
    GridFile,
    evaluate,
    experiment_windows,
    preprocess_record,
    run_ablation,
    run_experiment,
)
from .harness.io import (
    load_manifests,
    load_model,
    load_preprocessed,
    load_record,
    save_model,
    save_preprocessed,
)
from .harness.synth import SyntheticSpec, generate_synthetic
from .metrics import window_metrics  # noqa: F401  patched by perfbench/layers.py
from .net.model import predict  # noqa: F401  patched by perfbench/layers.py


def _seeded(obj, seed: int | None):
    """A spec or config with its seed replaced by --seed, when given."""
    return obj if seed is None else dataclasses.replace(obj, seed=seed)


def _cmd_synth(args) -> int:
    spec = _seeded(read_json(args.spec, SyntheticSpec), args.seed)
    manifests = generate_synthetic(spec, args.out)
    print(json.dumps({"records": len(manifests),
                      "manifest": os.path.join(args.out, "records.json")}))
    return 0


def _cmd_preprocess(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed: must be >= 0, got {args.seed}")
    manifests = load_manifests(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    records = []
    for m in manifests:
        try:
            rows, img = load_record(m, base_dir)
            records.append(preprocess_record(rows, img, m,
                                             seed=args.seed or 0))
        except (PwdReconError, ValueError) as exc:
            raise type(exc)(f"{m.record_id}: {exc}") from exc
    save_preprocessed(args.out, records)
    print(json.dumps({"records": len(records), "out": args.out}))
    return 0


def _cmd_train(args) -> int:
    config = _seeded(read_json(args.config, ExperimentConfig), args.seed)
    records = load_preprocessed(args.data)
    os.makedirs(args.out, exist_ok=True)
    report, model = run_experiment(config, records, out_dir=args.out)
    save_model(config, model, os.path.join(args.out, "model.npz"))
    result = {"mean_r": report.mean_r, "rendered_r": report.rendered_r,
              "mean_mse": report.mean_mse}
    if config.model is ModelKind.LASSO:
        result["gap"] = model.gap
    print(json.dumps(result))
    return 0


def _cmd_evaluate(args) -> int:
    config, model = load_model(args.model)
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
    if args.grid in GRID_NAMES:
        grid = GridFile(grids=(args.grid,))
    elif args.grid == "all":
        grid = GridFile(grids=GRID_NAMES)
    else:
        grid = read_json(args.grid, GridFile)
    base = _seeded(grid.base, args.seed)
    records = load_preprocessed(args.data)
    for name in grid.grids:
        run_ablation(name, records, base, out_dir=args.out)
    print(json.dumps({"grids": grid.grids, "out": args.out}))
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

    s = sub.add_parser("evaluate", help="evaluate a saved model")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
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
