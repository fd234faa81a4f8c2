"""Command-line entry point.

Subcommands: synth, preprocess, train, evaluate, ablate. Each handler
returns its result, which main prints as one JSON object on stdout
before it exits 0. A refused run writes one JSON object,
{"error": <type>, "message": <text>}, on stderr and exits nonzero:

- 1: an input the run cannot read. A file that cannot be opened is the
  OSError of opening it; a file, option or field that is malformed or
  out of range is a ValueError. Each names the file or the field.
- 2: data the pipeline cannot process, a PwdReconError such as
  NumericalInstability or NoFetalComponent.

`preprocess` puts the record id in front of any of these that one
record raises. Any other exception is a fault of the program and ends
with its traceback.
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


def _cmd_synth(args) -> dict:
    spec = _seeded(read_json(args.spec, SyntheticSpec), args.seed)
    manifests = generate_synthetic(spec, args.out)
    return {"records": len(manifests),
            "manifest": os.path.join(args.out, "records.json")}


def _cmd_preprocess(args) -> dict:
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
        except (PwdReconError, ValueError, OSError) as exc:
            raise type(exc)(f"{m.record_id}: {exc}") from exc
    save_preprocessed(args.out, records)
    return {"records": len(records), "out": args.out}


def _cmd_train(args) -> dict:
    config = _seeded(read_json(args.config, ExperimentConfig), args.seed)
    records = load_preprocessed(args.data)
    report, model = run_experiment(config, records, out_dir=args.out)
    save_model(config, model, os.path.join(args.out, "model.npz"))
    result = {"mean_r": report.mean_r, "rendered_r": report.rendered_r,
              "mean_mse": report.mean_mse}
    if config.model is ModelKind.LASSO:
        result["gap"] = model.gap
    return result


def _cmd_evaluate(args) -> dict:
    config, model = load_model(args.model)
    records = load_preprocessed(args.data)
    # looked up at call time, where perfbench/layers.py wraps it
    from .harness.experiment import build_windows
    _, test = build_windows(records, config)
    _, report = evaluate(config, model, test)
    return {"mean_r": report.mean_r, "rendered_r": report.rendered_r,
            "mean_mse": report.mean_mse, "n_windows": report.n_windows,
            "n_excluded": report.n_excluded}


def _cmd_ablate(args) -> dict:
    if args.grid in GRID_NAMES:
        grid = GridFile(grids=(args.grid,))
    elif args.grid == "all":
        grid = GridFile(grids=GRID_NAMES)
    else:
        grid = read_json(args.grid, GridFile)
    base = _seeded(grid.base, args.seed)
    records = load_preprocessed(args.data)
    cache: dict = {}  # one for all grids: a cell they share is fitted once
    for name in grid.grids:
        run_ablation(name, records, base, args.out, cache)
    return {"grids": grid.grids, "out": args.out}


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
        print(json.dumps(args.func(args)))
        return 0
    except (PwdReconError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, PwdReconError) else 1


if __name__ == "__main__":
    sys.exit(main())
