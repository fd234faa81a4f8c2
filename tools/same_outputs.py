"""Check that two trees of this repository write the same bytes.

    python3 tools/same_outputs.py PARENT CHANGE [--allow GLOB]...

PARENT and CHANGE are checkouts of the repository, each in a directory
of its own. Each tree runs in a subprocess of its own, with that tree's
src/ and perfbench/ alone on PYTHONPATH and OPENBLAS_NUM_THREADS=2
(fitted models depend on the BLAS thread count). Both trees run in the
same temporary directory, one after the other, so any path a command
writes into a file is the same on both sides. The runs:

- each workload of perfbench/workloads.py, its set-up plus one
  operation, at seeds 1 and 2 (perfbench/ is read, not edited);
- README.md's quick start: synth, preprocess, train and evaluate with
  `"model": "Ridge"`, and the `ablate --grid table2` step;
- the quick start's train and evaluate again with the network at
  `window_s` 0.25 (L = 71, not a multiple of 8) and 2 epochs;
- Linear, Ridge and Lasso train + evaluate on the train_net set of
  seed 1, and Ridge again with the lower envelope alone and with the
  PCA-compressed envelope as the target.

Every file the runs write is compared byte for byte, and so is
everything they print (`printed.txt`, with the tree's path and the
temporary directory masked). Prints the files that differ and, apart,
the differences that an --allow glob (matched against the file's path
relative to the run directory) lets pass. Exits 1 on any other
difference, or when a tree's runs stop with an error.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import json
import os
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
# README.md's quick start: its spec.json, and its config.json as Ridge
QUICK_SPEC = {"n_records": 20, "duration_s": 8.0, "fetal_rr_jitter": 0.05,
              "seed": 42}
QUICK_CONFIG = {"window_s": 2.0, "batch_size": 128, "wave_config": "EA+",
                "model": "Ridge", "epochs": 50}
QUICK_NET = dict(QUICK_CONFIG, model="PwDRecNet", window_s=0.25, epochs=2)


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _drive(work: str) -> None:
    """Every run, in `work`, printing each command, its exit code and its
    output. Runs inside the subprocess, with a tree's src/ and
    perfbench/ on the path."""
    import workloads

    def cli(argv: list[str]) -> None:
        show(workloads.call_cli(argv))

    def show(call) -> None:
        print(f"$ pwdrecon {' '.join(call.argv)}\nexit {call.code}")
        print(call.stdout + call.stderr, end="", flush=True)

    for seed in (1, 2):
        for w in workloads.WORKLOADS.values():
            root = os.path.join(work, f"{w.name}-{seed}")
            data = w.setup(os.path.join(root, "setup"), seed=seed)
            print(f"# {w.name} seed {seed}: skipped {data['skipped']}")
            for call in w.run(data, os.path.join(root, "out")):
                show(call)

    quick = os.path.join(work, "quickstart")
    raw, prep = os.path.join(quick, "raw"), os.path.join(quick, "prep")
    os.makedirs(quick)
    cli(["synth", "--spec", _write_json(os.path.join(quick, "spec.json"),
                                        QUICK_SPEC), "--out", raw])
    cli(["preprocess", "--manifest", os.path.join(raw, "records.json"),
         "--out", prep, "--seed", "0"])
    cli(["ablate", "--grid", "table2", "--data", prep,
         "--out", os.path.join(quick, "ablation")])
    fits = [(quick, name, config, prep)
            for name, config in (("ridge", QUICK_CONFIG), ("net", QUICK_NET))]
    train_net = os.path.join(work, "train_net-1")
    fits += [(train_net, name, dict(workloads.TrainNet.config, **change),
              os.path.join(train_net, "setup", "prep"))
             for name, change in (
                 ("Linear", {"model": "Linear"}),
                 ("Ridge", {"model": "Ridge"}),
                 ("Lasso", {"model": "Lasso"}),
                 ("Ridge-Lower", {"model": "Ridge",
                                  "envelope_selection": "Lower"}),
                 ("Ridge-PcaSingle", {"model": "Ridge",
                                      "output_mode": "PcaSingle"}))]
    for root, name, config, data in fits:
        out = os.path.join(root, name)
        cli(["train", "--config",
             _write_json(os.path.join(root, f"{name}.json"), config),
             "--data", data, "--out", out])
        cli(["evaluate", "--model", os.path.join(out, "model.npz"),
             "--data", data])


def run_tree(tree: pathlib.Path, work: str, dest: str) -> int:
    """Run every run of `tree` in `work`, then move what they wrote, with
    their masked output as printed.txt, to `dest`; returns the
    subprocess's exit code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(tree / "src"),
                                           str(tree / "perfbench")]))
    os.makedirs(work)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.append(sys.argv[1]); "
         "import same_outputs; same_outputs._drive(sys.argv[2])",
         str(TOOLS), work],
        cwd=work, env=env, capture_output=True, text=True)
    printed = (done.stdout + done.stderr).replace(str(tree), "<tree>")
    os.rename(work, dest)
    with open(os.path.join(dest, "printed.txt"), "w") as fh:
        fh.write(printed.replace(work, "<work>"))
    return done.returncode


def _files(root: str) -> set[str]:
    return {p.relative_to(root).as_posix()
            for p in pathlib.Path(root).rglob("*") if p.is_file()}


def differences(a: str, b: str) -> list[str]:
    """Paths, relative to a and b, of the files whose bytes differ or that
    only one of the two directories holds, sorted."""
    fa, fb = _files(a), _files(b)
    return sorted((fa ^ fb) | {
        f for f in fa & fb
        if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                           shallow=False)})


def report(a: str, b: str, allow: list[str]) -> int:
    """Print how a and b differ; returns 1 if a difference is not allowed."""
    diffs = differences(a, b)
    allowed = [f for f in diffs if any(fnmatch.fnmatch(f, g) for g in allow)]
    denied = [f for f in diffs if f not in allowed]
    print(f"{len(_files(a))} files compared, {len(denied)} differ, "
          f"{len(allowed)} allowed differences")
    for f in denied:
        print(f"differs: {f}")
    for f in allowed:
        print(f"allowed: {f}")
    return 1 if denied else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--allow", action="append", default=[],
                        metavar="GLOB")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "run")
        for side, tree in (("parent", args.parent), ("change", args.change)):
            code = run_tree(tree.resolve(), work, os.path.join(tmp, side))
            if code:
                with open(os.path.join(tmp, side, "printed.txt")) as fh:
                    print(fh.read()[-2000:])
                print(f"{side} ({tree}): runs stopped with exit {code}")
                return 1
        return report(os.path.join(tmp, "parent"),
                      os.path.join(tmp, "change"), args.allow)


if __name__ == "__main__":
    sys.exit(main())
