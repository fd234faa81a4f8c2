"""Lines of the package that no benchmark workload and no baseline run
reaches.

    python3 tools/reach.py

Runs, under ``sys.settrace`` restricted to src/pwdrecon:

- each workload of perfbench/workloads.py, its set-up plus one
  operation, trimmed as perfbench/test_perfbench.py trims them;
- Linear, Ridge and Lasso ``train`` + ``evaluate`` on the train_net set.

Then prints every executable line of a function body that no run
reached, grouped by file. Such a line is only run by tests, or never:
an error path, a re-check or dead code. Reads perfbench/ and writes
only to a temporary directory.
"""

from __future__ import annotations

import inspect
import json
import os
import pathlib
import sys
import tempfile
import types

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "pwdrecon"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Lines that hold code of some function body of the module at
    `path`. Module and class bodies run at import, so they are left out,
    and so is each function's own `def` (or first decorator) line."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.update(ln for _, _, ln in code.co_lines()
                         if ln is not None and ln != code.co_firstlineno)
    return lines


def reached_lines(root: pathlib.Path, run) -> dict[str, set[int]]:
    """Call run() under sys.settrace; returns, for each file under
    `root` that ran, the lines it ran. Frames of other files are not
    traced line by line."""
    prefix = str(root.resolve()) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set())
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def unreached(root: pathlib.Path,
              reached: dict[str, set[int]]) -> dict[str, list[int]]:
    """Each .py file under `root` with the executable lines not in
    `reached`, in line order; files with none are left out."""
    out = {}
    for path in sorted(root.resolve().rglob("*.py")):
        missed = executable_lines(path) - reached.get(str(path), set())
        if missed:
            out[str(path)] = sorted(missed)
    return out


def _runs(work: str) -> None:
    """The benchmark workloads, then the linear baselines, in `work`."""
    import workloads

    preprocess = workloads.PreprocessLong()
    preprocess.n_records, preprocess.duration_s = 1, 10.0
    train_net = workloads.TrainNet()
    train_net.n_records = 3
    train_net.config = dict(train_net.config, epochs=2)

    def once(w) -> dict:
        root = os.path.join(work, w.name)
        data = w.setup(os.path.join(root, "setup"), seed=1)
        failed = [c.argv for c in w.run(data, os.path.join(root, "out"))
                  if c.code != 0]
        if failed:
            raise RuntimeError(f"{w.name}: {failed} failed")
        return data

    once(preprocess)
    once(workloads.AblateAll())
    prep = once(train_net)["prep"]
    for model in ("Linear", "Ridge", "Lasso"):
        out = os.path.join(work, model)
        config = os.path.join(work, f"{model}.json")
        with open(config, "w") as fh:
            json.dump(dict(train_net.config, model=model), fh)
        for argv in (["train", "--config", config, "--data", prep,
                      "--out", out],
                     ["evaluate", "--model", os.path.join(out, "model.npz"),
                      "--data", prep]):
            if workloads.call_cli(argv).code != 0:
                raise RuntimeError(f"{model}: {argv[0]} failed")


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    with tempfile.TemporaryDirectory() as work:
        reached = reached_lines(PACKAGE, lambda: _runs(work))
    missed = unreached(PACKAGE, reached)
    for path, lines in missed.items():
        source = pathlib.Path(path).read_text().splitlines()
        print(f"{os.path.relpath(path, REPO)}: {len(lines)} unreached")
        for ln in lines:
            print(f"  {ln:4d}  {source[ln - 1].strip()}")
    print(f"total {sum(map(len, missed.values()))} unreached lines "
          f"in {len(missed)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
