"""Pair a parent's and a change's benchmark runs into one BENCH_*.json record.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT OUT_JSON
        [--change TEXT] [--claim WORKLOAD:METRIC] [--benchmark PATH]

PARENT_OUT and CHANGE_OUT are the .perfbench_out/ directories that
`perfbench/run.py` filled in the parent's and the change's checkouts. A
pair is one workload and seed with an untraced record
(<workload>-seed<S>-trace0.json) on both sides; the side whose record
file is older ran first. The metrics are BENCHMARK.json's end-to-end
metrics, each with its `better` direction, plus each workload's output
quality (its named metric in unit "r"), where higher is better, and the
two parts of setup_s that run.py records: `import_s` and the median of
`setup_s_samples`, where lower is better. Traced records (-trace1.json)
found on both sides are copied as they are.
Quartiles are statistics.quantiles(n=4, method="inclusive"); a tied
pair counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORD = re.compile(r"(?P<workload>\w+)-seed(?P<seed>-?\d+)"
                    r"-trace(?P<trace>[01])\.json")


def _records(out_dir: str) -> dict[tuple[str, int, int], str]:
    """(workload, seed, trace) -> record path, for every record in out_dir."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        m = RECORD.fullmatch(name)
        if m:
            key = (m["workload"], int(m["seed"]), int(m["trace"]))
            found[key] = os.path.join(out_dir, name)
    return found


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _values(record: dict, better: dict[str, str]) -> dict:
    """The end-to-end metrics, output quality and setup_s parts of one
    untraced run."""
    result = record["result"]
    values = {name: result["metrics"][name]["value"]
              for name in better if name in result["metrics"]}
    for name, (value, unit) in record["named"].items():
        if unit == "r":
            values[name] = value
    values["import_s"] = record["import_s"]
    values["setup_s_samples_median"] = statistics.median(
        record["setup_s_samples"])
    values["correct"] = result["correct"]
    return values


def _spread(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        if name == "correct":
            continue
        way = better.get(name, "higher")
        sign = 1.0 if way == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_mid, c_mid = _spread(parent), _spread(change)
        out[name] = {
            "better": way, "parent": p_mid, "change": c_mid,
            "change_over_parent_median": (c_mid["median"] / p_mid["median"]
                                          if p_mid["median"] else None),
            "change_better_pairs": f"{wins}/{len(pairs)}"}
    return out


def bench_record(parent_dir: str, change_dir: str, benchmark: dict,
                 change: str = "", claim: str | None = None) -> dict:
    """The BENCH_*.json record of the runs in the two directories."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    better.update(import_s="lower", setup_s_samples_median="lower")
    parent, chg = _records(parent_dir), _records(change_dir)
    untraced = {k for k in parent.keys() | chg.keys() if k[2] == 0}
    unpaired = sorted(k for k in untraced if not (k in parent and k in chg))
    if unpaired:
        raise ValueError("runs on one side only (workload, seed, trace): "
                         f"{unpaired}")
    if not untraced:
        raise ValueError(f"no untraced records in {parent_dir} and "
                         f"{change_dir}")

    command = " ".join(benchmark["command"]) + (
        f" --workload W --seed S --seconds {benchmark['run_seconds']:g}"
        " --trace 0")
    out = {"change": change, "command": command,
           "method": "parent commit and change each run from their own "
                     "checkout; the side whose record file is older ran "
                     "first; values are each run's .perfbench_out/"
                     "<workload>-seed<S>-trace0.json; quartiles are "
                     "statistics.quantiles(n=4, method='inclusive'); a tie "
                     "counts for neither side"}
    if claim:
        workload, metric = claim.split(":")
        out["claimed"] = {"workload": workload, "metric": metric}
    machines = []
    workloads = {}
    for w in (workload["name"] for workload in benchmark["workloads"]):
        seeds = sorted(k[1] for k in untraced if k[0] == w)
        if not seeds:
            continue
        if len(seeds) < 2:
            raise ValueError(f"{w}: quartiles need at least 2 pairs")
        pairs = []
        for seed in seeds:
            paths = {"parent": parent[(w, seed, 0)],
                     "change": chg[(w, seed, 0)]}
            runs = {side: _load(path) for side, path in paths.items()}
            machines += [r["machine"] for r in runs.values()]
            first = min(paths, key=lambda side: os.path.getmtime(paths[side]))
            pairs.append({"seed": seed, "first": first,
                          **{side: _values(r, better)
                             for side, r in runs.items()}})
        workloads[w] = {"seeds": seeds, "pairs": pairs,
                        "summary": _summary(pairs, better)}
    if any(m != machines[0] for m in machines):
        raise ValueError("the records come from different machines")
    out["machine"] = machines[0]
    out["workloads"] = workloads

    traced = {}
    for w, seed, trace in sorted(parent.keys() & chg.keys()):
        if trace == 1:
            traced[f"{w}-seed{seed}"] = {
                side: {name: m["value"] for name, m in
                       _load(recs[(w, seed, 1)])["result"]["metrics"].items()}
                for side, recs in (("parent", parent), ("change", chg))}
    if traced:
        out["traced"] = traced
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_out")
    p.add_argument("change_out")
    p.add_argument("out_json")
    p.add_argument("--change", default="", help="what the change does")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args(argv[1:])
    try:
        record = bench_record(args.parent_out, args.change_out,
                              _load(args.benchmark), args.change, args.claim)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    with open(args.out_json, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
