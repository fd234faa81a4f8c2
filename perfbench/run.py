"""Benchmark of the pwdrecon CLI, run from the repository root:

    python3 perfbench/run.py --workload train_net --seed 1 --seconds 10 --trace 0

It imports the program from ./src, builds the workload's inputs from
--seed, times the workload's CLI commands in this process and checks what
they wrote. --trace 0 reports the end-to-end metrics; --trace 1 runs the
workload once untraced and once with every layer wrapped, and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A machine record, the
inputs and (traced) the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 3
MAX_BLAS_THREADS = 2
# the workload names, listed here so parsing arguments imports no numpy
WORKLOAD_NAMES = ("preprocess_long", "train_net", "ablate_all")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep starting operations until this much time has "
                        "passed; at least one runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable CPUs, at most 2; must run before
    numpy loads."""
    n = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, args, import_s: float, work_dir: str, out_dir: str):
    """Set up, run and check one workload; returns (result, record)."""
    import layers
    from tracer import Tracer
    from workloads import Tally

    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = workload.setup(os.path.join(work_dir, f"setup{i}"), args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    work = workload.work(data)

    tally = Tally()
    outs, walls, cpus, quality = [], [], [], 0.0

    def op():
        nonlocal quality
        out = os.path.join(work_dir, f"op{len(outs)}")
        t0, c0 = time.perf_counter(), time.process_time()
        calls = workload.run(data, out)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        try:
            quality = workload.check(data, out, calls,
                                     outs[0] if outs else None, tally)
        except (OSError, ValueError, KeyError) as exc:
            tally.check(False, f"outputs of {workload.name} unreadable: {exc!r}")
        outs.append(out)

    record = {"workload": workload.name, "seed": args.seed,
              "inputs": workload.inputs(args.seed), "work_per_op": work,
              "setup_s_samples": setup_times, "import_s": import_s,
              "records_skipped": data["skipped"]}
    for why in data["skipped"]:
        print(f"set-up: record left out, the program cannot preprocess it: "
              f"{why}", file=sys.stderr)
    if args.trace == 0:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            op()
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
            "work_per_s": (work / statistics.median(walls), "1/s"),
        }
        name, unit = workload.work_metric
        record["named"] = {name: [metrics["work_per_s"][0], unit],
                           workload.quality_metric: [quality, "r"],
                           "fail_frac": [1.0 - metrics["ok_frac"][0], "ratio"]}
    else:
        op()
        with Tracer() as tracer:
            layers.install(tracer)
            tracer.wrap("workloads", "call_cli", "cli.main")
            op()
        per_layer = layers.layer_metrics(tracer, walls[1], walls[0], quality)
        per_layer["setup.records_skipped"] = len(data["skipped"])
        metrics = {k: (v, layers.METRICS[k]) for k, v in per_layer.items()}
        tracer.write(os.path.join(
            out_dir, f"spans-{workload.name}-seed{args.seed}.json"))
    record["op_wall_s"] = walls
    record["op_cpu_s"] = cpus

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    for why in tally.reasons:
        print(f"check failed: {why}", file=sys.stderr)
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pwdrecon", "cli.py")):
        print(f"perfbench: no program at {src}/pwdrecon; run from the "
              "repository root", file=sys.stderr)
        return 2
    blas_threads = limit_blas_threads()
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pwdrecon.cli  # noqa: F401  (numpy, scipy and every layer)
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, SetupFailed

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(root, ".perfbench_work",
                            f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        result, record = measure(workload, args, import_s, work_dir, out_dir)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record["machine"] = machine_record(blas_threads)
    record["result"] = result
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("machine " + json.dumps(record["machine"]))
    for name, (value, unit) in record.get("named", {}).items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
