"""tools/bench_record.py on fake benchmark records whose summary is known."""

import importlib.util
import json
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" \
    / "bench_record.py"

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"], "run_seconds": 10,
    "workloads": [{"name": "fast"}, {"name": "slow"}],
    "end_to_end": [{"name": "work_per_s", "better": "higher"},
                   {"name": "peak_rss_mb", "better": "lower"}],
}
MACHINE = {"nproc": 2, "python": "3.11.7"}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(out_dir, workload, seed, work, rss, quality, mtime, trace=0):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    metrics = {"work_per_s": {"value": work, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    with open(path, "w") as fh:
        json.dump({"machine": MACHINE,
                   "named": {"items_per_s": [work, "1/s"],
                             "quality_r": [quality, "r"]},
                   "result": {"correct": True, "metrics": metrics}}, fh)
    os.utime(path, (mtime, mtime))


def _runs(tmp_path):
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    # seeds 1-4: the parent runs first on odd seeds, the change on even
    for seed, (pw, cw) in enumerate([(10, 15), (12, 11), (11, 16), (9, 14)],
                                    start=1):
        p_time, c_time = 100 * seed, 100 * seed + 50
        if seed % 2 == 0:
            p_time, c_time = c_time, p_time
        _write(parent, "fast", seed, pw, 100.0, 0.9, p_time)
        _write(change, "fast", seed, cw, 90.0, 0.9, c_time)
    return parent, change


def test_bench_record_pairs_runs_and_summarizes(tmp_path):
    parent, change = _runs(tmp_path)
    _write(parent, "fast", 1, 1.0, 1.0, 0.0, 0, trace=1)
    _write(change, "fast", 1, 2.0, 1.0, 0.0, 0, trace=1)
    out = tmp_path / "BENCH.json"
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    assert _tool().main(["bench_record.py", parent, change, str(out),
                         "--change", "faster", "--claim", "fast:work_per_s",
                         "--benchmark", str(bench)]) == 0
    rec = json.loads(out.read_text())
    assert rec["change"] == "faster" and rec["machine"] == MACHINE
    assert rec["claimed"] == {"workload": "fast", "metric": "work_per_s"}
    assert rec["command"] == ("python3 perfbench/run.py --workload W "
                              "--seed S --seconds 10 --trace 0")
    fast = rec["workloads"]["fast"]
    assert list(rec["workloads"]) == ["fast"]   # no slow records
    assert fast["seeds"] == [1, 2, 3, 4]
    assert [p["first"] for p in fast["pairs"]] == [
        "parent", "change", "parent", "change"]
    assert fast["pairs"][1]["change"] == {
        "work_per_s": 11, "peak_rss_mb": 90.0, "quality_r": 0.9,
        "correct": True}
    work = fast["summary"]["work_per_s"]
    # parent 9, 10, 11, 12 and change 11, 14, 15, 16, inclusive quartiles
    assert work["parent"] == {"median": 10.5, "q1": 9.75, "q3": 11.25}
    assert work["change"] == {"median": 14.5, "q1": 13.25, "q3": 15.25}
    assert work["change_over_parent_median"] == pytest.approx(14.5 / 10.5)
    assert work["change_better_pairs"] == "3/4"
    assert fast["summary"]["peak_rss_mb"]["better"] == "lower"
    assert fast["summary"]["peak_rss_mb"]["change_better_pairs"] == "4/4"
    assert fast["summary"]["quality_r"]["change_better_pairs"] == "0/4"
    assert rec["traced"] == {"fast-seed1": {
        "parent": {"work_per_s": 1.0, "peak_rss_mb": 1.0},
        "change": {"work_per_s": 2.0, "peak_rss_mb": 1.0}}}


def test_bench_record_refuses_an_unpaired_run(tmp_path, capsys):
    parent, change = _runs(tmp_path)
    _write(parent, "slow", 7, 1.0, 1.0, 0.0, 0)
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    assert _tool().main(["bench_record.py", parent, change,
                         str(tmp_path / "out.json"),
                         "--benchmark", str(bench)]) == 1
    assert "[('slow', 7, 0)]" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
