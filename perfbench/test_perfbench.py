"""Tests of the benchmark's own code: span arithmetic, the tail
percentile rule, the conv FLOP count, and that tracing changes no output."""

from __future__ import annotations

import filecmp
import importlib
import json
import os

import numpy as np

import layers
import workloads
from tracer import Span, Tracer, self_times, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [Span("root", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_parent():
    spans = [Span("p", 0.0, 2.0, None), Span("late", 1.5, 2.5, 0)]
    assert self_times(spans) == [1.5, 1.0]


def test_tracer_nests_spans_in_call_order():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in tr.spans] == \
        [("outer", 0.0, 3.0, None), ("inner", 1.0, 2.0, 0)]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(85) == 88    # 10.2 beyond p88, 9.35 beyond p89
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None


def _counted_conv(n, cin, cout, k, L):
    """Flops of a naive conv forward and backward, counted one by one."""
    fwd = bwd = 0
    for _ in range(n * cout * L):         # out = b + sum_ij w * x
        fwd += 2 * cin * k
    for _ in range(cout * cin * k):       # dw = sum_nt dout * x
        bwd += 2 * n * L
    for _ in range(n * cin * L):          # dx = sum_oj w * dout
        bwd += 2 * cout * k
    for _ in range(cout):                 # db = sum_nt dout
        bwd += n * L
    return fwd, bwd


def test_conv_flops_match_hand_count():
    assert layers.conv1d_forward_flops(1, 2, 3, 3, 4) == 144
    assert layers.conv1d_backward_flops(1, 2, 3, 3, 4) == 300
    for shape in [(1, 1, 1, 1, 1), (2, 3, 5, 7, 16), (18, 1, 16, 7, 568)]:
        assert (layers.conv1d_forward_flops(*shape),
                layers.conv1d_backward_flops(*shape)) == _counted_conv(*shape)


def test_conv_bytes_count_every_operand_once():
    # x 1*2*4, w 3*2*3, b 3, out 1*3*4 float64 values
    assert layers.conv1d_bytes(1, 2, 3, 3, 4, backward=False) == \
        8 * (8 + 18 + 3 + 12)
    # reads x, w, dout; writes dx, dw, db
    assert layers.conv1d_bytes(1, 2, 3, 3, 4, backward=True) == \
        8 * (8 + 18 + 12 + 8 + 18 + 3)


def _traced_and_untraced(workload, tmp_path):
    data = workload.setup(str(tmp_path / "setup"), seed=3)
    plain = workload.run(data, str(tmp_path / "plain"))
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in layers.PATCHES}
    with Tracer() as tracer:
        layers.install(tracer)
        traced = workload.run(data, str(tmp_path / "traced"))
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, (m, a)
    assert [c.code for c in plain] == [c.code for c in traced] == \
        [0] * len(plain)
    assert [c.stdout.replace("plain", "traced") for c in plain] == \
        [c.stdout for c in traced]
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "traced"))
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "plain", tmp_path / "traced", names, shallow=False)
    assert mismatch == errors == []
    return tracer


def test_tracing_leaves_training_outputs_unchanged(tmp_path):
    w = workloads.TrainNet()
    w.n_records = 3
    w.config = dict(w.config, epochs=2)
    tracer = _traced_and_untraced(w, tmp_path)
    names = {s.name for s in tracer.spans}
    assert {"net.train.train", "net.model.forward_batch",
            "net.ops.conv1d_backward", "net.model.predict"} <= names
    m = layers.layer_metrics(tracer, 1.0, 1.0, 0.0)
    assert m["net.train.steps"] == 2 and m["net.ops.conv1d_gflop"] > 0


def test_tracing_leaves_preprocessing_outputs_unchanged(tmp_path):
    w = workloads.PreprocessLong()
    w.n_records, w.duration_s = 1, 10.0
    tracer = _traced_and_untraced(w, tmp_path)
    m = layers.layer_metrics(tracer, 1.0, 1.0, 0.0)
    assert m["separation.fastica_iters"] > 0
    assert m["separation.extract_fecg_self_s"] > 0


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.METRICS
    assert np.all([0 < m["bound"] <= 0.25 for m in spec["end_to_end"]])


def test_setup_leaves_out_records_the_program_cannot_preprocess(tmp_path):
    raw = tmp_path / "raw"
    merged = []
    for g, ratio in (("good", 0.1), ("bad", 0.0)):
        spec = {"n_records": 1, "duration_s": 10.0, "seed": 1,
                "fetal_maternal_ratio": ratio}
        with open(workloads._synth(str(raw / g), spec)) as fh:
            for m in json.load(fh):
                m["record_id"] = f"{g}-{m['record_id']}"
                m["channel_paths"] = [f"{g}/{p}" for p in m["channel_paths"]]
                m["image_path"] = f"{g}/{m['image_path']}"
                merged.append(m)
    manifest = workloads._write_json(str(raw / "records.json"), merged)
    skipped = workloads._preprocess(manifest, str(tmp_path / "prep"))
    assert [s.split(":")[0] for s in skipped] == ["bad-rec000"]
    assert "NoFetalComponent" in skipped[0]
    with open(tmp_path / "prep" / "preprocessed.json") as fh:
        assert [e["record_id"] for e in json.load(fh)] == ["good-rec000"]
    assert sorted(os.listdir(raw)) == ["bad", "bad.spec.json", "good",
                                       "good.spec.json", "records.json",
                                       "records.json.kept"]
