"""Which program bindings the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Each entry patches the name the *caller* looks up at call time: the
experiment runner calls ``lasso_fit`` through
``pwdrecon.harness.experiment``, the network calls ``conv1d_forward``
through ``pwdrecon.net.model``. The span is named after the module that
defines the function, so one layer keeps one name whoever calls it.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, self_times, tail_percentile

BYTES_PER_VALUE = 8  # the network computes in float64

EXP = "pwdrecon.harness.experiment"

# (module the caller looks the name up in, attribute, span name)
PATCHES = (
    ("pwdrecon.cli", "load_record", "harness.io.load_record"),
    ("pwdrecon.cli", "preprocess_record", "harness.experiment.preprocess_record"),
    ("pwdrecon.cli", "save_preprocessed", "harness.io.save_preprocessed"),
    ("pwdrecon.cli", "load_preprocessed", "harness.io.load_preprocessed"),
    ("pwdrecon.cli", "run_experiment", "harness.experiment.run_experiment"),
    ("pwdrecon.cli", "run_ablation", "harness.experiment.run_ablation"),
    ("pwdrecon.cli", "predict", "net.model.predict"),
    ("pwdrecon.cli", "window_metrics", "metrics.window_metrics"),
    (EXP, "extract_fecg", "separation.extract_fecg"),
    (EXP, "detect_polarity", "separation.detect_polarity"),
    (EXP, "resample_linear", "dsp.resample_linear"),
    (EXP, "design_bandpass", "dsp.design_bandpass"),
    (EXP, "filtfilt", "dsp.filtfilt"),
    (EXP, "otsu_threshold", "pwd_envelope.otsu_threshold"),
    (EXP, "extract_envelopes", "pwd_envelope.extract_envelopes"),
    (EXP, "preprocess_envelopes", "pwd_envelope.preprocess_envelopes"),
    (EXP, "segment", "dsp.segment"),
    # run_experiment, and `evaluate` through a call-time import, look
    # these up in the experiment module
    (EXP, "build_windows", "harness.experiment.build_windows"),
    (EXP, "split", "harness.experiment.split"),
    (EXP, "run_experiment", "harness.experiment.run_experiment"),
    (EXP, "train", "net.train.train"),
    (EXP, "predict", "net.model.predict"),
    (EXP, "ols_fit", "baselines.ols_fit"),
    (EXP, "ridge_fit", "baselines.ridge_fit"),
    (EXP, "lasso_fit", "baselines.lasso_fit"),
    (EXP, "linmap_predict", "baselines.linmap_predict"),
    (EXP, "window_metrics", "metrics.window_metrics"),
    ("pwdrecon.pwd_envelope", "design_bandpass", "dsp.design_bandpass"),
    ("pwdrecon.pwd_envelope", "filtfilt", "dsp.filtfilt"),
    ("pwdrecon.pwd_envelope", "resample_linear", "dsp.resample_linear"),
    ("pwdrecon.separation", "fastica", "separation.fastica"),
    # `pwdrecon.net.train` as an attribute is the train function; the
    # tracer imports the module by name
    ("pwdrecon.net.train", "forward_batch", "net.model.forward_batch"),
    ("pwdrecon.net.train", "backward", "net.model.backward"),
    ("pwdrecon.net.train", "rmsprop_step", "net.optim.rmsprop_step"),
    ("pwdrecon.net.model", "conv1d_forward", "net.ops.conv1d_forward"),
    ("pwdrecon.net.model", "conv1d_backward", "net.ops.conv1d_backward"),
)


def conv1d_forward_flops(n: int, cin: int, cout: int, k: int, L: int) -> int:
    """One multiply and one add per tap for each output sample."""
    return 2 * n * cout * cin * k * L


def conv1d_backward_flops(n: int, cin: int, cout: int, k: int, L: int) -> int:
    """dW and dX each cost as much as the forward; db sums dout."""
    return 4 * n * cout * cin * k * L + n * cout * L


def conv1d_bytes(n: int, cin: int, cout: int, k: int, L: int,
                 backward: bool) -> int:
    """Compulsory traffic: each operand read or written once.

    Forward reads x, w, b and writes out; backward reads x, w, dout and
    writes dx, dw, db.
    """
    x, w, y = n * cin * L, cout * cin * k, n * cout * L
    values = (2 * x + 2 * w + y + cout) if backward else (x + w + cout + y)
    return BYTES_PER_VALUE * values


def _conv_shape(x, w):
    n, cin, L = x.shape
    cout, _, k = w.shape
    return n, cin, cout, k, L


def _on_conv_forward(tracer, args, result):
    shape = _conv_shape(args[0], args[1])
    tracer.count("conv1d_forward_flop", conv1d_forward_flops(*shape))
    tracer.count("conv1d_bytes", conv1d_bytes(*shape, backward=False))


def _on_conv_backward(tracer, args, result):
    shape = _conv_shape(args[0], args[1])
    tracer.count("conv1d_backward_flop", conv1d_backward_flops(*shape))
    tracer.count("conv1d_bytes", conv1d_bytes(*shape, backward=True))


def _on_fastica(tracer, args, model):
    tracer.count("fastica_iters", model.iterations)
    tracer.count("fastica_unconverged", 0 if model.converged else 1)


def _on_lasso(tracer, args, linmap):
    tracer.count("lasso_sweeps", linmap.n_iter)
    tracer.count("lasso_converged", 1 if linmap.converged else 0)


def _on_ablation(tracer, args, result):
    cells = result[2].values()
    tracer.count("cells_empty", sum(c == "-" for c in cells))
    tracer.count("cells_failed", sum(c == "x" for c in cells))


HOOKS = {
    "net.ops.conv1d_forward": _on_conv_forward,
    "net.ops.conv1d_backward": _on_conv_backward,
    "separation.fastica": _on_fastica,
    "baselines.lasso_fit": _on_lasso,
    "harness.experiment.run_ablation": _on_ablation,
}


def install(tracer: Tracer) -> None:
    for module, attr, span in PATCHES:
        tracer.wrap(module, attr, span, HOOKS.get(span))


# per-layer metric -> unit; every `_s` is self time of the named span
SELF_TIME_METRICS = (
    "separation.extract_fecg", "separation.fastica",
    "separation.detect_polarity", "pwd_envelope.otsu_threshold",
    "pwd_envelope.extract_envelopes", "pwd_envelope.preprocess_envelopes",
    "dsp.filtfilt", "dsp.resample_linear", "dsp.design_bandpass",
    "dsp.segment", "harness.io.load_record", "harness.io.save_preprocessed",
    "harness.io.load_preprocessed", "harness.experiment.preprocess_record",
    "harness.experiment.build_windows", "harness.experiment.split",
    "harness.experiment.run_experiment", "harness.experiment.run_ablation",
    "net.ops.conv1d_forward", "net.ops.conv1d_backward",
    "net.model.forward_batch", "net.model.backward", "net.model.predict",
    "net.optim.rmsprop_step", "net.train.train", "baselines.lasso_fit",
    "baselines.ridge_fit", "baselines.ols_fit", "baselines.linmap_predict",
    "metrics.window_metrics",
)

# spans with wrapped children report as `<name>_self_s`, the rest `<name>_s`
WITH_CHILDREN = {"separation.extract_fecg", "harness.experiment.preprocess_record",
                 "harness.experiment.run_experiment",
                 "harness.experiment.run_ablation", "net.model.forward_batch",
                 "net.model.backward", "net.train.train"}


def _self_name(span: str) -> str:
    return f"{span}_self_s" if span in WITH_CHILDREN else f"{span}_s"


METRICS = {
    **{_self_name(s): "s" for s in SELF_TIME_METRICS},
    "separation.fastica_iters": "count",
    "separation.fastica_unconverged": "count",
    "net.ops.conv1d_forward_gflops": "GFLOP/s",
    "net.ops.conv1d_backward_gflops": "GFLOP/s",
    "net.ops.conv1d_gflop": "GFLOP",
    "net.ops.conv1d_mb_moved": "MB",
    "net.train.steps": "count",
    "baselines.lasso_calls": "count",
    "baselines.lasso_sweeps": "count",
    "baselines.lasso_converged_frac": "ratio",
    "baselines.ridge_calls": "count",
    "harness.experiment.run_experiment_calls": "count",
    "harness.experiment.cells_empty": "count",
    "harness.experiment.cells_failed": "count",
    "harness.experiment.cell_s_p50": "s",
    "harness.experiment.cell_s_p88": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "output.quality_r": "r",
    # filled in by run.py from the set-up, not from the trace
    "setup.records_skipped": "count",
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  quality: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Spans the benchmark opens around each CLI call are named `cli.*`;
    their self time is the part of the traced wall time that no layer
    covers, reported with the rest outside any span as uncovered.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    c = tracer.counts
    out = {_self_name(s): self_s.get(s, 0.0) for s in SELF_TIME_METRICS}

    fwd_flop = c.get("conv1d_forward_flop", 0)
    bwd_flop = c.get("conv1d_backward_flop", 0)
    # conv spans have no children, so their self time is their busy time
    fwd_t = out["net.ops.conv1d_forward_s"]
    bwd_t = out["net.ops.conv1d_backward_s"]
    cell_s = [s.end - s.start for s in spans
              if s.name == "harness.experiment.run_experiment"
              and s.parent is not None
              and spans[s.parent].name == "harness.experiment.run_ablation"]
    n_lasso = calls.get("baselines.lasso_fit", 0)
    layer_total = sum(t for s, t in zip(spans, own)
                      if not s.name.startswith("cli."))
    out.update({
        "separation.fastica_iters": c.get("fastica_iters", 0),
        "separation.fastica_unconverged": c.get("fastica_unconverged", 0),
        "net.ops.conv1d_forward_gflops": fwd_flop / fwd_t / 1e9 if fwd_t else 0.0,
        "net.ops.conv1d_backward_gflops": bwd_flop / bwd_t / 1e9 if bwd_t else 0.0,
        "net.ops.conv1d_gflop": (fwd_flop + bwd_flop) / 1e9,
        "net.ops.conv1d_mb_moved": c.get("conv1d_bytes", 0) / 1e6,
        "net.train.steps": calls.get("net.optim.rmsprop_step", 0),
        "baselines.lasso_calls": n_lasso,
        "baselines.lasso_sweeps": c.get("lasso_sweeps", 0),
        "baselines.lasso_converged_frac":
            c.get("lasso_converged", 0) / n_lasso if n_lasso else 0.0,
        "baselines.ridge_calls": calls.get("baselines.ridge_fit", 0),
        "harness.experiment.run_experiment_calls":
            calls.get("harness.experiment.run_experiment", 0),
        "harness.experiment.cells_empty": c.get("cells_empty", 0),
        "harness.experiment.cells_failed": c.get("cells_failed", 0),
        "harness.experiment.cell_s_p50":
            float(np.percentile(cell_s, 50)) if cell_s else 0.0,
        "harness.experiment.cell_s_p88":
            float(np.percentile(cell_s, tail_percentile(len(cell_s)) or 100))
            if cell_s else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.uncovered_s": traced_wall - layer_total,
        "output.quality_r": quality,
    })
    return out
