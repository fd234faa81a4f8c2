"""The network in float32 against float64: one training step and a toy
run stay within 1e-5 relative, a float32 model file round-trips
bit-exact and scores as its run did, and a float64 one still predicts in
float64. The float64 oracles (the 1e-12 layout test, the 1e-9 loss log,
the finite-difference checks) stay in their own files."""

import numpy as np
import pytest

from pwdrecon.harness.experiment import (
    ExperimentConfig,
    build_windows,
    evaluate,
    run_experiment,
)
from pwdrecon.harness.io import load_model, save_model
from pwdrecon.net.model import backward, forward_batch, init_params, predict
from pwdrecon.net.ops import mse_loss
from pwdrecon.net.train import train
from test_model_layout import _drift, ref_forward_backward
from test_optim_train import LOSS_LOG_PER_TAP, TINY, _toy_dataset

DEFAULT = (ExperimentConfig().net_channels, ExperimentConfig().kernel_size)
# the network of TINY on 0.25 s windows (71 samples), trained for 2 epochs
TINY_CONFIG = ExperimentConfig(window_s=0.25, epochs=2, net_channels=TINY[0],
                               kernel_size=TINY[1])


def _as(dtype, tree):
    """Every float array in a dict or list tree cast to dtype; the rest as
    it is."""
    if isinstance(tree, dict):
        return {key: _as(dtype, a) for key, a in tree.items()}
    if isinstance(tree, list):
        return [_as(dtype, a) for a in tree]
    if isinstance(tree, np.ndarray) and tree.dtype.kind == "f":
        return tree.astype(dtype)
    return tree


@pytest.mark.parametrize("net,L", [(DEFAULT, 568), (TINY, 16)],
                         ids=["default-L568", "tiny-L16"])
def test_float32_step_stays_within_1e_5_of_float64(net, L):
    """One forward, mse_loss and backward in float32, on a batch of 18
    windows: the output and the loss within 1e-5 relative of the float64
    step, and every gradient within 1e-5 of the float64 backward through
    the same forward.

    The gradients are compared through the float32 forward's own cache
    because a ReLU whose input lies within float32 rounding of zero can
    take the other side, and the gradient jumps there: on the default net
    at seed 0 one unit of about 1.5 million did, and it moved the enc0
    gradients by 4.6e-4 relative.
    """
    x, y = _toy_dataset(n=18, L=L)
    p64 = init_params(*net, 2, seed=0)
    p32 = _as(np.float32, p64)
    out64, _ = forward_batch(p64, x)
    loss64, _ = mse_loss(out64, y)
    out32, cache32 = forward_batch(p32, x.astype(np.float32))
    loss32, dpred32 = mse_loss(out32, y.astype(np.float32))
    assert out32.dtype == dpred32.dtype == np.float32
    assert _drift(out32, out64) <= 1e-5
    assert abs(loss32 - loss64) <= 1e-5 * loss64

    g32 = backward(p32, cache32, dpred32)
    g64 = backward(_as(np.float64, p32), _as(np.float64, cache32),
                   dpred32.astype(np.float64))
    assert list(g32) == list(g64)
    for name, g in g32.items():
        assert g.dtype == np.float32, name
        assert _drift(g, g64[name]) <= 1e-5, name


def test_float32_tiny_run_stays_within_1e_5_of_the_float64_log():
    """The seeded 10-epoch toy run of the tiny net, trained on float32
    windows: float32 parameters, and a loss log within 1e-5 relative of
    the float64 one.

    The default net's 10-epoch log is not bounded: its float32 run drifts
    up to 2.3% from the float64 log, because training amplifies each
    step's rounding.
    """
    x, y = _toy_dataset()
    params, log = train(x.astype(np.float32), y.astype(np.float32), *TINY,
                        epochs=10, batch_size=8, seed=3, lr=1e-3)
    assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
    got = [(e["train_loss"], e["val_loss"]) for e in log]
    assert np.allclose(got, LOSS_LOG_PER_TAP["tiny"], rtol=1e-5, atol=0.0)


def test_float32_model_file_round_trips_and_scores_as_its_run(small_dataset,
                                                              tmp_path):
    _, _, records = small_dataset
    report, params = run_experiment(TINY_CONFIG, records)
    assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
    path = str(tmp_path / "model.npz")
    save_model(TINY_CONFIG, params, path)
    _, loaded = load_model(path)
    assert list(loaded) == list(params)
    for name, a in params.items():
        assert loaded[name].dtype == np.float32, name
        assert np.array_equal(loaded[name], a), name
    _, test = build_windows(records, TINY_CONFIG)
    preds, again = evaluate(TINY_CONFIG, loaded, test)
    assert preds.dtype == np.float64
    assert again.mean_r == report.mean_r


def test_float64_model_file_predicts_in_float64(tmp_path):
    """A float64 parameter file loads as float64 and predicts exactly what
    predict gives on the parameters it was written from: within 1e-12 of
    the per-window float64 reference, which float32 misses."""
    params = init_params(*TINY, TINY_CONFIG.out_channels, seed=4)
    path = str(tmp_path / "model.npz")
    save_model(TINY_CONFIG, params, path)
    _, loaded = load_model(path)
    assert {a.dtype for a in loaded.values()} == {np.dtype(np.float64)}
    x = np.random.default_rng(4).normal(size=(3, 72))
    out = predict(loaded, x)
    assert out.dtype == np.float64
    assert np.array_equal(out, predict(params, x))
    ref, _ = ref_forward_backward(params, x[:, None], np.zeros_like(out))
    assert _drift(out, ref) <= 1e-12
    assert _drift(predict(_as(np.float32, params), x), ref) > 1e-12
