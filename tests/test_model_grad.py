import hashlib
import time

import numpy as np
import pytest

from pwdrecon.errors import ShapeMismatch
from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.net.model import (
    backward,
    forward_batch,
    init_params,
    padded_length,
    predict,
)
from pwdrecon.net.ops import mse_loss

# init_params' network arguments: (channels, kernel_size, out_channels)
TINY = ((2, 4, 8), 3, 2)
DEFAULT = (ExperimentConfig().net_channels, ExperimentConfig().kernel_size,
           ExperimentConfig().out_channels)


def test_forward_shapes():
    params = init_params(*DEFAULT, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 1, 64))
    y, _ = forward_batch(params, x)
    assert y.shape == (3, 2, 64)
    with pytest.raises(ShapeMismatch):
        forward_batch(params, np.zeros((1, 1, 60)))  # not divisible by 8
    with pytest.raises(ShapeMismatch):
        forward_batch(params, np.zeros((1, 2, 64)))  # wrong channel count


def _predict_one(params, x):
    """Reference: one window through the network on its own."""
    xp = np.zeros((1, 1, padded_length(x.size)))
    xp[0, 0, :x.size] = x
    y, _ = forward_batch(params, xp)
    return y[0, :, :x.size]


@pytest.mark.parametrize("net,L", [
    (DEFAULT, 568), (DEFAULT, 142), (TINY, 213), (TINY, 71)],
    ids=["default-L568", "default-L142", "tiny-L213", "tiny-L71"])
def test_predict_batch_matches_per_window_loop(net, L):
    params = init_params(*net, seed=1)
    x = np.random.default_rng(1).normal(size=(5, L))
    loop = np.stack([_predict_one(params, row) for row in x])
    for batch_size in (1, 2, 128):  # uneven last chunk at 2
        assert np.array_equal(predict(params, x, batch_size), loop)


def test_init_deterministic_and_nonzero():
    a = init_params(*DEFAULT, seed=7)
    b = init_params(*DEFAULT, seed=7)
    c = init_params(*DEFAULT, seed=8)
    for (na, wa), (_, wb) in zip(a.items(), b.items()):
        assert np.array_equal(wa, wb), na
    assert any(not np.array_equal(wa, wc)
               for (_, wa), (_, wc) in zip(a.items(), c.items()))
    # biases start at zero, weights do not
    assert np.all(a["head.b"] == 0.0)
    assert np.any(a["head.w"] != 0.0)


# init_params(*DEFAULT, 0) as recorded when the parameters were a
# tree of per-convolution objects: the checkpoint's names, their order
# and the sha256 of every array's bytes in that order
DEFAULT_NAMES = [f"{block}.{conv}.{p}"
                 for block in ("enc0", "enc1", "enc2", "dec0", "dec1", "dec2")
                 for conv in ("conv0", "conv1", "conv2", "proj")
                 for p in ("w", "b")] + ["head.w", "head.b"]
DEFAULT_SHA256 = \
    "01bd93dead29477d929f9535c6007b0f7ee43edc8320aec90a8ac4e75568686b"
# enc1 keeps its 4 channels, so it has no projection
SAME_WIDTH = ((4, 4, 8), 5, 1)


def test_init_params_layout_is_pinned():
    params = init_params(*DEFAULT, seed=0)
    assert list(params) == DEFAULT_NAMES
    digest = hashlib.sha256()
    for a in params.values():
        assert a.dtype == np.float64 and a.flags.c_contiguous
        digest.update(a.tobytes())
    assert digest.hexdigest() == DEFAULT_SHA256
    assert list(init_params(*SAME_WIDTH, seed=0)) == [
        n for n in DEFAULT_NAMES if not n.startswith("enc1.proj.")]


def _worst_gradient_error(net, seed):
    """Largest relative gap between `backward` and central finite
    differences over every parameter of a seeded net on a seeded batch."""
    params = init_params(*net, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, 8))
    target = rng.normal(size=(2, net[2], 8))

    def loss_value():
        y, _ = forward_batch(params, x)
        return mse_loss(y, target)[0]

    y, cache = forward_batch(params, x)
    _, dpred = mse_loss(y, target)
    grads = backward(params, cache, dpred)

    h = 1e-5
    assert set(grads) == set(params)
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            fp = loss_value()
            flat[idx] = old - h
            fm = loss_value()
            flat[idx] = old
            num = (fp - fm) / (2 * h)
            denom = max(abs(num), abs(g_flat[idx]), 1e-8)
            worst = max(worst, abs(num - g_flat[idx]) / denom)
    return worst


def test_full_gradient_check_against_finite_differences():
    """Every parameter gradient matches central finite differences."""
    t0 = time.monotonic()
    assert _worst_gradient_error(TINY, seed=3) <= 1e-4
    assert time.monotonic() - t0 < 30.0


def test_gradient_check_with_identity_residual():
    """A block that keeps its channel count adds its input unprojected;
    seed 0 puts no ReLU or max-pool kink inside the probe."""
    net = ((2, 2, 4), 3, 1)
    assert "enc1.proj.w" not in init_params(*net, seed=0)
    assert _worst_gradient_error(net, seed=0) <= 1e-4


def test_training_step_reduces_loss():
    params = init_params(*TINY, seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 1, 16))
    target = rng.normal(size=(4, 2, 16)) * 0.1
    y, cache = forward_batch(params, x)
    loss0, dpred = mse_loss(y, target)
    grads = backward(params, cache, dpred)
    lr = 1e-2
    for name, arr in params.items():
        arr -= lr * grads[name]
    y2, _ = forward_batch(params, x)
    loss1, _ = mse_loss(y2, target)
    assert loss1 < loss0


def test_padded_length_and_predict():
    assert padded_length(64) == 64
    assert padded_length(71) == 72
    assert padded_length(213) == 216
    params = init_params(*TINY, seed=2)
    out = predict(params, np.random.default_rng(2).normal(size=(3, 213)), 2)
    assert out.shape == (3, 2, 213)
