import hashlib
import itertools
import time

import numpy as np
import pytest

from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.net.model import backward, forward_batch, init_params, predict
from pwdrecon.net.ops import mse_loss

# init_params' network arguments: (channels, kernel_size, out_channels)
TINY = ((2, 4, 8), 3, 2)
DEFAULT = (ExperimentConfig().net_channels, ExperimentConfig().kernel_size,
           ExperimentConfig().out_channels)


def test_forward_shapes():
    params = init_params(*DEFAULT, seed=0)
    for L in (64, 60):
        x = np.random.default_rng(0).normal(size=(3, L))
        y, _ = forward_batch(params, x)
        assert y.shape == (3, 2, L)
    assert predict(params, x).shape == (3, 2, 60)


def _zero_padded(a):
    """a (..., L) with zeros appended up to a multiple of 8."""
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, -a.shape[-1] % 8)])


def _predict_one(params, x):
    """Reference: one window through the network on its own, zero-padded
    to a multiple of 8 here and cropped back."""
    y, _ = forward_batch(params, _zero_padded(x[None]))
    return y[0, :, :x.size]


@pytest.mark.parametrize("net,L", [
    (DEFAULT, 568), (DEFAULT, 142), (TINY, 213), (TINY, 71)],
    ids=["default-L568", "default-L142", "tiny-L213", "tiny-L71"])
def test_predict_batch_matches_per_window_loop(net, L):
    params = init_params(*net, seed=1)
    x = np.random.default_rng(1).normal(size=(5, L))
    loop = np.stack([_predict_one(params, row) for row in x])
    out = predict(params, x)
    assert np.array_equal(out, loop)
    for i in range(len(x)):
        assert np.array_equal(out[i], predict(params, x[i:i + 1])[0])


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
    x = rng.normal(size=(2, 8))
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
    x = rng.normal(size=(4, 16))
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


def test_forward_and_backward_pad_and_crop():
    """On windows of 71 and 213 samples (0.25 s and 0.75 s), the output
    and every gradient equal, bit for bit, those of the same windows and
    output gradient zero-padded to a multiple of 8 and cropped back."""
    for net, L in itertools.product((TINY, DEFAULT), (71, 213)):
        params = init_params(*net, seed=2)
        rng = np.random.default_rng(L)
        x = rng.normal(size=(3, L))
        grad_out = rng.normal(size=(3, net[2], L))
        y, cache = forward_batch(params, x)
        grads = backward(params, cache, grad_out)
        y8, cache8 = forward_batch(params, _zero_padded(x))
        grads8 = backward(params, cache8, _zero_padded(grad_out))
        assert y.shape == (3, net[2], L)
        assert np.array_equal(y, y8[..., :L])
        assert list(grads) == list(grads8)
        for name, g in grads.items():
            assert np.array_equal(g, grads8[name]), name
