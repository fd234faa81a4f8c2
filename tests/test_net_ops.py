import numpy as np
import pytest

from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.net.model import init_params
from pwdrecon.net.ops import (
    conv1d_backward,
    conv1d_forward,
    maxpool2_backward,
    maxpool2_forward,
    mse_loss,
    relu_backward,
    relu_forward,
    upsample2_backward,
    upsample2_forward,
)


def naive_conv1d(x, w, b):
    """Oracle: literal triple loop over the definition, on the windows
    laid end to end as one flat batch that is zero past its two ends."""
    n, cin, L = x.shape
    cout, _, k = w.shape
    pad = k // 2
    flat = x.transpose(1, 0, 2).reshape(cin, n * L)
    out = np.zeros((cout, n * L))
    for o in range(cout):
        for t in range(n * L):
            acc = b[o]
            for i in range(cin):
                for j in range(k):
                    src = t + j - pad
                    if 0 <= src < n * L:
                        acc += w[o, i, j] * flat[i, src]
            out[o, t] = acc
    return out.reshape(cout, n, L).transpose(1, 0, 2)


def window_pads(a, pad):
    """(N, C, L) windows with `pad` zero columns on each side of each."""
    return np.pad(a, ((0, 0), (0, 0), (pad, pad)))


def per_window_conv1d_forward(x, w, b):
    """Reference: one matmul per tap on each zero-padded window, the
    forward the network ran before its padded channel-major layout."""
    n, cin, L = x.shape
    cout, _, k = w.shape
    pad = k // 2
    xp = np.zeros((n, cin, L + k - 1))
    xp[:, :, pad:pad + L] = x
    out = np.empty((n, cout, L))
    out[:] = b[:, None]
    for j in range(k):
        out += np.matmul(w[:, :, j], xp[:, :, j:j + L])
    return out


def per_tap_conv1d_backward(x, w, dout):
    """Oracle: one tensordot and one batched matmul per tap on the padded
    windows, each window accumulated on its own."""
    n, cin, L = x.shape
    cout, _, k = w.shape
    pad = k // 2
    xp = np.zeros((n, cin, L + k - 1))
    xp[:, :, pad:pad + L] = x
    db = dout.sum(axis=(0, 2))
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dw[:, :, j] = np.tensordot(dout, xp[:, :, j:j + L],
                                   axes=([0, 2], [0, 2]))
        dxp[:, :, j:j + L] += np.matmul(w[:, :, j].T, dout)
    return dxp[:, :, pad:pad + L], dw, db


def numgrad(f, x, h=1e-6):
    """Central finite differences of scalar-valued f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def test_conv1d_forward_matches_naive():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 9))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4)
    assert np.allclose(conv1d_forward(x, w, b), naive_conv1d(x, w, b),
                       atol=1e-12)


def test_conv1d_forward_identity_kernel():
    x = np.random.default_rng(1).normal(size=(1, 1, 12))
    w = np.zeros((1, 1, 3))
    w[0, 0, 1] = 1.0  # center tap: identity
    out = conv1d_forward(x, w, np.zeros(1))
    assert np.allclose(out, x)


def test_conv1d_backward_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 8))
    w = rng.normal(size=(3, 2, 3))
    b = rng.normal(size=3)
    dout = rng.normal(size=(2, 3, 8))

    def loss():
        return float(np.sum(conv1d_forward(x, w, b) * dout))

    dx, dw, db = conv1d_backward(x, w, dout)
    assert np.allclose(dx, numgrad(loss, x), atol=1e-7)
    assert np.allclose(dw, numgrad(loss, w), atol=1e-7)
    assert np.allclose(db, numgrad(loss, b), atol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 18])
@pytest.mark.parametrize("L", [568, 142, 71])
def test_conv1d_backward_matches_per_tap_oracle(n, L):
    """The batch-flattened backward against the per-window oracle on every
    kernel shape of the default network (k = 7 convs, k = 1 projections
    and head), on windows laid out as the network lays them out: k//2
    zero columns on each side of every window, in x and in dout. Only
    the summation order differs, so dw, db and dx on each window's L
    columns stay within 1e-12 of their own scale."""
    net = ExperimentConfig()  # the default network
    shapes = sorted({a.shape for name, a in init_params(
        net.net_channels, net.kernel_size, net.out_channels, 0).items()
        if name.endswith(".w")})
    assert {k for *_, k in shapes} == {1, 7}
    rng = np.random.default_rng(n * 1000 + L)
    for cout, cin, k in shapes:
        pad = k // 2
        x = rng.normal(size=(n, cin, L))
        w = rng.normal(size=(cout, cin, k))
        dout = rng.normal(size=(n, cout, L))
        dx, dw, db = conv1d_backward(window_pads(x, pad), w,
                                     window_pads(dout, pad))
        got = dx[..., pad:pad + L], dw, db
        for name, g, ref in zip("dx dw db".split(), got,
                                per_tap_conv1d_backward(x, w, dout)):
            assert g.shape == ref.shape, name
            drift = np.max(np.abs(g - ref)) / np.max(np.abs(ref))
            assert drift <= 1e-12, (name, cout, cin, k, drift)


def test_relu():
    x = np.array([[-2.0, 0.0, 3.0]])
    assert np.array_equal(relu_forward(x), [[0.0, 0.0, 3.0]])
    dout = np.ones_like(x)
    assert np.array_equal(relu_backward(x, dout), [[0.0, 0.0, 1.0]])


def test_maxpool2_forward_and_backward():
    x = np.array([[[1.0, 4.0, 2.0, 2.0, -3.0, -1.0]]])
    out, arg = maxpool2_forward(x)
    assert np.array_equal(out, [[[4.0, 2.0, -1.0]]])
    dout = np.array([[[10.0, 20.0, 30.0]]])
    dx = maxpool2_backward(arg, dout)
    # gradient routes only to the argmax slot (first slot on the tie at 2,2)
    assert np.array_equal(dx, [[[0.0, 10.0, 20.0, 0.0, 0.0, 30.0]]])


def test_upsample2_roundtrip_adjoint():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6))
    up = upsample2_forward(x)
    assert up.shape == (2, 3, 12)
    assert np.array_equal(up[..., ::2], x)
    assert np.array_equal(up[..., 1::2], x)
    # adjoint identity: <up(x), y> == <x, up_backward(y)>
    y = rng.normal(size=up.shape)
    lhs = float(np.sum(up * y))
    rhs = float(np.sum(x * upsample2_backward(y)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mse_loss_value_and_gradient():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 2.0], [3.0, 2.0]])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx((1.0 + 0.0 + 0.0 + 4.0) / 4)
    assert np.allclose(grad, 2.0 * (pred - target) / 4)


def test_mse_gradient_finite_differences():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(2, 3, 4))
    target = rng.normal(size=(2, 3, 4))

    def loss():
        return mse_loss(pred, target)[0]

    _, grad = mse_loss(pred, target)
    assert np.allclose(grad, numgrad(loss, pred), atol=1e-7)
