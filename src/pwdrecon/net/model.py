"""The encoder-decoder reconstruction network and its reverse-mode gradients.

Three encoder blocks (residual 1-D conv stacks followed by max pooling),
a mirrored decoder with nearest-neighbor upsampling and skip
concatenations, and a linear 1x1 head. Everything runs in the
parameters' dtype on one padded channel-major batch layout, k//2 zero
columns on each side of every window; this module alone writes them, so
that the convolutions, which run over the flat batch, never mix two
windows. Gradients are hand-derived and validated against finite
differences.
"""

from __future__ import annotations

import numpy as np

from .ops import (
    conv1d_backward,
    conv1d_forward,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    relu_forward,
    upsample2_backward,
    upsample2_forward,
)

N_LEVELS = 3
LENGTH_MULTIPLE = 2 ** N_LEVELS  # three halvings need a multiple of 8


def init_params(channels: tuple[int, int, int], kernel_size: int,
                out_channels: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform fan-in initialization, zero biases, of the network
    whose encoder blocks have `channels`, whose convolutions are
    `kernel_size` taps wide and whose head has `out_channels` outputs.

    Returns every trainable array by name: "enc<i>.conv<j>.w"/".b" for
    the three convolutions of encoder block i, "enc<i>.proj.w"/".b" for
    its 1x1 projection (present when the block changes the channel
    count), the same under "dec<i>", then "head.w"/".b". Weights are
    (out, in, k), biases (out,). Insertion order is the draw order and
    the model file's layout.
    """
    rng = np.random.default_rng(seed)
    k, ch = kernel_size, channels
    params: dict[str, np.ndarray] = {}

    def conv(name: str, c_in: int, c_out: int, k: int) -> None:
        lim = np.sqrt(6.0 / (c_in * k))
        params[f"{name}.w"] = rng.uniform(-lim, lim, size=(c_out, c_in, k))
        params[f"{name}.b"] = np.zeros(c_out)

    # (name, c_in, c_out); a decoder block takes the upsampled output of
    # the block below concatenated with the matching encoder skip
    blocks = [("enc0", 1, ch[0]), ("enc1", ch[0], ch[1]),
              ("enc2", ch[1], ch[2]), ("dec0", ch[2] + ch[2], ch[2]),
              ("dec1", ch[2] + ch[1], ch[1]), ("dec2", ch[1] + ch[0], ch[0])]
    for name, c_in, c_out in blocks:
        conv(f"{name}.conv0", c_in, c_out, k)
        conv(f"{name}.conv1", c_out, c_out, k)
        conv(f"{name}.conv2", c_out, c_out, k)
        if c_in != c_out:
            conv(f"{name}.proj", c_in, c_out, 1)
    conv("head", ch[0], out_channels, 1)
    return params


def _valid(a: np.ndarray, pad: int) -> np.ndarray:
    return a[..., pad:a.shape[-1] - pad]  # each window between its pads


def _padded(a: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(a, ((0, 0), (0, 0), (pad, pad)))


def _conv(params: dict, name: str, x: np.ndarray, pad: int) -> np.ndarray:
    # the one writer of conv output pads, which the kernel fills across windows
    y = conv1d_forward(x.transpose(1, 0, 2), params[f"{name}.w"],
                       params[f"{name}.b"]).transpose(1, 0, 2)
    y[..., :pad] = y[..., y.shape[-1] - pad:] = 0.0
    return y


def _conv_backward(params: dict, name: str, x: np.ndarray, dout: np.ndarray,
                   grads: dict) -> np.ndarray:
    """Store the named conv's w and b gradients in `grads`; returns d/dx."""
    dx, grads[f"{name}.w"], grads[f"{name}.b"] = conv1d_backward(
        x.transpose(1, 0, 2), params[f"{name}.w"], dout.transpose(1, 0, 2))
    return dx.transpose(1, 0, 2)


def _block_forward(params: dict, name: str, h: np.ndarray, pad: int):
    r1 = relu_forward(_conv(params, f"{name}.conv0", h, pad))
    r2 = relu_forward(_conv(params, f"{name}.conv1", r1, pad))
    proj = (_conv(params, f"{name}.proj", h, pad)
            if f"{name}.proj.w" in params else h)
    s = _conv(params, f"{name}.conv2", r2, pad) + proj
    # a ReLU's mask reads its output: r > 0 exactly where its input is
    return relu_forward(s), {"h": h, "r1": r1, "r2": r2, "s": s}


def _block_backward(params: dict, name: str, cache: dict, dout: np.ndarray,
                    grads: dict):
    # the masks are zero on the pads, so every conv's dout is too
    ds = relu_backward(cache["s"], dout)
    dr2 = _conv_backward(params, f"{name}.conv2", cache["r2"], ds, grads)
    da2 = relu_backward(cache["r2"], dr2)
    dr1 = _conv_backward(params, f"{name}.conv1", cache["r1"], da2, grads)
    da1 = relu_backward(cache["r1"], dr1)
    dh = _conv_backward(params, f"{name}.conv0", cache["h"], da1, grads)
    return dh + (_conv_backward(params, f"{name}.proj", cache["h"], ds, grads)
                 if f"{name}.proj.w" in params else ds)


def forward_batch(params: dict[str, np.ndarray], x: np.ndarray):
    """Run the full network on windows x (N, L) of any length L.

    Returns (y, cache); y has shape (N, out_channels, L). Each window is
    zero-padded on the right to L8, a multiple of 8, and the output is
    cropped back to L. The cache holds what `backward` needs, activations
    channel-major as (C, N, L' + 2*pad): `pad` = kernel_size // 2 zero
    columns on each side of every window.
    """
    n, L = x.shape
    pad = params["enc0.conv0.w"].shape[2] // 2
    cache = {"pad": pad, "enc": [], "pool_arg": [], "dec": []}
    h = np.zeros((1, n, -(-L // LENGTH_MULTIPLE) * LENGTH_MULTIPLE + 2 * pad),
                 dtype=params["head.w"].dtype)
    h[0, :, pad:pad + L] = x
    pre_pools = []
    for i in range(N_LEVELS):
        pre, bc = _block_forward(params, f"enc{i}", h, pad)
        cache["enc"].append(bc)
        pre_pools.append(pre)
        h, arg = maxpool2_forward(_valid(pre, pad))
        h = _padded(h, pad)
        cache["pool_arg"].append(arg)

    for i in range(N_LEVELS):
        up = _padded(upsample2_forward(_valid(h, pad)), pad)
        cat = np.concatenate([up, pre_pools[N_LEVELS - 1 - i]])
        h, bc = _block_forward(params, f"dec{i}", cat, pad)
        cache["dec"].append(bc)

    cache["head_in"] = h
    y = _conv(params, "head", h, pad)
    return y[..., pad:pad + L].transpose(1, 0, 2), cache


def backward(params: dict[str, np.ndarray], cache: dict,
             grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter, by its name in `params`, given
    grad_out (N, out_channels, L) = d(loss)/d(output of forward_batch)."""
    pad = cache["pad"]
    grads: dict[str, np.ndarray] = {}
    dy = np.zeros((grad_out.shape[1], *cache["head_in"].shape[1:]),
                  dtype=params["head.w"].dtype)
    dy[..., pad:pad + grad_out.shape[2]] = grad_out.transpose(1, 0, 2)
    dh = _conv_backward(params, "head", cache["head_in"], dy, grads)

    # decoder, top (shallowest) to bottom
    skip_grads = [None] * N_LEVELS  # indexed by encoder level
    for i in range(N_LEVELS - 1, -1, -1):
        dcat = _block_backward(params, f"dec{i}", cache["dec"][i], dh, grads)
        n_up = len(dcat) - len(cache["enc"][N_LEVELS - 1 - i]["s"])
        skip_grads[N_LEVELS - 1 - i] = dcat[n_up:]
        dh = _padded(upsample2_backward(_valid(dcat[:n_up], pad)), pad)

    # encoder, deepest to shallowest; dh is grad wrt the last pooled output
    for i in range(N_LEVELS - 1, -1, -1):
        dpre = _padded(maxpool2_backward(cache["pool_arg"][i],
                                         _valid(dh, pad)), pad) + skip_grads[i]
        dh = _block_backward(params, f"enc{i}", cache["enc"][i], dpre, grads)
    return grads


def predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Predict envelope windows: x (N, L) -> output (N, out_channels, L),
    float64 whatever the parameters' dtype.

    One window per forward pass: batch-wide GEMMs sum in an order that
    depends on the batch.
    """
    out = np.empty((len(x), params["head.w"].shape[0], x.shape[1]))
    for i in range(len(x)):
        out[i] = forward_batch(params, x[i:i + 1])[0][0]
    return out
