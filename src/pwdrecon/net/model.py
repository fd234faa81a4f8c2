"""The encoder-decoder reconstruction network and its reverse-mode gradients.

Three encoder blocks (residual 1-D conv stacks followed by max pooling),
a mirrored decoder with nearest-neighbor upsampling and skip
concatenations, and a linear 1x1 head. Everything runs in float64 on
batched (N, C, L) arrays; gradients are hand-derived and validated
against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
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
LENGTH_MULTIPLE = 2 ** N_LEVELS  # input length must divide by 8


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


def _conv(params: dict, name: str, x: np.ndarray) -> np.ndarray:
    return conv1d_forward(x, params[f"{name}.w"], params[f"{name}.b"])


def _conv_backward(params: dict, name: str, x: np.ndarray, dout: np.ndarray,
                   grads: dict) -> np.ndarray:
    """Store the named convolution's weight and bias gradients in `grads`;
    returns the gradient with respect to its input x."""
    dx, grads[f"{name}.w"], grads[f"{name}.b"] = conv1d_backward(
        x, params[f"{name}.w"], dout)
    return dx


def _block_forward(params: dict, name: str, h: np.ndarray):
    a1 = _conv(params, f"{name}.conv0", h)
    r1 = relu_forward(a1)
    a2 = _conv(params, f"{name}.conv1", r1)
    r2 = relu_forward(a2)
    a3 = _conv(params, f"{name}.conv2", r2)
    if f"{name}.proj.w" in params:
        s = a3 + _conv(params, f"{name}.proj", h)
    else:
        s = a3 + h
    out = relu_forward(s)
    cache = {"h": h, "a1": a1, "r1": r1, "a2": a2, "r2": r2, "s": s}
    return out, cache


def _block_backward(params: dict, name: str, cache: dict, dout: np.ndarray,
                    grads: dict):
    ds = relu_backward(cache["s"], dout)
    dr2 = _conv_backward(params, f"{name}.conv2", cache["r2"], ds, grads)
    da2 = relu_backward(cache["a2"], dr2)
    dr1 = _conv_backward(params, f"{name}.conv1", cache["r1"], da2, grads)
    da1 = relu_backward(cache["a1"], dr1)
    dh = _conv_backward(params, f"{name}.conv0", cache["h"], da1, grads)
    if f"{name}.proj.w" in params:
        dh = dh + _conv_backward(params, f"{name}.proj", cache["h"], ds,
                                 grads)
    else:
        dh = dh + ds
    return dh


def forward_batch(params: dict[str, np.ndarray], x: np.ndarray):
    """Run the full network on x (N, 1, L); L divisible by 8.

    Returns (y, cache); y has shape (N, out_channels, L). The cache holds
    every intermediate needed by `backward`.
    """
    if x.ndim != 3 or x.shape[1] != 1:
        raise ShapeMismatch(f"expected (N, 1, L), got {x.shape}")
    if x.shape[2] % LENGTH_MULTIPLE != 0:
        raise ShapeMismatch(
            f"length {x.shape[2]} not divisible by {LENGTH_MULTIPLE}")

    cache = {"enc": [], "pool_arg": [], "dec": [], "cat_split": []}
    h = x
    pre_pools = []
    for i in range(N_LEVELS):
        pre, bc = _block_forward(params, f"enc{i}", h)
        cache["enc"].append(bc)
        pre_pools.append(pre)
        h, arg = maxpool2_forward(pre)
        cache["pool_arg"].append(arg)

    for i in range(N_LEVELS):
        up = upsample2_forward(h)
        cat = np.concatenate([up, pre_pools[N_LEVELS - 1 - i]], axis=1)
        cache["cat_split"].append(up.shape[1])
        h, bc = _block_forward(params, f"dec{i}", cat)
        cache["dec"].append(bc)

    cache["head_in"] = h
    y = _conv(params, "head", h)
    return y, cache


def backward(params: dict[str, np.ndarray], cache: dict,
             grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter given d(loss)/d(output).

    Returns a dict with the same names as `params`.
    """
    grads: dict[str, np.ndarray] = {}
    dh = _conv_backward(params, "head", cache["head_in"], grad_out, grads)

    # decoder, top (shallowest) to bottom
    skip_grads = [None] * N_LEVELS  # indexed by encoder level
    for i in range(N_LEVELS - 1, -1, -1):
        dcat = _block_backward(params, f"dec{i}", cache["dec"][i], dh, grads)
        n_up = cache["cat_split"][i]
        skip_grads[N_LEVELS - 1 - i] = dcat[:, n_up:]
        dh = upsample2_backward(dcat[:, :n_up])

    # encoder, deepest to shallowest; dh is grad wrt the last pooled output
    for i in range(N_LEVELS - 1, -1, -1):
        dpre = maxpool2_backward(cache["pool_arg"][i], dh) + skip_grads[i]
        dh = _block_backward(params, f"enc{i}", cache["enc"][i], dpre, grads)
    return grads


def padded_length(L: int) -> int:
    return -(-L // LENGTH_MULTIPLE) * LENGTH_MULTIPLE


def predict(params: dict[str, np.ndarray], x: np.ndarray,
            batch_size: int) -> np.ndarray:
    """Predict envelope windows; pads to a multiple of 8, crops back.

    x: (N, L) -> output (N, out_channels, L). The network runs on at most
    batch_size windows at a time.
    """
    n, L = x.shape
    xp = np.zeros((n, 1, padded_length(L)))
    xp[:, 0, :L] = x
    out = np.empty((n, params["head.w"].shape[0], L))
    for lo in range(0, n, batch_size):
        y, _ = forward_batch(params, xp[lo:lo + batch_size])
        out[lo:lo + batch_size] = y[:, :, :L]
    return out
