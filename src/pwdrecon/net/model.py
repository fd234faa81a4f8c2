"""The encoder-decoder reconstruction network and its reverse-mode gradients.

Three encoder blocks (residual 1-D conv stacks followed by max pooling),
a mirrored decoder with nearest-neighbor upsampling and skip
concatenations, and a linear 1x1 head. Everything runs in float64 on
batched (N, C, L) arrays; gradients are hand-derived and validated
against finite differences.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..core import from_json_dict, to_json_dict
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


@dataclass
class ConvSpec:
    """One 1-D convolution: weights (out, in, k) and bias (out,)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.w.ndim != 3 or self.w.shape[2] % 2 == 0:
            raise ValueError("kernel must be (out, in, k) with k odd")
        if self.b.shape != (self.w.shape[0],):
            raise ValueError("bias shape inconsistent with kernel")


@dataclass
class BlockParams:
    """Residual stack of three convolutions; the 1x1 projection is present
    when the block changes the channel count."""

    convs: list[ConvSpec]
    proj: ConvSpec | None


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters; defaults sized for CPU training."""

    out_channels: int = 2
    channels: tuple[int, int, int] = (16, 32, 64)
    kernel_size: int = 7

    def to_json(self) -> str:
        return json.dumps(to_json_dict(self), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "NetConfig":
        return from_json_dict(NetConfig, json.loads(s))


@dataclass
class PwDRecNetParams:
    """All trainable parameters of the network."""

    config: NetConfig
    encoder: list[BlockParams]
    decoder: list[BlockParams]
    head: ConvSpec

    def items(self):
        """Deterministically ordered (name, array) parameter pairs."""
        for tag, blocks in (("enc", self.encoder), ("dec", self.decoder)):
            for i, blk in enumerate(blocks):
                for j, c in enumerate(blk.convs):
                    yield f"{tag}{i}.conv{j}.w", c.w
                    yield f"{tag}{i}.conv{j}.b", c.b
                if blk.proj is not None:
                    yield f"{tag}{i}.proj.w", blk.proj.w
                    yield f"{tag}{i}.proj.b", blk.proj.b
        yield "head.w", self.head.w
        yield "head.b", self.head.b


def _init_conv(rng, c_in: int, c_out: int, k: int) -> ConvSpec:
    lim = np.sqrt(6.0 / (c_in * k))
    return ConvSpec(w=rng.uniform(-lim, lim, size=(c_out, c_in, k)),
                    b=np.zeros(c_out))


def _init_block(rng, c_in: int, c_out: int, k: int) -> BlockParams:
    convs = [_init_conv(rng, c_in, c_out, k),
             _init_conv(rng, c_out, c_out, k),
             _init_conv(rng, c_out, c_out, k)]
    proj = _init_conv(rng, c_in, c_out, 1) if c_in != c_out else None
    return BlockParams(convs=convs, proj=proj)


def init_params(config: NetConfig, seed: int) -> PwDRecNetParams:
    """Seeded uniform fan-in initialization, zero biases."""
    rng = np.random.default_rng(seed)
    k = config.kernel_size
    ch = config.channels
    enc_in = (1, ch[0], ch[1])
    encoder = [_init_block(rng, enc_in[i], ch[i], k) for i in range(N_LEVELS)]
    dec_out = (ch[2], ch[1], ch[0])
    dec_src = (ch[2], dec_out[0], dec_out[1])   # channels arriving from below
    skip_ch = (ch[2], ch[1], ch[0])             # matching encoder pre-pool
    decoder = [_init_block(rng, dec_src[i] + skip_ch[i], dec_out[i], k)
               for i in range(N_LEVELS)]
    head = _init_conv(rng, dec_out[-1], config.out_channels, 1)
    return PwDRecNetParams(config=config, encoder=encoder, decoder=decoder,
                           head=head)


def _block_forward(blk: BlockParams, h: np.ndarray):
    a1 = conv1d_forward(h, blk.convs[0].w, blk.convs[0].b)
    r1 = relu_forward(a1)
    a2 = conv1d_forward(r1, blk.convs[1].w, blk.convs[1].b)
    r2 = relu_forward(a2)
    a3 = conv1d_forward(r2, blk.convs[2].w, blk.convs[2].b)
    if blk.proj is not None:
        s = a3 + conv1d_forward(h, blk.proj.w, blk.proj.b)
    else:
        s = a3 + h
    out = relu_forward(s)
    cache = {"h": h, "a1": a1, "r1": r1, "a2": a2, "r2": r2, "s": s}
    return out, cache


def _block_backward(blk: BlockParams, cache: dict, dout: np.ndarray,
                    grads: dict, name: str):
    ds = relu_backward(cache["s"], dout)
    dr2, dw3, db3 = conv1d_backward(cache["r2"], blk.convs[2].w, ds)
    da2 = relu_backward(cache["a2"], dr2)
    dr1, dw2, db2 = conv1d_backward(cache["r1"], blk.convs[1].w, da2)
    da1 = relu_backward(cache["a1"], dr1)
    dh, dw1, db1 = conv1d_backward(cache["h"], blk.convs[0].w, da1)
    if blk.proj is not None:
        dh_res, dwp, dbp = conv1d_backward(cache["h"], blk.proj.w, ds)
        grads[f"{name}.proj.w"] = dwp
        grads[f"{name}.proj.b"] = dbp
        dh = dh + dh_res
    else:
        dh = dh + ds
    grads[f"{name}.conv0.w"] = dw1
    grads[f"{name}.conv0.b"] = db1
    grads[f"{name}.conv1.w"] = dw2
    grads[f"{name}.conv1.b"] = db2
    grads[f"{name}.conv2.w"] = dw3
    grads[f"{name}.conv2.b"] = db3
    return dh


def forward_batch(params: PwDRecNetParams, x: np.ndarray):
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
    for i, blk in enumerate(params.encoder):
        pre, bc = _block_forward(blk, h)
        cache["enc"].append(bc)
        pre_pools.append(pre)
        h, arg = maxpool2_forward(pre)
        cache["pool_arg"].append(arg)

    for i, blk in enumerate(params.decoder):
        up = upsample2_forward(h)
        cat = np.concatenate([up, pre_pools[N_LEVELS - 1 - i]], axis=1)
        cache["cat_split"].append(up.shape[1])
        h, bc = _block_forward(blk, cat)
        cache["dec"].append(bc)

    cache["head_in"] = h
    y = conv1d_forward(h, params.head.w, params.head.b)
    return y, cache


def backward(params: PwDRecNetParams, cache: dict, grad_out: np.ndarray):
    """Exact gradients of every parameter given d(loss)/d(output).

    Returns a dict keyed like `params.items()` names.
    """
    grads: dict[str, np.ndarray] = {}

    dh, dwh, dbh = conv1d_backward(cache["head_in"], params.head.w, grad_out)
    grads["head.w"] = dwh
    grads["head.b"] = dbh

    # decoder, top (shallowest) to bottom
    skip_grads = [None] * N_LEVELS  # indexed by encoder level
    for i in range(N_LEVELS - 1, -1, -1):
        dcat = _block_backward(params.decoder[i], cache["dec"][i], dh,
                               grads, f"dec{i}")
        n_up = cache["cat_split"][i]
        skip_grads[N_LEVELS - 1 - i] = dcat[:, n_up:]
        dh = upsample2_backward(dcat[:, :n_up])

    # encoder, deepest to shallowest; dh is grad wrt the last pooled output
    for i in range(N_LEVELS - 1, -1, -1):
        dpre = maxpool2_backward(cache["pool_arg"][i], dh) + skip_grads[i]
        dh = _block_backward(params.encoder[i], cache["enc"][i], dpre,
                             grads, f"enc{i}")
    return grads


def padded_length(L: int) -> int:
    return -(-L // LENGTH_MULTIPLE) * LENGTH_MULTIPLE


def predict(params: PwDRecNetParams, x: np.ndarray,
            batch_size: int) -> np.ndarray:
    """Predict envelope windows; pads to a multiple of 8, crops back.

    x: (N, L) -> output (N, out_channels, L). The network runs on at most
    batch_size windows at a time.
    """
    n, L = x.shape
    xp = np.zeros((n, 1, padded_length(L)))
    xp[:, 0, :L] = x
    out = np.empty((n, params.config.out_channels, L))
    for lo in range(0, n, batch_size):
        y, _ = forward_batch(params, xp[lo:lo + batch_size])
        out[lo:lo + batch_size] = y[:, :, :L]
    return out


CHECKPOINT_VERSION = 2


def save_checkpoint(params: PwDRecNetParams, path: str) -> None:
    """Dump all parameters plus config to an .npz; round trip is bit-exact."""
    cfg_json = params.config.to_json()
    arrays = {name: a for name, a in params.items()}
    np.savez(path,
             __version__=np.array(CHECKPOINT_VERSION),
             __config__=np.frombuffer(cfg_json.encode(), dtype=np.uint8),
             __config_sha256__=np.frombuffer(
                 hashlib.sha256(cfg_json.encode()).digest(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path: str) -> PwDRecNetParams:
    with np.load(path) as z:
        version = int(z["__version__"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg_json = bytes(z["__config__"].tobytes()).decode()
        if hashlib.sha256(cfg_json.encode()).digest() != \
                z["__config_sha256__"].tobytes():
            raise ValueError("checkpoint config hash mismatch")
        cfg = NetConfig.from_json(cfg_json)
        params = init_params(cfg, seed=0)
        for name, a in params.items():
            found = z[name].shape if name in z else "missing"
            if found != a.shape:
                raise ShapeMismatch(f"{path}: parameter {name} is {found}, "
                                    f"expected shape {a.shape}")
            a[...] = z[name]
    return params
