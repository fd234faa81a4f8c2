"""Mini-batch training loop with seeded shuffling and best-model tracking."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyDataset
from .model import (
    NetConfig,
    backward,
    forward_batch,
    init_params,
    padded_length,
    predict,
)
from .ops import mse_loss
from .optim import RmspropState, rmsprop_step


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0
    val_fraction: float = 0.1
    lr: float = 1e-3


def train(x: np.ndarray, y: np.ndarray, net_config: NetConfig,
          config: TrainConfig):
    """Train the reconstruction net on x (N, L) -> y (N, C, L); returns
    (best_params, log).

    A seeded fraction of the windows is held out for validation and the
    parameters with the lowest validation MSE are returned. The log has
    one {"epoch", "train_loss", "val_loss"} entry per epoch.
    """
    n, L = x.shape
    if n == 0:
        raise EmptyDataset("training requires at least one window")
    X = np.zeros((n, 1, padded_length(L)))  # zero right-pad to a multiple of 8
    X[:, 0, :L] = x
    Y = np.asarray(y, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_val = int(round(config.val_fraction * n)) if n >= 2 else 0
    n_val = min(n_val, n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    params = init_params(net_config, seed=config.seed)
    state = RmspropState(lr=config.lr)

    best = copy.deepcopy(params)
    best_val = np.inf
    log = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            pred, cache = forward_batch(params, X[idx])
            loss, dpred = mse_loss(pred[:, :, :L], Y[idx])
            grad_out = np.zeros_like(pred)
            grad_out[:, :, :L] = dpred
            grads = backward(params, cache, grad_out)
            rmsprop_step(params, grads, state)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        held = val_idx if n_val > 0 else train_idx
        val_loss, _ = mse_loss(predict(params, x[held], config.batch_size),
                               Y[held])
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best = copy.deepcopy(params)
    return best, log
