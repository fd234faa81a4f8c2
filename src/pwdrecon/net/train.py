"""Mini-batch training loop with seeded shuffling and best-model tracking."""

from __future__ import annotations

import numpy as np

from .model import backward, forward_batch, init_params, predict
from .ops import mse_loss
from .optim import rmsprop_step

VAL_FRACTION = 0.1  # share of the windows held out for validation


def train(x: np.ndarray, y: np.ndarray, net_channels: tuple[int, int, int],
          kernel_size: int, epochs: int, batch_size: int, seed: int,
          lr: float):
    """Train the reconstruction net of `net_channels` and `kernel_size`
    (init_params) on x (N, L) -> y (N, C, L), with C outputs; returns
    (best_params, log). The seeded parameter draw is cast to the dtype
    of x, and the network computes in it.

    Each epoch takes RMSprop steps of rate `lr` on shuffled batches of
    `batch_size` windows; `seed` fixes the initial parameters, the
    validation split and the shuffles. A seeded fraction of the windows
    is held out for validation and the parameters with the lowest
    validation MSE are returned. The log has one {"epoch", "train_loss",
    "val_loss", "steps"} entry per epoch, "steps" being the RMSprop steps
    that epoch took.
    """
    n = len(x)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = min(int(round(VAL_FRACTION * n)), n - 1)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]

    params = {name: p.astype(x.dtype) for name, p in init_params(
        net_channels, kernel_size, y.shape[1], seed=seed).items()}
    v: dict[str, np.ndarray] = {}

    best = {name: p.copy() for name, p in params.items()}
    best_val = np.inf
    log = []
    for epoch in range(epochs):
        order = fit_idx[rng.permutation(fit_idx.size)]
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, order.size, batch_size):
            idx = order[lo:lo + batch_size]
            pred, cache = forward_batch(params, x[idx])
            loss, dpred = mse_loss(pred, y[idx])
            rmsprop_step(params, backward(params, cache, dpred), v, lr)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        held = val_idx if n_val > 0 else fit_idx
        val_loss, _ = mse_loss(predict(params, x[held]), y[held])
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss, "steps": n_batches})
        if val_loss < best_val:
            best_val = val_loss
            best = {name: p.copy() for name, p in params.items()}
    return best, log
