"""Mini-batch training loop with seeded shuffling and best-model tracking."""

from __future__ import annotations

import numpy as np

from ..errors import EmptyDataset
from .model import backward, forward_batch, init_params, padded_length, predict
from .ops import mse_loss
from .optim import rmsprop_step

VAL_FRACTION = 0.1  # share of the windows held out for validation


def train(x: np.ndarray, y: np.ndarray, net_channels: tuple[int, int, int],
          kernel_size: int, epochs: int, batch_size: int, seed: int,
          lr: float):
    """Train the reconstruction net of `net_channels` and `kernel_size`
    (init_params) on x (N, L) -> y (N, C, L), with C outputs; returns
    (best_params, log).

    Each epoch takes RMSprop steps of rate `lr` on shuffled batches of
    `batch_size` windows; `seed` fixes the initial parameters, the
    validation split and the shuffles. A seeded fraction of the windows
    is held out for validation and the parameters with the lowest validation MSE are returned. The log has
    one {"epoch", "train_loss", "val_loss"} entry per epoch.
    """
    n, L = x.shape
    if n == 0:
        raise EmptyDataset("training requires at least one window")
    X = np.zeros((n, 1, padded_length(L)))  # zero right-pad to a multiple of 8
    X[:, 0, :L] = x
    Y = np.asarray(y, dtype=np.float64)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(round(VAL_FRACTION * n)) if n >= 2 else 0
    n_val = min(n_val, n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    params = init_params(net_channels, kernel_size, Y.shape[1], seed=seed)
    v: dict[str, np.ndarray] = {}

    best = {name: p.copy() for name, p in params.items()}
    best_val = np.inf
    log = []
    for epoch in range(epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, order.size, batch_size):
            idx = order[lo:lo + batch_size]
            pred, cache = forward_batch(params, X[idx])
            loss, dpred = mse_loss(pred[:, :, :L], Y[idx])
            grad_out = np.zeros_like(pred)
            grad_out[:, :, :L] = dpred
            grads = backward(params, cache, grad_out)
            rmsprop_step(params, grads, v, lr)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        held = val_idx if n_val > 0 else train_idx
        val_loss, _ = mse_loss(predict(params, x[held], batch_size),
                               Y[held])
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best = {name: p.copy() for name, p in params.items()}
    return best, log
