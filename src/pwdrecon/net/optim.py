"""RMSprop: the only optimizer used for training the reconstruction net."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

RHO = 0.9  # decay of the squared-gradient average
EPS = 1e-8


def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 v: dict[str, np.ndarray], lr: float) -> None:
    """v <- rho*v + (1-rho)*g^2;  p <- p - lr * g / (sqrt(v) + eps).

    `v` holds each parameter's squared-gradient average under the
    parameter's name; a missing entry starts at zero. Updates `params`
    and `v` in place.
    """
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ShapeMismatch(f"missing gradient for {name}")
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} != parameter shape {p.shape}")
        acc = v.get(name)
        if acc is None:
            acc = v[name] = np.zeros_like(p)
        acc *= RHO
        acc += (1.0 - RHO) * g * g
        p -= lr * g / (np.sqrt(acc) + EPS)
