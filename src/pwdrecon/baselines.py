"""Linear, Ridge and Lasso baselines on flattened window pairs.

Each maps a flattened fECG window (d = L) to a flattened envelope window
(m = L * out_channels). OLS/ridge are solved by normal equations; lasso
by cyclic coordinate descent with soft thresholding, vectorized over the
output columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


@dataclass
class LinearMap:
    """y = W x + b with optional regularization metadata."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)
    kind: str = "ols"   # "ols" | "ridge" | "lasso"
    lam: float = 0.0
    converged: bool = True
    n_iter: int = 0


def _center(X: np.ndarray, Y: np.ndarray):
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    return X - xm, Y - ym, xm, ym


def ols_fit(X: np.ndarray, Y: np.ndarray, jitter: float = 1e-10) -> LinearMap:
    """Least squares via normal equations with a tiny ridge jitter.

    The jitter keeps rank-deficient designs solvable without materially
    changing well-posed solutions.
    """
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    Xc, Yc, xm, ym = _center(X, Y)
    d = X.shape[1]
    W = np.linalg.solve(Xc.T @ Xc + jitter * np.eye(d), Xc.T @ Yc)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, kind="ols")


def ridge_fit(X: np.ndarray, Y: np.ndarray, lam: float) -> LinearMap:
    """Minimize ||XW + b - Y||^2 + lam * ||W||_F^2 with unpenalized bias."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    Xc, Yc, xm, ym = _center(X, Y)
    d = X.shape[1]
    W = np.linalg.solve(Xc.T @ Xc + (lam + 1e-10) * np.eye(d), Xc.T @ Yc)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, kind="ridge", lam=lam)


def lasso_lambda_max(X: np.ndarray, Y: np.ndarray) -> float:
    """Smallest lambda for which the lasso solution is exactly zero."""
    Xc, Yc, _, _ = _center(np.atleast_2d(X), np.atleast_2d(Y))
    return float(np.abs(Xc.T @ Yc).max() / X.shape[0])


def lasso_fit(X: np.ndarray, Y: np.ndarray, lam: float,
              max_iter: int = 1000, tol: float = 1e-6) -> LinearMap:
    """Cyclic coordinate descent on (1/2n)||Y - XW - b||^2 + lam*|W|_1.

    Converged when the largest coefficient change in a sweep drops below
    tol; otherwise the result is flagged converged=False.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X, Y = np.atleast_2d(np.asarray(X, float)), np.atleast_2d(np.asarray(Y, float))
    n, d = X.shape
    m = Y.shape[1]
    Xc, Yc, xm, ym = _center(X, Y)
    col_sq = (Xc ** 2).sum(axis=0)

    W = np.zeros((d, m))
    R = Yc.copy()                     # residual Yc - Xc @ W
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            w_old = W[j].copy()
            rho = Xc[:, j] @ R + col_sq[j] * w_old
            w_new = np.sign(rho) * np.maximum(np.abs(rho) / n - lam, 0.0)
            w_new /= col_sq[j] / n
            delta = w_new - w_old
            nz = delta != 0.0
            if np.any(nz):
                R[:, nz] -= np.outer(Xc[:, j], delta[nz])
                W[j] = w_new
                max_delta = max(max_delta, float(np.abs(delta).max()))
        if max_delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"lasso did not converge in {max_iter} sweeps",
                      RuntimeWarning)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, kind="lasso", lam=lam,
                     converged=converged, n_iter=it)


def linmap_predict(m: LinearMap, x: np.ndarray) -> np.ndarray:
    """Apply y = Wx + b to one vector or a (n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.size != m.weight.shape[1]:
            raise ShapeMismatch(f"x has {x.size} features, "
                                f"map expects {m.weight.shape[1]}")
        return m.weight @ x + m.bias
    if x.shape[1] != m.weight.shape[1]:
        raise ShapeMismatch(f"x has {x.shape[1]} features, "
                            f"map expects {m.weight.shape[1]}")
    return x @ m.weight.T + m.bias


def save_linear_map(m: LinearMap, path: str) -> None:
    """Write every LinearMap field to an .npz; the round trip is bit-exact."""
    np.savez(path, weight=m.weight, bias=m.bias, kind=np.array(m.kind),
             lam=np.array(m.lam), converged=np.array(m.converged),
             n_iter=np.array(m.n_iter))


def load_linear_map(path: str) -> LinearMap:
    with np.load(path) as z:
        return LinearMap(weight=z["weight"], bias=z["bias"],
                         kind=str(z["kind"]), lam=float(z["lam"]),
                         converged=bool(z["converged"]),
                         n_iter=int(z["n_iter"]))


def lasso_objective(X: np.ndarray, Y: np.ndarray, m: LinearMap) -> float:
    """(1/2n)||Y - XW - b||^2 + lam*|W|_1, for the monotonicity property."""
    resid = Y - linmap_predict(m, X)
    n = X.shape[0]
    return float((resid ** 2).sum() / (2 * n)
                 + m.lam * np.abs(m.weight).sum())
