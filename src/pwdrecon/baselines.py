"""Linear, Ridge and Lasso baselines on flattened window pairs.

Each maps a flattened fECG window (d = L) to a flattened envelope window
(m = L * out_channels). OLS and ridge solve the smaller of the d x d
normal equations and the n x n dual system. Lasso follows each output
column's exact solution path (the lasso homotopy, LARS-lasso) down to the
requested penalty, many columns in lockstep within a memory budget, and
certifies the result with each column's relative duality gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch

# a feature whose column keeps less than this share of its squared norm
# outside the span of the active columns would make the active Gram
# block singular: it may not enter the active set
_DEPENDENT = 1e-10
# lasso_fit follows the output columns in groups whose active-set
# inverses, at most rank(Xc)^2 floats per column, stay within this many bytes
_BLOCK_BYTES = 64 << 20


@dataclass
class LinearMap:
    """y = W x + b with optional regularization metadata."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)
    kind: str = "ols"   # "ols" | "ridge" | "lasso"
    lam: float = 0.0
    converged: bool = True
    n_iter: int = 0
    gap: float = 0.0    # lasso: largest per-column certificate (see lasso_fit)


def _center(X: np.ndarray, Y: np.ndarray):
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    return X - xm, Y - ym, xm, ym


def ols_fit(X: np.ndarray, Y: np.ndarray) -> LinearMap:
    """Least squares: ridge with only its 1e-10 jitter."""
    return replace(ridge_fit(X, Y, 0.0), kind="ols")


def ridge_fit(X: np.ndarray, Y: np.ndarray, lam: float) -> LinearMap:
    """Minimize ||XW + b - Y||^2 + lam * ||W||_F^2 with unpenalized bias.

    Solved by the smaller of the d x d normal equations and the n x n dual
    system W = Xc^T (Xc Xc^T + lam I)^-1 Yc, which give the same W. A 1e-10
    jitter on the diagonal keeps rank-deficient designs solvable; with
    n < d and lam = 0 it picks the minimum-norm least-squares solution.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    Xc, Yc, xm, ym = _center(X, Y)
    n, d = X.shape
    if n < d:
        W = Xc.T @ np.linalg.solve(Xc @ Xc.T + (lam + 1e-10) * np.eye(n), Yc)
    else:
        W = np.linalg.solve(Xc.T @ Xc + (lam + 1e-10) * np.eye(d), Xc.T @ Yc)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, kind="ridge", lam=lam)


def lasso_lambda_max(X: np.ndarray, Y: np.ndarray) -> float:
    """Smallest lambda for which the lasso solution is exactly zero."""
    Xc, Yc, _, _ = _center(np.atleast_2d(X), np.atleast_2d(Y))
    return float(np.abs(Xc.T @ Yc).max() / X.shape[0])


def lasso_fit(X: np.ndarray, Y: np.ndarray, lam: float,
              max_iter: int = 1000, tol: float = 1e-6) -> LinearMap:
    """Exact lasso homotopy on (1/2n)||Y - XW - b||^2 + lam*|W|_1.

    Each output column's solution is piecewise linear in the penalty and
    is followed from zero at the column's lambda_max down to lam (see
    _homotopy). The columns are followed in lockstep, in groups whose
    active-set inverses, at most 8 * group * rank(Xc)^2 bytes, fit in
    _BLOCK_BYTES. With fewer windows than samples (n << d) all columns
    form one group; with n >= d, rank(Xc) = d and a 2 s window (d = 568,
    m = 1136) takes groups of 26. max_iter bounds each group's steps and
    n_iter reports the most steps taken.

    The result is certified per column by its relative duality gap
    (P - D) / P, with the residual rescaled to a feasible dual point;
    at lam = 0, where that point is undefined, by the KKT residual
    max|Xc^T r| / max|Xc^T y|. `gap` is the largest over the columns and
    converged is gap <= tol.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X, Y = np.atleast_2d(np.asarray(X, float)), np.atleast_2d(np.asarray(Y, float))
    n, d = X.shape
    m = Y.shape[1]
    Xc, Yc, xm, ym = _center(X, Y)
    Gram = Xc.T @ Xc / n
    # (m, d) correlations at W = 0, formed as lasso_lambda_max forms them
    Xty = np.ascontiguousarray((Xc.T @ Yc / n).T)
    rank = int(np.linalg.matrix_rank(Xc))
    group = max(1, _BLOCK_BYTES // (8 * max(rank, 1) ** 2))
    W = np.zeros((d, m))
    it = 0
    for s in range(0, m, group):
        g = slice(s, s + group)
        W[:, g], steps = _homotopy(Xc, Yc[:, g], Gram, Xty[g], rank, lam,
                                   max_iter)
        it = max(it, steps)
    gaps = _relative_gaps(Xc, Yc, W, lam)
    gap = float(gaps.max())
    converged = gap <= tol
    if not converged:
        warnings.warn(f"lasso did not converge in {it} steps: relative "
                      f"duality gap {gap:.3g} > tol {tol:g}", RuntimeWarning)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, kind="lasso", lam=lam,
                     converged=converged, n_iter=it, gap=gap)


def _homotopy(Xc, Yc, Gram, Xty, rank, lam, max_iter):
    """The lasso weights (d, m) of Yc's columns at lam and the steps taken.

    Every step moves all unfinished columns to their next event: a
    feature entering the active set, an active weight reaching zero and
    leaving it, or the target lam. Each unfinished column carries the
    inverse of its active Gram block (zero outside its active entries), so
    a step takes batched products with the inverses and one product with
    Xc^T for the correlations. The active set never grows past rank(Xc),
    and a feature whose column lies in the span of the active ones never
    enters. A feature that has just left needs no rule of its own: on the
    exact path its correlation moves away from +-lam (slope > 1).
    """
    n, d = Xc.shape
    m = Yc.shape[1]
    K = max(rank, 1)
    act = np.zeros((m, K), dtype=np.intp)
    sgn = np.zeros((m, K))
    k = np.zeros(m, dtype=np.intp)
    lam_path = np.abs(Xty).max(axis=1)
    live = lam_path > lam
    Ginv = np.zeros((live.sum(), 1, 1))     # the live columns' inverses
    blocked = np.zeros((m, d), dtype=bool)
    it = 0
    while live.any() and it < max_iter:
        it += 1
        cols = np.flatnonzero(live)
        c = cols.size
        lam_c = lam_path[cols]
        rows = np.arange(c)
        kk = Ginv.shape[1]
        valid = np.arange(kk) < k[cols, None]
        s_act = sgn[cols, :kk]
        # on a fixed active set with fixed signs the solution is affine in
        # lam: G w = X_A^T y / n - lam * s, so dw/d(-lam) = G^{-1} s
        rhs = np.stack([s_act, Xty[cols[:, None], act[cols, :kk]]], -1)
        dA, wA = np.moveaxis(Ginv @ rhs, -1, 0)
        wA = wA - lam_c[:, None] * dA
        ra, pa = np.nonzero(valid)
        ids = act[cols[ra], pa]        # the feature of active entry (ra, pa)
        # correlations and their rates along the step, both (c, d):
        # X^T r / n moves as corr - gamma * slope while lam_c - gamma
        WD = np.zeros((2 * c, d))
        WD[ra, ids] = wA[ra, pa]
        WD[c + ra, ids] = dA[ra, pa]
        XWD = WD @ Xc.T
        del WD
        XWD[:c] = Yc[:, cols].T - XWD[:c]
        corr, slope = np.split(XWD @ Xc / n, 2)
        del XWD

        # entering: |corr - gamma * slope| meets lam_c - gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            up = lam_c[:, None] - corr
            up /= 1 - slope
            up[slope >= 1] = np.inf
            down = lam_c[:, None] + corr
            down /= 1 + slope
            down[slope <= -1] = np.inf
        positive = up <= down
        enter = np.minimum(up, down, out=up)
        del down
        np.maximum(enter, 0.0, out=enter)
        shut = blocked[cols]
        shut[ra, ids] = True
        shut[k[cols] >= rank] = True
        enter[shut] = np.inf
        j_add = enter.argmin(axis=1)
        g_add = enter[rows, j_add]
        s_add = np.where(positive[rows, j_add], 1.0, -1.0)
        del corr, slope, up, enter, positive, shut    # before Ginv grows

        # leaving: an active weight moving toward zero reaches it
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = np.where(valid & (s_act * dA < 0),
                             np.maximum(s_act * wA, 0.0) / np.abs(dA), np.inf)
        p_drop = leave.argmin(axis=1)
        g_drop = leave[rows, p_drop]

        g_end = lam_c - lam
        gamma = np.minimum(g_end, np.minimum(g_add, g_drop))
        is_end = g_end <= gamma
        is_drop = ~is_end & (g_drop <= g_add)
        is_add = ~is_end & ~is_drop

        # an entering feature borders its column's inverse with its Schur
        # complement gjj - g^T G^-1 g = |(I - P_A) x_j|^2 / n; a dependent
        # one is refused and the column stays where it is for this step
        if (is_add & (k[cols] == kk)).any():     # the inverses grow a slot
            Ginv = np.concatenate([Ginv, np.zeros((c, 1, kk))], 1)
            Ginv = np.concatenate([Ginv, np.zeros((c, kk + 1, 1))], 2)
            kk += 1
        g = Gram[act[cols, :kk], j_add[:, None]]
        z = (Ginv @ g[..., None])[..., 0]
        gjj = Gram[j_add, j_add]
        schur = gjj - (g * z).sum(axis=1)
        dep = is_add & (schur <= _DEPENDENT * gjj)
        blocked[cols[dep], j_add[dep]] = True
        is_add &= ~dep
        gamma[dep] = 0.0
        # bordering adds z z^T / s to an entering column's inverse, and
        # eliminating slot p subtracts Ginv[:, p] Ginv[p, :] / Ginv[p, p]:
        # both u v^T, added an eighth of the blocks at a time
        a, r = np.flatnonzero(is_add), np.flatnonzero(is_drop)
        p, q = k[cols[a]], p_drop[r]
        u, v = np.zeros((c, kk)), np.zeros((c, kk))
        u[a], u[r] = z[a], Ginv[r, :, q]
        v[a], v[r] = z[a] / schur[a, None], -Ginv[r, q] / Ginv[r, q, q, None]
        step = max(1, c // 8)
        for s in range(0, c, step):
            Ginv[s:s + step] += u[s:s + step, :, None] * v[s:s + step, None, :]
        # then an entering feature takes slot k, and a leaving one's slot
        # takes the last active entry
        Ginv[a, p] = Ginv[a, :, p] = -v[a]
        Ginv[a, p, p] = 1 / schur[a]
        act[cols[a], p], sgn[cols[a], p] = j_add[a], s_add[a]
        k[cols[a]] += 1
        ci = cols[r]
        last = k[ci] = k[ci] - 1
        act[ci, q], sgn[ci, q] = act[ci, last], sgn[ci, last]
        Ginv[r, q] = Ginv[r, last]
        Ginv[r, :, q] = Ginv[r, :, last]
        Ginv[r, last] = Ginv[r, :, last] = 0.0
        lam_path[cols] = np.where(is_end, lam, lam_c - gamma)
        live[cols[is_end]] = False
        if is_end.any():
            Ginv = Ginv[~is_end]

    # the weights, solved afresh on the final active sets: each column's
    # active Gram block, padded with identity, against X_A^T y / n - lam s
    W = np.zeros((d, m))
    on = np.flatnonzero(k > 0)
    if on.size:
        kk = int(k[on].max())
        valid = np.arange(kk) < k[on, None]
        idx = np.where(valid, act[on, :kk], 0)
        G = Gram[idx[:, :, None], idx[:, None, :]]
        G *= valid[:, :, None] & valid[:, None, :]
        G[:, np.arange(kk), np.arange(kk)] += ~valid
        rhs = np.stack([sgn[on, :kk], Xty[on[:, None], idx]], -1)
        sol = np.linalg.solve(G, rhs * valid[..., None])
        wA = sol[..., 1] - lam_path[on, None] * sol[..., 0]
        ra, pa = np.nonzero(valid)
        W[act[on[ra], pa], on[ra]] = wA[ra, pa]
    return W, it


def _relative_gaps(Xc, Yc, W, lam):
    """Each column's relative duality gap (KKT residual at lam = 0)."""
    n = Xc.shape[0]
    R = Yc - Xc @ W
    corr = np.abs(Xc.T @ R).max(axis=0) / n
    if lam == 0:
        ref = np.abs(Xc.T @ Yc).max(axis=0) / n
        return np.divide(corr, ref, out=np.zeros_like(corr), where=ref > 0)
    primal = (R * R).sum(axis=0) / (2 * n) + lam * np.abs(W).sum(axis=0)
    nu = R * np.minimum(1.0, np.divide(lam, corr, out=np.ones_like(corr),
                                       where=corr > 0))
    dual = (nu * Yc).sum(axis=0) / n - (nu * nu).sum(axis=0) / (2 * n)
    rel = np.divide(primal - dual, primal, out=np.zeros_like(primal),
                    where=primal > 0)
    return np.maximum(rel, 0.0)


def linmap_predict(m: LinearMap, x: np.ndarray) -> np.ndarray:
    """Apply y = Wx + b to one vector or a (n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != m.weight.shape[1]:
        raise ShapeMismatch(f"x has {x.shape[-1]} features, "
                            f"map expects {m.weight.shape[1]}")
    return m.weight @ x + m.bias if x.ndim == 1 else x @ m.weight.T + m.bias


def save_linear_map(m: LinearMap, path: str) -> None:
    """Write every LinearMap field to an .npz; the round trip is bit-exact."""
    np.savez(path, weight=m.weight, bias=m.bias, kind=np.array(m.kind),
             lam=np.array(m.lam), converged=np.array(m.converged),
             n_iter=np.array(m.n_iter), gap=np.array(m.gap))


def load_linear_map(path: str) -> LinearMap:
    """Read a saved LinearMap (gap=nan if the file has none); a missing
    array, or a weight and bias that are not one map, is a ShapeMismatch."""
    with np.load(path) as z:
        for name in ("weight", "bias", "kind", "lam", "converged", "n_iter"):
            if name not in z:
                raise ShapeMismatch(f"{path}: array {name} is missing")
        W, b = z["weight"], z["bias"]
        if W.ndim != 2 or b.shape != W.shape[:1]:
            raise ShapeMismatch(f"{path}: weight is {W.shape} and bias "
                                f"{b.shape}, expected (out, in) and (out,)")
        return LinearMap(weight=W, bias=b,
                         kind=str(z["kind"]), lam=float(z["lam"]),
                         converged=bool(z["converged"]),
                         n_iter=int(z["n_iter"]),
                         gap=float(z["gap"]) if "gap" in z else float("nan"))
