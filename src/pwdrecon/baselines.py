"""Linear, Ridge and Lasso baselines on flattened window pairs.

Each maps a flattened fECG window (d = L) to a flattened envelope window
(m = L * out_channels). OLS and ridge solve the smaller of the d x d
normal equations and the n x n dual system. Lasso is an exact homotopy
at the requested penalty: the output columns run in contiguous chains, in
lockstep, and each column moves a source's solution to its own target,
the source being its left neighbour or a zero target (which traces the
LARS-lasso path). At zero penalty it is least squares. Each column's
result is certified by its relative duality gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

# a feature whose column keeps less than this share of the design's largest
# squared column norm outside the span of the active columns is, to
# round-off, in that span and would make the active Gram block singular:
# it may not enter the active set
_DEPENDENT = 1e-10
# lasso_fit runs at most as many chains as have active-set inverses, of at
# most rank(Xc)^2 floats each, that fit in this many bytes
_BLOCK_BYTES = 64 << 20
LASSO_MAX_ITER = 1000       # homotopy steps allowed per output column
LASSO_TOL = 1e-6            # relative duality gap at which a fit converged


@dataclass
class LinearMap:
    """y = W x + b, with the fit's convergence certificate."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)
    converged: bool = True
    n_iter: int = 0
    gap: float = 0.0    # lasso: largest per-column certificate (see lasso_fit)


def _center(X: np.ndarray, Y: np.ndarray):
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    return X - xm, Y - ym, xm, ym


def ols_fit(X: np.ndarray, Y: np.ndarray) -> LinearMap:
    """Least squares: ridge with only its 1e-10 jitter."""
    return ridge_fit(X, Y, 0.0)


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
    return LinearMap(weight=W.T, bias=b)


def lasso_fit(X: np.ndarray, Y: np.ndarray, lam: float) -> LinearMap:
    """Exact lasso homotopy on (1/2n)||Y - XW - b||^2 + lam*|W|_1.

    At lam > 0 each output column moves its target from a source's to its
    own, and _homotopy follows the solution from event to event (Garrigues
    & El Ghaoui 2008). The source is the left neighbour, as neighbouring
    envelope samples share most of their active sets, or zero: since
    W(t y, lam) = t W(y, lam / t), a segment from zero is the LARS-lasso
    path from lambda_max down to lam (Efron et al. 2004). The columns run
    in min(group, ceil(sqrt(m)) + r) contiguous chains, r the columns
    after the first that start from zero, where a group's active-set
    inverses, at most 8 * group * rank(Xc)^2 bytes, fit in _BLOCK_BYTES:
    memory grows with the chains, not with m. LASSO_MAX_ITER bounds each
    column's steps and n_iter reports the most steps a column took. Each
    column's weights are solved afresh on its final active set, in feature
    order, so they depend on that set and its signs only.

    At lam = 0 no sign condition binds and every correlation sits at the
    penalty from the start, so there is no path: the fit is least squares
    (np.linalg.lstsq, the minimum-norm solution), with n_iter 0.

    The result is certified per column by its relative duality gap
    (P - D) / P, with the residual rescaled to a feasible dual point;
    at lam = 0, where that point is undefined, by the KKT residual
    max|Xc^T r| / max|Xc^T y|. `gap` is the largest over the columns and
    converged is gap <= LASSO_TOL.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X, Y = np.atleast_2d(np.asarray(X, float)), np.atleast_2d(np.asarray(Y, float))
    n = X.shape[0]
    Xc, Yc, xm, ym = _center(X, Y)
    if lam == 0:
        W, it = np.linalg.lstsq(Xc, Yc, rcond=None)[0], 0
    else:
        Gram = Xc.T @ Xc / n
        # (m, d) correlations at W = 0
        Xty = np.ascontiguousarray((Xc.T @ Yc / n).T)
        rank = int(np.linalg.matrix_rank(Xc))
        group = max(1, _BLOCK_BYTES // (8 * max(rank, 1) ** 2))
        W, it = _homotopy(Xc, Yc, Gram, Xty, rank, lam, group)
    gap = float(_relative_gaps(Xc, Yc, W, lam).max())
    converged = gap <= LASSO_TOL
    if not converged:
        warnings.warn(f"lasso did not converge in {it} steps: relative "
                      f"duality gap {gap:.3g} > tol {LASSO_TOL:g}",
                      RuntimeWarning)
    b = ym - xm @ W
    return LinearMap(weight=W.T, bias=b, converged=converged, n_iter=it,
                     gap=gap)


def _homotopy(Xc, Yc, Gram, Xty, rank, lam, group):
    """The lasso weights (d, m) of Yc's columns at lam > 0 and the most
    steps one column took, following the columns in contiguous chains, at
    most `group` of them.

    A live chain is on one column and moves its target from its source's
    (the left neighbour, or column m: a zero target appended to Yc and
    Xty) to its own over t in [0, 1]. Every step moves all live chains to
    their next event: a feature entering the active set, an active weight
    reaching zero and leaving it, or the segment's end. Each chain carries
    the inverse of its active Gram block (zero outside its active entries),
    so a step takes batched products with the inverses and one product
    with Xc^T for the correlations. The active set never grows past
    rank(Xc), and a feature whose column lies in the span of the active
    ones never enters. On the step after an event, the feature that
    entered may not leave and the one that left may not re-enter on the
    side it left from: either would be a zero-length step made of
    round-off, and allowing it can cycle.

    A column that ends its segment is solved on its final active set, and
    its chain moves on to the next column from there. A column cut off by
    LASSO_MAX_ITER is solved on the active set it reached, and its chain
    starts the next column from zero, as for a column in `restart` or one
    whose segment from its neighbour refuses a feature (`redo`).
    """
    n, d = Xc.shape
    m = Yc.shape[1]
    K = max(rank, 1)
    gmax = Gram.diagonal().max()
    # a column whose target is nearer zero than its left neighbour's starts
    # from zero (|y1 - y0|^2 >= |y1|^2 is |y0|^2 >= 2 y0.y1)
    near = np.einsum("ij,ij->j", Yc[:, :-1], Yc[:, :-1]) \
        < 2 * np.einsum("ij,ij->j", Yc[:, :-1], Yc[:, 1:])
    restart = np.append(True, ~near)
    Yc = np.column_stack([Yc, np.zeros(n)])
    Xty = np.vstack([Xty, np.zeros(d)])
    # ceil(sqrt(m)) chains balance the chains' starts from zero against
    # their segments from a neighbour; a column that starts from zero gains
    # nothing from a chain, so each one after the first adds a chain (all m
    # on unrelated columns)
    chains = min(group, m, math.isqrt(m - 1) + int(restart.sum()))
    # the live chains' state, one row each: current and last + 1 column,
    # the source column, t now, the active set, its signs and size, the
    # steps on this column, the features that entered and left on the last
    # event (and the sign the leaving one had), the features refused as
    # dependent on this column, and the inverse of the active Gram block
    bounds = np.arange(chains + 1) * m // chains
    col, stop = bounds[:-1].copy(), bounds[1:]
    src, t = np.full(chains, m), np.zeros(chains)
    act = np.zeros((chains, K), dtype=np.intp)
    sgn = np.zeros((chains, K))
    k = np.zeros(chains, dtype=np.intp)
    steps = np.zeros(chains, dtype=np.intp)
    last_in, last_out = np.full(chains, -1), np.full(chains, -1)
    out_sgn = np.zeros(chains)
    blocked = np.zeros((chains, d), dtype=bool)
    Ginv = np.zeros((chains, 1, 1))
    # finished columns wait here to be solved a chain count at a time
    f_act = np.zeros((2 * chains, K), dtype=np.intp)
    f_sgn = np.zeros((2 * chains, K))
    f_k, f_col = np.zeros((2, 2 * chains), dtype=np.intp)
    W = np.zeros((d, m))
    nb = it = 0
    while col.size:
        c = col.size
        rows = np.arange(c)
        kk = Ginv.shape[1]
        valid = np.arange(kk) < k[:, None]
        A, s_act = act[:, :kk], sgn[:, :kk]
        # on a fixed active set with fixed signs the solution is affine
        # along the segment: G w = X_A^T y / n - lam * s, where y moves by
        # y1 - y0 per unit t, so dw = G^{-1} X_A^T (y1 - y0) / n
        b0 = Xty[src[:, None], A]
        db = Xty[col[:, None], A] - b0
        rhs = np.stack([s_act, db, b0 + t[:, None] * db], -1)
        gs, dA, gb = np.moveaxis(Ginv @ rhs, -1, 0)
        wA = gb - lam * gs
        ra, pa = np.nonzero(valid)
        ids = A[ra, pa]                # the feature of active entry (ra, pa)
        # correlations and their rates along the step, both (c, d):
        # X^T r / n moves as corr - gamma * slope
        WD = np.zeros((2 * c, d))
        WD[ra, ids] = wA[ra, pa]
        WD[c + ra, ids] = dA[ra, pa]
        XWD = WD @ Xc.T
        del WD
        Y0 = Yc[:, src].T
        dY = Yc[:, col].T - Y0
        XWD[:c] = Y0 + t[:, None] * dY - XWD[:c]
        XWD[c:] -= dY
        corr, slope = np.split(XWD @ Xc / n, 2)
        del XWD, Y0, dY

        with np.errstate(divide="ignore", invalid="ignore"):
            # entering: |corr - gamma * slope| meets lam
            up = lam - corr
            up /= -slope
            up[slope >= 0] = np.inf
            down = lam + corr
            down /= slope
            down[slope <= 0] = np.inf
            # leaving: an active weight moving toward zero reaches it, but
            # not the one that entered on the last event
            moving = valid & (s_act * dA < 0) & (A != last_in[:, None])
            leave = np.where(moving, np.maximum(s_act * wA, 0.0) / np.abs(dA),
                             np.inf)
        # the feature that left on the last event may not re-enter on the
        # side it left from
        o = np.flatnonzero(last_out >= 0)
        j = last_out[o]
        up[o, j] = np.where(out_sgn[o] > 0, np.inf, up[o, j])
        down[o, j] = np.where(out_sgn[o] < 0, np.inf, down[o, j])
        positive = up <= down
        enter = np.minimum(up, down, out=up)
        del down
        np.maximum(enter, 0.0, out=enter)
        shut = blocked.copy()
        shut[ra, ids] = True
        shut[k >= rank] = True
        enter[shut] = np.inf
        j_add = enter.argmin(axis=1)
        g_add = enter[rows, j_add]
        s_add = np.where(positive[rows, j_add], 1.0, -1.0)
        del corr, slope, up, enter, positive, shut    # before Ginv grows
        p_drop = leave.argmin(axis=1)
        g_drop = leave[rows, p_drop]
        j_drop, s_drop = A[rows, p_drop], s_act[rows, p_drop]

        g_end = 1.0 - t
        gamma = np.minimum(g_end, np.minimum(g_add, g_drop))
        is_end = g_end <= gamma
        is_drop = ~is_end & (g_drop <= g_add)
        is_add = ~is_end & ~is_drop

        # an entering feature borders its chain's inverse with its Schur
        # complement gjj - g^T G^-1 g = |(I - P_A) x_j|^2 / n; a dependent
        # one is refused and the chain stays where it is for this step
        if (is_add & (k == kk)).any():     # the inverses grow a slot
            Ginv = np.concatenate([Ginv, np.zeros((c, 1, kk))], 1)
            Ginv = np.concatenate([Ginv, np.zeros((c, kk + 1, 1))], 2)
            kk += 1
        g = Gram[act[:, :kk], j_add[:, None]]
        z = (Ginv @ g[..., None])[..., 0]
        schur = Gram[j_add, j_add] - (g * z).sum(axis=1)
        dep = is_add & (schur <= _DEPENDENT * gmax)
        blocked[dep, j_add[dep]] = True
        is_add &= ~dep
        gamma[dep] = 0.0
        # bordering adds z z^T / s to an entering chain's inverse, and
        # eliminating slot p subtracts Ginv[:, p] Ginv[p, :] / Ginv[p, p]:
        # both u v^T
        a, r = np.flatnonzero(is_add), np.flatnonzero(is_drop)
        p, q = k[a], p_drop[r]
        u, v = np.zeros((c, kk)), np.zeros((c, kk))
        u[a], u[r] = z[a], Ginv[r, :, q]
        v[a], v[r] = z[a] / schur[a, None], -Ginv[r, q] / Ginv[r, q, q, None]
        Ginv += u[:, :, None] * v[:, None, :]
        # then an entering feature takes slot k, and a leaving one's slot
        # takes the last active entry
        Ginv[a, p] = Ginv[a, :, p] = -v[a]
        Ginv[a, p, p] = 1 / schur[a]
        act[a, p], sgn[a, p] = j_add[a], s_add[a]
        k[a] += 1
        last = k[r] = k[r] - 1
        act[r, q], sgn[r, q] = act[r, last], sgn[r, last]
        Ginv[r, q] = Ginv[r, last]
        Ginv[r, :, q] = Ginv[r, :, last]
        Ginv[r, last] = Ginv[r, :, last] = 0.0
        ev = is_add | is_drop
        last_in[ev] = np.where(is_add, j_add, -1)[ev]
        last_out[ev] = np.where(is_drop, j_drop, -1)[ev]
        out_sgn[ev] = s_drop[ev]
        t += gamma
        steps += 1

        cut = steps >= LASSO_MAX_ITER
        done = np.flatnonzero(is_end | cut)
        # a segment from a neighbour that has to refuse a feature as
        # dependent can end off the column's solution (on near-collinear
        # designs), so the column starts again from zero
        redo = np.flatnonzero(dep & (src < m) & ~cut)
        if done.size == 0 and redo.size == 0:
            continue
        if done.size:
            it = max(it, int(steps[done].max()))
            e = slice(nb, nb + done.size)
            f_act[e, :kk], f_sgn[e, :kk] = act[done, :kk], sgn[done, :kk]
            f_k[e], f_col[e] = k[done], col[done]
            nb += done.size
            if nb >= chains:
                _solve_active(Gram, Xty, f_act[:nb], f_sgn[:nb], f_k[:nb],
                              f_col[:nb], lam, W)
                nb = 0
                # rank-one updates let the carried inverses drift along a
                # chain (on the ablation fits up to 5e-7 relative at a
                # column's end, against 2e-9 at the end of a start from
                # zero; 5e-9 when they are re-formed this often)
                G, both = _gram_blocks(Gram, act[:, :kk], k)
                Ginv = np.linalg.inv(G)
                Ginv *= both
        # a finished chain moves on to its next column: from its final
        # state if the column ended its segment, from zero if it was cut or
        # the next column starts from zero
        more = col[done] + 1 < stop[done]
        go, fin = done[more], done[~more]
        fresh = np.concatenate([go[~is_end[go] | restart[col[go] + 1]], redo])
        src[go] = col[go]
        col[go] += 1
        src[fresh] = m
        k[fresh] = 0
        Ginv[fresh] = 0.0
        moved = np.concatenate([go, redo])
        t[moved] = 0.0
        steps[moved] = 0
        last_in[moved] = last_out[moved] = -1
        blocked[moved] = False
        if fin.size:
            keep = np.ones(c, dtype=bool)
            keep[fin] = False
            (col, stop, src, t, act, sgn, k, steps, last_in, last_out,
             out_sgn, blocked, Ginv) = (
                x[keep] for x in (col, stop, src, t, act, sgn, k, steps,
                                  last_in, last_out, out_sgn, blocked, Ginv))
    _solve_active(Gram, Xty, f_act[:nb], f_sgn[:nb], f_k[:nb], f_col[:nb],
                  lam, W)
    return W, it


def _solve_active(Gram, Xty, act, sgn, k, cols, lam, W):
    """Write columns `cols` of W: each solved afresh on its active set in
    feature order, G w = X_A^T y / n - lam s, so that the weights depend on
    the final active set and signs only, not on the path that found them.
    The Gram blocks are padded with identity to the largest active set."""
    kk = max(int(k.max(initial=0)), 1)
    act, sgn = act[:, :kk], sgn[:, :kk]
    valid = np.arange(kk) < k[:, None]
    order = np.argsort(np.where(valid, act, Gram.shape[0]), axis=1)
    idx = np.where(valid, np.take_along_axis(act, order, 1), 0)
    s = np.take_along_axis(sgn, order, 1) * valid
    rhs = np.stack([s, Xty[cols[:, None], idx] * valid], -1)
    sol = np.linalg.solve(_gram_blocks(Gram, idx, k)[0], rhs)
    wA = sol[..., 1] - lam * sol[..., 0]
    ra, pa = np.nonzero(valid)
    W[idx[ra, pa], cols[ra]] = wA[ra, pa]


def _gram_blocks(Gram, act, k):
    """Each row's active Gram block, on its first k entries of act and
    padded with identity, and the mask of the block's active entries."""
    kk = act.shape[1]
    valid = np.arange(kk) < k[:, None]
    idx = np.where(valid, act, 0)
    both = valid[:, :, None] & valid[:, None, :]
    G = Gram[idx[:, :, None], idx[:, None, :]]
    G *= both
    G[:, np.arange(kk), np.arange(kk)] += ~valid
    return G, both


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
    """Apply y = Wx + b to each row of an (n, d) batch."""
    if x.shape[-1] != m.weight.shape[1]:
        raise ShapeMismatch(f"x has {x.shape[-1]} features, "
                            f"map expects {m.weight.shape[1]}")
    return x @ m.weight.T + m.bias
