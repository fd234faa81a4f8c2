import tracemalloc

import numpy as np
import pytest

from pwdrecon import baselines
from pwdrecon.baselines import (
    lasso_fit,
    linmap_predict,
    ols_fit,
    ridge_fit,
)
from pwdrecon.errors import ShapeMismatch


def test_ols_recovers_exact_linear_map():
    rng = np.random.default_rng(0)
    W_true = rng.normal(size=(3, 5))
    b_true = rng.normal(size=3)
    X = rng.normal(size=(200, 5))
    Y = X @ W_true.T + b_true
    m = ols_fit(X, Y)
    assert np.allclose(m.weight, W_true, atol=1e-6)
    assert np.allclose(m.bias, b_true, atol=1e-6)
    assert np.allclose(linmap_predict(m, X), Y, atol=1e-6)


def test_ols_handles_rank_deficiency():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 1))
    X = np.hstack([x, x])  # perfectly collinear
    Y = 3.0 * x
    m = ols_fit(X, Y)
    assert np.all(np.isfinite(m.weight))
    assert np.allclose(linmap_predict(m, X), Y, atol=1e-4)


def test_ols_is_ridge_jitter_closed_form():
    # oracle: with more windows than samples (n > d), the d x d normal
    # equations with a 1e-10 jitter, bit for bit
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 40))
    Y = rng.normal(size=(300, 80))
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    W = np.linalg.solve(Xc.T @ Xc + 1e-10 * np.eye(40), Xc.T @ Yc)
    m = ols_fit(X, Y)
    assert np.array_equal(m.weight, W.T)
    assert np.array_equal(m.bias, Y.mean(axis=0) - X.mean(axis=0) @ W)
    assert (m.converged, m.n_iter, m.gap) == (True, 0, 0.0)


def test_ols_with_fewer_windows_than_samples_is_min_norm():
    # oracle: with n < d the jitter picks the minimum-norm least-squares
    # solution, pinv(Xc) @ Yc
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 213))
    Y = rng.normal(size=(20, 426))
    Xc = X - X.mean(axis=0)
    W = np.linalg.pinv(Xc) @ (Y - Y.mean(axis=0))
    m = ols_fit(X, Y)
    assert np.abs(m.weight - W.T).max() <= 1e-9 * np.abs(W).max()
    assert np.allclose(m.bias, Y.mean(axis=0) - X.mean(axis=0) @ W,
                       rtol=0, atol=1e-9 * np.abs(Y).max())


@pytest.mark.parametrize("n, d", [(20, 213), (300, 40)])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_ridge_normal_equation_residual(n, d, lam):
    """Oracle: the ridge normal equations Xc^T (Xc W - Yc) + lam' W = 0,
    lam' = lam + 1e-10, on both sides of n = d."""
    X, Y = _walk_design(20, n=n, d=d, m=2 * d)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    W = ridge_fit(X, Y, lam).weight.T
    resid = Xc.T @ (Xc @ W - Yc) + (lam + 1e-10) * W
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(Xc.T @ Yc)


@pytest.mark.parametrize("n, d", [(20, 213), (212, 213), (213, 213),
                                  (300, 40)])
def test_ridge_solves_the_smaller_system(monkeypatch, n, d):
    shapes = []
    solve = np.linalg.solve

    def recording(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(baselines.np.linalg, "solve", recording)
    X, Y = _walk_design(21, n=n, d=d, m=2 * d)
    ridge_fit(X, Y, 1.0)
    ols_fit(X, Y)
    assert shapes == [(min(n, d),) * 2] * 2


def test_ridge_closed_form_1d():
    # oracle: hand-solved scalar ridge, w = Sxy / (Sxx + lam)
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    Y = np.array([[2.0], [4.1], [5.9], [8.0]])
    lam = 2.0
    Xc = X - X.mean()
    Yc = Y - Y.mean()
    w_expect = float((Xc.T @ Yc).item()) / (float((Xc.T @ Xc).item())
                                            + lam + 1e-10)
    m = ridge_fit(X, Y, lam)
    assert m.weight[0, 0] == pytest.approx(w_expect, rel=1e-9)
    assert m.bias[0] == pytest.approx(Y.mean() - w_expect * X.mean(),
                                      rel=1e-9)
    with pytest.raises(ValueError):
        ridge_fit(X, Y, -1.0)


def test_ridge_shrinks_toward_zero():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 4))
    Y = rng.normal(size=(100, 2))
    norms = [np.linalg.norm(ridge_fit(X, Y, lam).weight)
             for lam in (0.0, 1.0, 10.0, 1000.0)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.1 * norms[0]


def lasso_lambda_max(X, Y):
    """Smallest lambda for which the lasso solution is exactly zero."""
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    return float(np.abs(Xc.T @ Yc).max() / X.shape[0])


def test_lasso_lambda_max_zeroes_solution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 5))
    Y = rng.normal(size=(60, 3))
    lam_max = lasso_lambda_max(X, Y)
    m = lasso_fit(X, Y, lam_max * 1.0001)
    assert np.all(m.weight == 0.0)
    m2 = lasso_fit(X, Y, lam_max * 0.5)
    assert np.any(m2.weight != 0.0)


def test_lasso_orthogonal_soft_threshold(monkeypatch):
    """Oracle: with zero-mean orthogonal columns the lasso solution is the
    coordinate-wise soft-thresholded least-squares solution."""
    n = 64
    t = np.arange(n)
    X = np.stack([np.cos(2 * np.pi * k * t / n) for k in (1, 2, 3)]
                 + [np.sin(2 * np.pi * 1 * t / n)], axis=1)
    # columns are exactly zero-mean and mutually orthogonal, norm^2 = n/2
    W_true = np.array([[2.0], [-0.5], [0.05], [0.0]])
    Y = X @ W_true
    lam = 0.03  # above |rho| = 0.025 for the 0.05 coefficient: zeroed
    s = (X ** 2).sum(axis=0)  # per-column squared norm (= n/2)
    rho = X.T @ (Y - Y.mean(axis=0)) / n
    w_exp = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0) / (s[:, None] / n)
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-12)
    m = lasso_fit(X, Y, lam)
    assert m.converged
    assert np.allclose(m.weight.T, w_exp, atol=1e-8)
    # the small true coefficient is driven exactly to zero
    assert m.weight[0, 2] == 0.0


def lasso_objective(X, Y, m, lam):
    """(1/2n)||Y - XW - b||^2 + lam*|W|_1."""
    resid = Y - linmap_predict(m, X)
    return float((resid ** 2).sum() / (2 * X.shape[0])
                 + lam * np.abs(m.weight).sum())


def test_lasso_objective_never_above_ols_start(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 6))
    Y = rng.normal(size=(80, 2))
    lam = 0.05
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-9)
    m = lasso_fit(X, Y, lam)
    # the zero solution starts the homotopy; the result must not be worse
    from pwdrecon.baselines import LinearMap
    zero = LinearMap(weight=np.zeros((2, 6)), bias=Y.mean(axis=0))
    assert lasso_objective(X, Y, m, lam) <= \
        lasso_objective(X, Y, zero, lam) + 1e-12


def _one_step(monkeypatch):
    """Every lasso column stops after one step, certified to 1e-14."""
    monkeypatch.setattr(baselines, "LASSO_MAX_ITER", 1)
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-14)


def test_lasso_nonconvergence_flag(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 10))
    Y = rng.normal(size=(40, 4))
    _one_step(monkeypatch)
    with pytest.warns(RuntimeWarning, match="relative duality gap"):
        m = lasso_fit(X, Y, 1e-6)
    assert not m.converged
    assert m.gap > 1e-14 and m.n_iter == 1


def test_lasso_max_iter_cuts_every_chained_column(monkeypatch):
    """LASSO_MAX_ITER bounds each column's own steps, and a cut column's
    right neighbour starts from zero rather than continuing from the cut
    state: with one step each, every column of the joint fit stops where
    its own fit does, one feature in, and is solved on that feature."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 10))
    Y = np.cumsum(rng.normal(size=(40, 9)), axis=1)   # near neighbours
    _one_step(monkeypatch)
    with pytest.warns(RuntimeWarning, match="relative duality gap"):
        m = lasso_fit(X, Y, 1e-6)
        single = [lasso_fit(X, Y[:, [j]], 1e-6) for j in range(9)]
    assert not m.converged and m.n_iter == 1
    assert all(s.n_iter == 1 for s in single)
    ref = np.vstack([s.weight for s in single])
    assert np.array_equal(m.weight != 0, ref != 0)
    assert (np.count_nonzero(ref, axis=1) == 1).all()
    assert np.abs(m.weight - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lasso_lam0_rank_deficient_is_certified(monkeypatch):
    """At lam = 0 the lasso is least squares. On a rank-deficient design
    (n < d) it is the minimum-norm solution, pinv(Xc) @ Yc, and its KKT
    residual max|Xc^T r| / max|Xc^T y| is certified at 1e-12."""
    X, Y = _walk_design(27, n=20, d=213, m=40)
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-12)
    m = lasso_fit(X, Y, 0.0)
    assert m.converged and m.gap <= 1e-12 and m.n_iter == 0
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    r = Y - linmap_predict(m, X)
    assert np.abs(Xc.T @ r).max() <= 1e-12 * np.abs(Xc.T @ Yc).max()
    W = np.linalg.pinv(Xc) @ Yc
    assert np.abs(m.weight - W.T).max() <= 1e-9 * np.abs(W).max()


def _walk_design(seed, n=20, d=213, m=426):
    """Window-shaped data, n << d by default: each row a random walk over its
    samples, so neighbouring features are strongly correlated."""
    rng = np.random.default_rng(seed)
    X = np.cumsum(rng.normal(size=(n, d)), axis=1)
    Y = np.cumsum(rng.normal(size=(n, m)), axis=1)
    return X, Y


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_lasso_kkt_oracle_window_shaped(lam):
    """Oracle independent of the solver's certificate: the lasso KKT
    conditions on the returned weights and bias."""
    X, Y = _walk_design(12)
    m = lasso_fit(X, Y, lam)
    assert m.converged
    r = Y - linmap_predict(m, X)
    corr = (X - X.mean(axis=0)).T @ r / X.shape[0]
    W = m.weight.T
    nz = W != 0.0
    assert nz.any() and (~nz).any()
    assert np.all(np.abs(corr[~nz]) <= lam * (1 + 1e-8))
    assert np.all(np.abs(corr[nz] - lam * np.sign(W[nz])) <= 1e-8)
    # the active set never outgrows rank(Xc) <= n - 1
    assert nz.sum(axis=0).max() <= X.shape[0] - 1


def _duplicated_column():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 8))
    X[:, 3] = X[:, 1]
    return X, X[:, :2] @ rng.normal(size=(2, 5)) + rng.normal(size=(30, 5))


def _constant_column():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 8))
    X[:, 2] = 0.1  # centres to round-off, not to exact zeros
    return X, X[:, :2] @ rng.normal(size=(2, 5)) + rng.normal(size=(30, 5))


@pytest.mark.parametrize("design, lam", [
    (_duplicated_column, 0.01), (_duplicated_column, 0.0),
    (_constant_column, 0.01), (_constant_column, 0.0),
    (lambda: _walk_design(15, n=12, d=40, m=6), 0.0)],
    ids=["duplicate", "duplicate-lam0", "constant", "constant-lam0",
         "lam0-n-le-d"])
def test_lasso_degenerate_designs(design, lam):
    X, Y = design()
    m = lasso_fit(X, Y, lam)
    assert np.all(np.isfinite(m.weight)) and np.all(np.isfinite(m.bias))
    assert m.converged == (m.gap <= 1e-6)
    assert m.converged
    if lam == 0.0:
        # the KKT stop: the fit leaves no correlation with any feature
        r = Y - linmap_predict(m, X)
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        assert np.abs(Xc.T @ r).max() <= 1e-6 * np.abs(Xc.T @ Yc).max()


def _traced(fn, *args):
    """fn(*args) and the peak bytes numpy and Python allocated during it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lasso_chains_bound_memory(monkeypatch):
    """With n > d the active sets grow to rank(Xc) = d, and an output's
    active-set inverse takes 8 d^2 bytes. Only the chains carry inverses:
    ceil(sqrt(m)) of them, or fewer if the byte budget says so. Fewer
    chains give the same fit, and twice the outputs on as many chains add
    much less memory than their inverses would take."""
    X, Y = _walk_design(18, n=50, d=40, m=120)
    blocks = 8 * 120 * 40 ** 2         # every output's inverse at once
    whole, whole_peak = _traced(lasso_fit, X, Y, 0.01)     # 11 chains
    monkeypatch.setattr(baselines, "_BLOCK_BYTES", 8 * 4 * 40 ** 2)
    grouped, peak = _traced(lasso_fit, X, Y, 0.01)         # 4 chains
    X2, Y2 = _walk_design(18, n=50, d=40, m=240)
    assert np.array_equal(X2, X)
    wide, wide_peak = _traced(lasso_fit, X, Y2, 0.01)      # 4 chains
    assert whole.converged and grouped.converged and wide.converged
    assert (np.count_nonzero(whole.weight, axis=1) == 40).any()
    assert np.abs(grouped.weight - whole.weight).max() \
        <= 1e-9 * np.abs(whole.weight).max()
    assert blocks > 2 * peak and whole_peak < blocks
    assert wide_peak - peak < (240 - 120) * 8 * 40 ** 2 / 4


def test_lasso_window_width_with_more_windows_than_samples():
    """A 2 s window (568 samples) with 600 training windows: rank(Xc) is
    the window length, the case the budget groups for. KKT as above."""
    X, Y = _walk_design(19, n=600, d=568, m=8)
    lam = 0.1
    m, peak = _traced(lasso_fit, X, Y, lam)
    assert m.converged and m.n_iter < 1000
    r = Y - linmap_predict(m, X)
    corr = (X - X.mean(axis=0)).T @ r / X.shape[0]
    W = m.weight.T
    nz = W != 0.0
    assert nz.sum(axis=0).max() > 50
    assert np.all(np.abs(corr[~nz]) <= lam * (1 + 1e-8))
    assert np.all(np.abs(corr[nz] - lam * np.sign(W[nz])) <= 1e-8)
    # the (600, 568) design, its Gram matrix and a few (8, 568) arrays
    assert peak <= 8 * (3 * 600 * 568 + 2 * 568 ** 2)


def test_lasso_reruns_bit_identical():
    X, Y = _walk_design(16, m=40)
    a, b = lasso_fit(X, Y, 0.05), lasso_fit(X, Y, 0.05)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.bias, b.bias)
    assert (a.n_iter, a.gap) == (b.n_iter, b.gap)


def _drops_features_design():
    rng = np.random.default_rng(0)
    X = np.cumsum(rng.normal(size=(40, 10)), axis=1)
    Y = X @ rng.normal(size=(10, 6)) + rng.normal(size=(40, 6))
    return X, Y, 0.01 * lasso_lambda_max(X, Y)


def test_lasso_path_that_drops_features():
    """A design on whose path features leave the active set, fitted column
    by column and all at once. With n > d no entry is refused, so a
    column that took more steps than its nonzeros + 1 dropped a feature.
    Oracle: the KKT conditions on the returned weights and bias."""
    X, Y, lam = _drops_features_design()
    single = [lasso_fit(X, Y[:, [j]], lam) for j in range(6)]
    assert any(s.n_iter > np.count_nonzero(s.weight) + 1 for s in single)
    joint = lasso_fit(X, Y, lam)
    assert np.abs(joint.weight - np.vstack([s.weight for s in single])).max() \
        <= 1e-12 * np.abs(joint.weight).max()
    for m, Yj in zip(single + [joint], [Y[:, [j]] for j in range(6)] + [Y]):
        assert m.converged and m.gap <= 1e-10
        corr = (X - X.mean(axis=0)).T @ (Yj - linmap_predict(m, X)) / 40
        W = m.weight.T
        nz = W != 0.0
        assert np.all(np.abs(corr[~nz]) <= lam * (1 + 1e-8))
        assert np.all(np.abs(corr[nz] - lam * np.sign(W[nz])) <= 1e-8 * lam)


def _per_column(X, Y, lam):
    """Each output fitted on its own: a chain of one starts from zero."""
    return np.vstack([lasso_fit(X, Y[:, [j]], lam).weight
                      for j in range(Y.shape[1])])


def _assert_same_fit(W, ref):
    """Same active sets and signs; weights within 1e-10 of each output's
    largest."""
    assert np.array_equal(np.sign(W), np.sign(ref))
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(W - ref) <= 1e-10 * scale)


def _between_columns(Y, steps=4):
    """Targets on the segments between Y's neighbouring columns, so that
    each column's left neighbour is near it."""
    s = np.arange(steps) / steps
    parts = [Y[:, [j]] + s * (Y[:, [j + 1]] - Y[:, [j]])
             for j in range(Y.shape[1] - 1)]
    return np.hstack(parts + [Y[:, -1:]])


@pytest.mark.parametrize("design", [
    lambda: (*_walk_design(22, n=20, d=213, m=60), 0.01),
    lambda: (*_walk_design(23, n=80, d=30, m=60), 0.01),
    lambda: (lambda X, Y, lam: (X, _between_columns(Y), lam))(
        *_drops_features_design()),
    lambda: (*_walk_design(15, n=12, d=40, m=6), 0.0)],
    ids=["n-lt-d", "n-gt-d", "drops-features", "lam0-n-lt-d"])
def test_lasso_chained_fit_equals_per_column_fits(design):
    """Each chained column starts from its left neighbour's solution and
    moves the target to its own: it must land on the solution its own
    start from zero finds. At lam = 0 with n < d, where least squares has
    many solutions, every column is the minimum-norm one."""
    X, Y, lam = design()
    m = lasso_fit(X, Y, lam)
    assert m.converged and m.gap <= 1e-10
    _assert_same_fit(m.weight, _per_column(X, Y, lam))


def test_lasso_identical_neighbours():
    """A zero-length target segment: the neighbour's solution is the
    column's own, reached in one step."""
    X, Y = _walk_design(24, m=1)
    m = lasso_fit(X, np.repeat(Y, 9, axis=1), 0.05)
    single = lasso_fit(X, Y, 0.05)
    assert m.converged and m.n_iter == single.n_iter
    _assert_same_fit(m.weight, np.repeat(single.weight, 9, axis=0))


def test_lasso_sign_flipped_neighbour():
    """Neighbours whose weights change sign. A target next to its own
    negative is nearer zero than its neighbour and starts from zero;
    a target that flips a few small weights moves them through zero."""
    rng = np.random.default_rng(25)
    X = np.cumsum(rng.normal(size=(40, 12)), axis=1)
    w = rng.normal(size=12)
    flip = np.where(np.abs(w) < np.median(np.abs(w)), -1.0, 1.0)
    noise = 0.1 * rng.normal(size=40)
    y, y_flip = X @ w + noise, X @ (w * flip) + noise
    Y = np.column_stack([y, -y, y, y_flip, y, y_flip])
    lam = 0.001 * lasso_lambda_max(X, Y)
    m = lasso_fit(X, Y, lam)
    assert m.converged
    W = m.weight
    assert np.array_equal(np.sign(W[1]), -np.sign(W[0]))
    changed = np.sign(W[3]) * np.sign(W[2]) < 0
    assert changed.any() and (~changed & (W[2] != 0)).any()
    _assert_same_fit(W, _per_column(X, Y, lam))


def test_lasso_channel_boundary():
    """Two-channel targets flatten to (upper, lower) samples: the chain
    that crosses from the upper channel's last sample to the lower's first
    meets an unrelated neighbour."""
    rng = np.random.default_rng(26)
    X = np.cumsum(rng.normal(size=(20, 60)), axis=1)
    upper = np.cumsum(rng.normal(size=(20, 25)), axis=1)
    lower = 3 * rng.normal(size=(20, 1)) + np.cumsum(
        rng.normal(size=(20, 25)), axis=1)
    Y = np.hstack([upper, lower])      # 9 chains; one spans columns 22-26
    m = lasso_fit(X, Y, 0.05)
    assert m.converged
    _assert_same_fit(m.weight, _per_column(X, Y, 0.05))


def _tied_design():
    """Three features +-x_i + z, with z orthogonal to the constant and to
    every column of X and Y: each meets +-lam exactly when its x_i does,
    and round-off then decides whether it enters, and leaves again, at a
    step of zero length."""
    rng = np.random.default_rng(28)
    n, d = 28, 7
    X = np.cumsum(rng.normal(size=(n, d)), axis=1)
    Y = 3 * np.cumsum(rng.normal(size=(n, 8)), axis=1) \
        + X @ rng.normal(size=(d, 1))
    basis = np.column_stack([np.ones(n), X, Y])
    ties = []
    for i, sign, norm in [(6, 1, 10.0), (3, -1, 1e-3), (5, -1, 10.0)]:
        z = rng.normal(size=n)
        z -= basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        ties.append(sign * X[:, i] + norm * z / np.linalg.norm(z))
    return np.column_stack([X] + ties), Y


@pytest.mark.parametrize("frac", [0.05, 0.01, 0.001])
def test_lasso_tied_features_do_not_cycle(frac):
    """Regression example: on this design the lockstep path used to enter
    and drop a tied feature at zero-length steps until LASSO_MAX_ITER,
    with a gap near 1. A feature that has just entered may not leave on
    the next step, nor one that has just left re-enter on its side."""
    X, Y = _tied_design()
    lam = frac * lasso_lambda_max(X, Y)
    m = lasso_fit(X, Y, lam)
    assert m.converged and m.n_iter < 30


@pytest.mark.parametrize("frac", [0.01, 0.001])
def test_lasso_segment_refusing_a_feature_runs_the_path(frac):
    """Regression example: with near-twin features (pairs 1e-3 apart) a
    target segment may have to refuse a feature as dependent on the active
    ones, and then ends off the column's solution; the column starts again
    from zero instead."""
    rng = np.random.default_rng(25)
    X = rng.normal(size=(13, 21))
    X[:, 1::2] = X[:, 0:20:2] + 1e-3 * rng.normal(size=(13, 10))
    Y = np.cumsum(rng.normal(size=(13, 9)), axis=1)
    m = lasso_fit(X, Y, frac * lasso_lambda_max(X, Y))
    assert m.converged


def test_linmap_predict_shapes():
    m = ols_fit(np.random.default_rng(7).normal(size=(30, 4)),
                np.random.default_rng(8).normal(size=(30, 2)))
    single = linmap_predict(m, np.zeros((1, 4)))
    batch = linmap_predict(m, np.zeros((5, 4)))
    assert single.shape == (1, 2)
    assert batch.shape == (5, 2)
    assert np.allclose(batch[0], single[0])
    with pytest.raises(ShapeMismatch):
        linmap_predict(m, np.zeros((1, 3)))
    with pytest.raises(ShapeMismatch):
        linmap_predict(m, np.zeros((5, 3)))


def test_linmap_predict_batch_matches_rows():
    # a window-sized map: 20 windows of 213 samples -> 2 x 213 targets
    rng = np.random.default_rng(9)
    m = ridge_fit(rng.normal(size=(20, 213)), rng.normal(size=(20, 426)), 1.0)
    X = rng.normal(size=(7, 213))
    rows = np.stack([m.weight @ x + m.bias for x in X])  # per-row GEMVs
    # one GEMM sums in another order than per-row GEMVs: bound the drift
    # relative to the output scale, not per element
    drift = np.abs(linmap_predict(m, X) - rows).max()
    assert drift <= 1e-12 * np.abs(rows).max()
