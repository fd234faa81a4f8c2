import tracemalloc

import numpy as np
import pytest

from pwdrecon import baselines
from pwdrecon.baselines import (
    lasso_fit,
    lasso_lambda_max,
    lasso_objective,
    linmap_predict,
    load_linear_map,
    ols_fit,
    ridge_fit,
    save_linear_map,
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
    # oracle: the normal equations with a 1e-10 jitter, bit for bit
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 213))
    Y = rng.normal(size=(20, 426))
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    W = np.linalg.solve(Xc.T @ Xc + 1e-10 * np.eye(213), Xc.T @ Yc)
    m = ols_fit(X, Y)
    assert np.array_equal(m.weight, W.T)
    assert np.array_equal(m.bias, Y.mean(axis=0) - X.mean(axis=0) @ W)
    assert (m.kind, m.lam, m.gap) == ("ols", 0.0, 0.0)


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


def test_lasso_lambda_max_zeroes_solution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 5))
    Y = rng.normal(size=(60, 3))
    lam_max = lasso_lambda_max(X, Y)
    m = lasso_fit(X, Y, lam_max * 1.0001)
    assert np.all(m.weight == 0.0)
    m2 = lasso_fit(X, Y, lam_max * 0.5)
    assert np.any(m2.weight != 0.0)


def test_lasso_orthogonal_soft_threshold():
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
    m = lasso_fit(X, Y, lam, tol=1e-12)
    assert m.converged
    assert np.allclose(m.weight.T, w_exp, atol=1e-8)
    # the small true coefficient is driven exactly to zero
    assert m.weight[0, 2] == 0.0


def test_lasso_objective_never_above_ols_start():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 6))
    Y = rng.normal(size=(80, 2))
    lam = 0.05
    m = lasso_fit(X, Y, lam, tol=1e-9)
    # the zero solution starts the homotopy; the result must not be worse
    from pwdrecon.baselines import LinearMap
    zero = LinearMap(weight=np.zeros((2, 6)),
                     bias=Y.mean(axis=0), kind="lasso", lam=lam)
    assert lasso_objective(X, Y, m) <= lasso_objective(X, Y, zero) + 1e-12


def test_lasso_nonconvergence_flag():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 10))
    Y = rng.normal(size=(40, 4))
    with pytest.warns(RuntimeWarning, match="relative duality gap"):
        m = lasso_fit(X, Y, 1e-6, max_iter=1, tol=1e-14)
    assert not m.converged
    assert m.gap > 1e-14 and m.n_iter == 1


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


def test_lasso_column_groups_bound_gram_blocks(monkeypatch):
    """With n > d the active sets grow to rank(Xc) = d, where the padded
    Gram blocks of all m outputs take 8 m d^2 bytes. The outputs are
    followed in groups within the byte budget, to the same fit."""
    X, Y = _walk_design(18, n=50, d=40, m=120)
    blocks = 8 * 120 * 40 ** 2
    whole, whole_peak = _traced(lasso_fit, X, Y, 0.01)
    monkeypatch.setattr(baselines, "_BLOCK_BYTES", blocks // 8)
    grouped, peak = _traced(lasso_fit, X, Y, 0.01)
    assert whole.converged and grouped.converged
    assert (np.count_nonzero(whole.weight, axis=1) == 40).any()
    assert np.abs(grouped.weight - whole.weight).max() \
        <= 1e-9 * np.abs(whole.weight).max()
    assert whole_peak > blocks > 2 * peak


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


def test_linmap_predict_shapes():
    m = ols_fit(np.random.default_rng(7).normal(size=(30, 4)),
                np.random.default_rng(8).normal(size=(30, 2)))
    single = linmap_predict(m, np.zeros(4))
    batch = linmap_predict(m, np.zeros((5, 4)))
    assert single.shape == (2,)
    assert batch.shape == (5, 2)
    assert np.allclose(batch[0], single)
    with pytest.raises(ShapeMismatch):
        linmap_predict(m, np.zeros(3))
    with pytest.raises(ShapeMismatch):
        linmap_predict(m, np.zeros((5, 3)))


def test_linmap_predict_batch_matches_rows():
    # a window-sized map: 20 windows of 213 samples -> 2 x 213 targets
    rng = np.random.default_rng(9)
    m = ridge_fit(rng.normal(size=(20, 213)), rng.normal(size=(20, 426)), 1.0)
    X = rng.normal(size=(7, 213))
    rows = np.stack([linmap_predict(m, x) for x in X])
    # one GEMM sums in another order than per-row GEMVs: bound the drift
    # relative to the output scale, not per element
    drift = np.abs(linmap_predict(m, X) - rows).max()
    assert drift <= 1e-12 * np.abs(rows).max()


def test_linear_map_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    with pytest.warns(RuntimeWarning):
        m = lasso_fit(rng.normal(size=(30, 6)), rng.normal(size=(30, 4)),
                      1e-3, max_iter=2, tol=1e-14)
    path = str(tmp_path / "model.npz")
    save_linear_map(m, path)
    loaded = load_linear_map(path)
    assert np.array_equal(loaded.weight, m.weight)
    assert np.array_equal(loaded.bias, m.bias)
    assert (loaded.kind, loaded.lam, loaded.converged, loaded.n_iter,
            loaded.gap) == ("lasso", 1e-3, False, 2, m.gap)
    # a file written before the gap was stored loads with gap = nan
    old = str(tmp_path / "old.npz")
    np.savez(old, weight=m.weight, bias=m.bias, kind=np.array("lasso"),
             lam=np.array(1e-3), converged=np.array(False),
             n_iter=np.array(2))
    assert np.isnan(load_linear_map(old).gap)
