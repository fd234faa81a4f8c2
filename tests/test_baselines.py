import numpy as np
import pytest

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
    # zero solution is the CD starting point; result must not be worse
    from pwdrecon.baselines import LinearMap
    zero = LinearMap(weight=np.zeros((2, 6)),
                     bias=Y.mean(axis=0), kind="lasso", lam=lam)
    assert lasso_objective(X, Y, m) <= lasso_objective(X, Y, zero) + 1e-12


def test_lasso_nonconvergence_flag():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 10))
    Y = rng.normal(size=(40, 4))
    with pytest.warns(RuntimeWarning):
        m = lasso_fit(X, Y, 1e-6, max_iter=1, tol=1e-14)
    assert not m.converged


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
    assert (loaded.kind, loaded.lam, loaded.converged, loaded.n_iter) == \
        ("lasso", 1e-3, False, 2)
