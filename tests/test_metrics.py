import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwdrecon.errors import DegenerateInput, NumericalInstability
from pwdrecon.metrics import (
    NEAR_ZERO_R,
    MetricReport,
    render_r,
    window_metrics,
)

NO_WINDOW = "no window had a defined correlation"


def pearson_r(a, b) -> float:
    """r of one (length,) window pair, as window_metrics scores it."""
    a, b = (np.asarray(v, dtype=np.float64)[None, None] for v in (a, b))
    return window_metrics(a, b).mean_r


def test_pearson_r_known_values():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(a, 2 * a + 1) == pytest.approx(1.0)
    assert pearson_r(a, -a) == pytest.approx(-1.0)
    # hand-computed: r of [1,2,3] vs [1,3,2] = 0.5
    assert pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)
    with pytest.raises(DegenerateInput, match=NO_WINDOW):
        pearson_r(a, np.full(4, 2.0))


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=50),
       st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_pearson_affine_invariance(values, scale, shift):
    a = np.asarray(values)
    b = np.sin(a) + 0.1 * a  # arbitrary nonlinear companion
    if np.std(a) < 1e-6 or np.std(b) < 1e-6:
        return
    r0 = pearson_r(a, b)
    r1 = pearson_r(scale * a + shift, b)
    assert r1 == pytest.approx(r0, abs=1e-9)
    assert abs(r0) <= 1.0


def test_render_r_threshold():
    assert render_r(0.8312) == "0.8312"
    assert render_r(-0.5) == "-0.5000"
    assert render_r(0.0005) == "+"
    assert render_r(-0.0005) == "-"
    assert render_r(0.0) == "+"
    assert render_r(0.001) == "0.0010"  # exactly at threshold: rendered
    assert render_r(-0.001) == "-0.0010"


def test_window_metrics_aggregation():
    t = np.linspace(0, 1, 50)
    true = [np.stack([np.sin(6 * t), np.cos(6 * t)]) for _ in range(3)]
    pred = [w.copy() for w in true]
    pred[1] = -pred[1]  # one anti-correlated window
    rep = window_metrics(np.array(pred), np.array(true))
    assert rep.n_windows == 3
    assert rep.n_excluded == 0
    assert rep.mean_r == pytest.approx((1.0 - 1.0 + 1.0) / 3, abs=1e-9)
    assert rep.rendered_r == render_r(rep.mean_r)
    # MSE: perfect windows contribute 0; the flipped one 4*mean(true^2)
    expected_mse = np.mean((pred[1] - true[1]) ** 2) / 3
    assert rep.mean_mse == pytest.approx(expected_mse)


def test_window_metrics_excludes_flat_windows():
    t = np.linspace(0, 1, 30)
    good = np.stack([np.sin(5 * t), np.cos(5 * t)])
    flat = np.zeros_like(good)
    rep = window_metrics(np.array([good, flat]), np.array([good, flat]))
    assert rep.n_windows == 2
    assert rep.n_excluded == 1
    assert rep.mean_r == pytest.approx(1.0)
    with pytest.raises(DegenerateInput, match=NO_WINDOW):
        window_metrics(flat[None], flat[None])


def _loop_window_metrics(pred_windows, true_windows) -> MetricReport:
    """Reference: the per-window, per-channel loop window_metrics replaced."""
    window_rs = []
    n_excluded = 0
    mse_sum = 0.0
    for pred, true in zip(pred_windows, true_windows):
        pred = np.atleast_2d(pred)
        true = np.atleast_2d(true)
        mse_sum += float(np.mean((pred - true) ** 2))
        ch_rs = []
        for a, b in zip(pred, true):
            ac = a - a.mean()
            bc = b - b.mean()
            na, nb = np.sqrt(ac @ ac), np.sqrt(bc @ bc)
            if na == 0.0 or nb == 0.0:
                continue
            ch_rs.append(float(np.clip(ac @ bc / (na * nb), -1.0, 1.0)))
        if ch_rs:
            window_rs.append(float(np.mean(ch_rs)))
        else:
            n_excluded += 1
    if not window_rs:
        raise DegenerateInput("no window had a defined correlation")
    n_windows = len(pred_windows)
    return MetricReport(mean_r=float(np.mean(window_rs)),
                        mean_mse=mse_sum / n_windows, n_windows=n_windows,
                        n_excluded=n_excluded)


def _window_cases():
    """(name, pred, true) cases: random, flat, constant and NaN windows."""
    for seed, (c, n, length) in enumerate(itertools.product(
            (1, 2), (1, 2, 37), (71, 213, 568))):
        rng = np.random.default_rng(seed)
        true = rng.normal(size=(n, c, length))
        pred = 0.5 * true + rng.normal(size=true.shape)
        yield f"random-{c}x{n}x{length}", pred, true
        if n == 1:
            continue
        flat_one = pred.copy()
        flat_one[1, 0] = 0.0
        yield f"flat-channel-{c}x{n}x{length}", flat_one, true
        flat_all = true.copy()
        flat_all[0] = 0.0
        yield f"flat-window-{c}x{n}x{length}", pred, flat_all
        const = pred.copy()
        const[-1] = 0.1
        yield f"constant-{c}x{n}x{length}", const, true
        nan = pred.copy()
        nan[0, 0, length // 2] = np.nan
        yield f"nan-{c}x{n}x{length}", nan, true


def test_window_metrics_equals_per_window_loop():
    n_cases = 0
    for name, pred, true in _window_cases():
        expected = _loop_window_metrics(pred, true)
        if name.startswith("nan"):
            # the loop scores a NaN prediction as NaN; the array path
            # refuses to score it at all
            assert np.isnan(expected.mean_r), name
            with pytest.raises(NumericalInstability, match="1 of "):
                window_metrics(pred, true)
        else:
            assert window_metrics(pred, true) == expected, name
        n_cases += 1
    assert n_cases == 18 + 12 * 4
    flat = np.zeros((3, 2, 71))
    for score in (_loop_window_metrics, window_metrics):
        with pytest.raises(DegenerateInput, match=NO_WINDOW):
            score(flat + 1.0, flat)
    pred = np.ones((3, 2, 71)) + np.arange(71)
    pred[1, 1, :5] = [np.inf, -np.inf, np.nan, np.inf, 0.0]
    with pytest.raises(NumericalInstability, match="4 of 426 predicted"):
        window_metrics(pred, pred)
