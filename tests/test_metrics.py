import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwdrecon.errors import AllWindowsExcluded, ZeroVariance
from pwdrecon.metrics import (
    NEAR_ZERO_R,
    pearson_r,
    render_r,
    window_metrics,
)


def test_pearson_r_known_values():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(a, 2 * a + 1) == pytest.approx(1.0)
    assert pearson_r(a, -a) == pytest.approx(-1.0)
    # hand-computed: r of [1,2,3] vs [1,3,2] = 0.5
    assert pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)
    with pytest.raises(ZeroVariance):
        pearson_r(a, np.full(4, 2.0))
    with pytest.raises(ValueError):
        pearson_r(a, a[:3])


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
    rep = window_metrics(pred, true)
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
    rep = window_metrics([good, flat], [good.copy(), flat.copy()])
    assert rep.n_windows == 2
    assert rep.n_excluded == 1
    assert rep.mean_r == pytest.approx(1.0)
    with pytest.raises(AllWindowsExcluded):
        window_metrics([flat], [flat.copy()])


def test_window_metrics_validates_input():
    with pytest.raises(ValueError):
        window_metrics([], [])
    with pytest.raises(ValueError):
        window_metrics([np.zeros((2, 5))], [np.zeros((2, 6))])

