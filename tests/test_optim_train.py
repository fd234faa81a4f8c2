import numpy as np
import pytest

from pwdrecon.errors import EmptyDataset, ShapeMismatch
from pwdrecon.harness.experiment import ExperimentConfig
from pwdrecon.net.model import forward_batch, init_params
from pwdrecon.net.optim import rmsprop_step
from pwdrecon.net.train import VAL_FRACTION, train
from pwdrecon.net.ops import mse_loss

TINY = ((2, 4, 8), 3)  # train's network arguments: channels, kernel_size


def test_rmsprop_single_step_closed_form():
    # oracle: hand-evaluated update from zero state
    params = init_params(*TINY, 2, seed=0)
    name0, p0 = next(iter(params.items()))
    before = p0.copy()
    grads = {name: np.ones_like(a) for name, a in params.items()}
    v = {}
    rmsprop_step(params, grads, v, 0.5)
    # v = 0.1 * 1^2 = 0.1; step = 0.5 * 1 / (sqrt(0.1) + 1e-8)
    expected_step = 0.5 / (np.sqrt(0.1) + 1e-8)
    assert np.allclose(p0, before - expected_step)
    assert np.allclose(v[name0], 0.1)


def test_rmsprop_two_steps_accumulator():
    params = init_params(*TINY, 2, seed=1)
    _, p0 = next(iter(params.items()))
    before = p0.copy()
    g = {name: 2.0 * np.ones_like(a) for name, a in params.items()}
    v = {}
    rmsprop_step(params, g, v, 0.1)
    rmsprop_step(params, g, v, 0.1)
    # v1 = 0.9*0 + 0.1*4 = 0.4; v2 = 0.9*0.4 + 0.1*4 = 0.76
    step1 = 0.1 * 2.0 / (np.sqrt(0.4) + 1e-8)
    step2 = 0.1 * 2.0 / (np.sqrt(0.76) + 1e-8)
    assert np.allclose(p0, before - step1 - step2)


def test_rmsprop_validates_gradients():
    params = init_params(*TINY, 2, seed=2)
    with pytest.raises(ShapeMismatch):
        rmsprop_step(params, {}, {}, 1e-3)


def _toy_dataset(n=24, L=16, seed=0):
    x = np.random.default_rng(seed).normal(size=(n, L))
    y = np.stack([np.roll(x, 1, axis=1), -x], axis=1)  # learnable, linear
    return x, y


def test_train_reduces_loss_and_logs():
    x, y = _toy_dataset()
    params, log = train(x, y, *TINY, epochs=8, batch_size=8, seed=0, lr=1e-3)
    assert len(log) == 8
    assert all(set(e) == {"epoch", "train_loss", "val_loss"} for e in log)
    assert [e["epoch"] for e in log] == list(range(8))
    assert log[-1]["train_loss"] < log[0]["train_loss"]


def test_train_returns_best_validation_params():
    x, y = _toy_dataset()
    params, log = train(x, y, *TINY, epochs=6, batch_size=8, seed=1, lr=1e-3)
    best_val = min(e["val_loss"] for e in log)
    # evaluate returned params on the same validation split
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(x))
    n_val = min(int(round(VAL_FRACTION * len(x))), len(x) - 1)
    val = perm[:n_val]
    pred, _ = forward_batch(params, x[val][:, None, :])
    loss, _ = mse_loss(pred, y[val])
    assert loss == pytest.approx(best_val, rel=1e-9)


def test_train_keeps_best_epoch_after_worse_ones():
    x, y = _toy_dataset()
    cfg = {"batch_size": 8, "seed": 3, "lr": 0.3}
    best, log = train(x, y, *TINY, epochs=6, **cfg)
    best_epoch = int(np.argmin([e["val_loss"] for e in log]))
    assert best_epoch < 6 - 1  # a later epoch was worse
    # the snapshot is the parameters as they stood after the best epoch
    ref, _ = train(x, y, *TINY, epochs=best_epoch + 1, **cfg)
    assert list(best) == list(ref)
    for name, a in best.items():
        assert np.array_equal(a, ref[name]), name


def test_train_deterministic_given_seed():
    x, y = _toy_dataset()
    cfg = {"epochs": 3, "batch_size": 8, "seed": 7, "lr": 1e-3}
    a, log_a = train(x, y, *TINY, **cfg)
    b, log_b = train(x, y, *TINY, **cfg)
    for (na, wa), (_, wb) in zip(a.items(), b.items()):
        assert np.array_equal(wa, wb), na
    assert log_a == log_b


# (train_loss, val_loss) per epoch of a 10-epoch seeded run, recorded with
# the per-window conv1d backward (one tensordot and one matmul per tap).
# The batch-flattened backward sums the same products in another order.
LOSS_LOG_PER_TAP = {
    "tiny": [
        (90.06235068523883, 25.559169143407892),
        (39.420680929055386, 18.041261245390885),
        (26.951567205681556, 15.048697742050484),
        (18.035693941135474, 12.311000277624467),
        (13.484213309485424, 9.994851700020796),
        (10.54253773780493, 7.691260868910217),
        (8.016559640624221, 6.190056056586012),
        (6.172384165359582, 5.17740183953088),
        (4.937266788614751, 4.399481949641377),
        (4.120561636594065, 3.568789718178915),
    ],
    "default": [
        (645.3893479000582, 3.292648760680575),
        (2.6903300466528983, 1.3328145985572144),
        (1.2701641873125145, 1.0424334458704325),
        (0.9693315675653595, 0.9143748472956713),
        (0.8445207408970031, 0.8273734010555138),
        (0.752263847331388, 0.7746725449049902),
        (0.6985030214072978, 0.7482235218540476),
        (0.6625984166452672, 0.8148323962805739),
        (0.6345760616199286, 0.6700376412910546),
        (0.5499021701008252, 0.6652536831778141),
    ],
}


@pytest.mark.parametrize("name,net,L", [
    ("tiny", TINY, 16),
    ("default", (ExperimentConfig().net_channels,
                 ExperimentConfig().kernel_size), 142)],
    ids=["tiny", "default"])
def test_train_loss_log_drift_is_bounded(name, net, L):
    """A reordered gradient reduction may move the loss log only by
    rounding: relative drift at most 1e-9 over 10 epochs."""
    x, y = _toy_dataset(L=L)
    _, log = train(x, y, *net, epochs=10, batch_size=8, seed=3, lr=1e-3)
    got = [(e["train_loss"], e["val_loss"]) for e in log]
    assert np.allclose(got, LOSS_LOG_PER_TAP[name], rtol=1e-9, atol=0.0)


def test_train_rejects_empty_dataset():
    with pytest.raises(EmptyDataset):
        train(np.zeros((0, 16)), np.zeros((0, 2, 16)), *TINY, epochs=1,
              batch_size=128, seed=0, lr=1e-3)
