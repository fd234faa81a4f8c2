from .model import (
    ConvSpec,
    NetConfig,
    PwDRecNetParams,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .ops import mse_loss
from .optim import RmspropState, rmsprop_step
from .train import TrainConfig, train

__all__ = [
    "ConvSpec", "NetConfig", "PwDRecNetParams",
    "backward", "forward_batch", "init_params",
    "load_checkpoint", "predict", "save_checkpoint",
    "mse_loss", "RmspropState", "rmsprop_step", "TrainConfig", "train",
]
