from .model import (
    NetConfig,
    backward,
    config_of,
    forward_batch,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .ops import mse_loss
from .optim import rmsprop_step
from .train import train

__all__ = [
    "NetConfig", "backward", "config_of", "forward_batch", "init_params",
    "load_checkpoint", "predict", "save_checkpoint",
    "mse_loss", "rmsprop_step", "train",
]
