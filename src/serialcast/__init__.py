"""serialcast: serial-forecasting time-series transformer at desk scale.

A numpy-backed library and CLI for patch-tokenized univariate forecasting
with sparse mixture-of-experts blocks, serial-token prediction heads, a
two-stage training pipeline, shard-based data loading, and an inference
harness comparing single-pass serial forecasting against autoregressive
rolling.
"""

from .backbone import ModelConfig, init_params, model_forward
from .inference import ForecastDistribution, forecast, forecast_rolling_ntp
from .objectives import QuantileGrid
from .tokenizer import PatchBatch, denormalize, patchify, renormalize
from .trainer import TrainConfig, load_checkpoint, run_pretrain, run_stage, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "QuantileGrid",
    "ForecastDistribution",
    "PatchBatch",
    "init_params",
    "model_forward",
    "forecast",
    "forecast_rolling_ntp",
    "renormalize",
    "denormalize",
    "patchify",
    "run_pretrain",
    "run_stage",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
