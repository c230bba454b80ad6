"""Recursive single-convolution image classifiers with tiny parameter budgets."""

from .errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DegenerateBatchError,
    NumericalError,
    ThriftyNetError,
)
from .model import (
    MacTally,
    ThriftyConfig,
    ThriftyNet,
    load_model,
    mean_activations,
    save_model,
)
from .planner import MacCount, ParamCount, mac_count, make_schedule, param_count, solve_filters
from .tensor import (
    BatchNormState,
    ConvKernel,
    Tape,
    Value,
    softmax_cross_entropy,
)
from .training import (
    AlphaRegConfig,
    SGD,
    TrainConfig,
    TrainResult,
    ablation_alpha,
    alpha_reg_loss,
    alpha_well_distance,
    binarize_alpha,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRegConfig",
    "BatchNormState",
    "CheckpointError",
    "ConfigurationError",
    "ConvKernel",
    "DataError",
    "DegenerateBatchError",
    "MacCount",
    "MacTally",
    "NumericalError",
    "ParamCount",
    "SGD",
    "Tape",
    "ThriftyConfig",
    "ThriftyNet",
    "ThriftyNetError",
    "TrainConfig",
    "TrainResult",
    "Value",
    "ablation_alpha",
    "alpha_reg_loss",
    "alpha_well_distance",
    "binarize_alpha",
    "evaluate",
    "load_model",
    "mac_count",
    "make_schedule",
    "mean_activations",
    "param_count",
    "save_model",
    "softmax_cross_entropy",
    "solve_filters",
    "train",
]
