"""Rank-aware image-text alignment at desk scale.

Inner-product similarity between a toy trainable encoder and learnable
class embeddings, per-class statistical calibration of similarity rows,
a bidirectional KL alignment loss plus a pairwise ordinal rank loss with
hand-derived gradients, and a reproducible experiment CLI.
"""

from .config import RunConfig, load_config, parse_config_text
from .core import (
    EmbeddingMatrix,
    InputError,
    LabelVector,
    SimilarityMatrix,
    StateError,
    kl_divergence_row,
    one_hot,
    similarity_matrix,
    softmax_rows,
)
from .data import Dataset, DatasetSpec, batch_iter, generate_synthetic, load_csv, write_csv
from .evaluation import (
    MetricsReport,
    auc_macro_ovr,
    class_mean_similarity,
    confusion_matrix,
    macro_f1,
    metrics_report,
    rank_monotonicity,
)
from .losses import (
    LossConfig,
    LossReport,
    rank_directional_loss,
    total_loss,
)
from .model import (
    ModelParams,
    OptimizerState,
    encode_images,
    init_optimizer,
    init_params,
    model_backward,
    optimizer_step,
)
from .sms import (
    CalibrationDisabled,
    ClassStats,
    KernelSpec,
    accumulate_class_stats,
    calibrate_rows,
    commit_epoch,
    init_class_stats,
    kernel_weights,
    smooth_stats,
)
from .train import evaluate, train

__version__ = "0.1.0"

__all__ = [
    "EmbeddingMatrix",
    "SimilarityMatrix",
    "LabelVector",
    "InputError",
    "StateError",
    "similarity_matrix",
    "softmax_rows",
    "kl_divergence_row",
    "one_hot",
    "KernelSpec",
    "ClassStats",
    "CalibrationDisabled",
    "kernel_weights",
    "init_class_stats",
    "accumulate_class_stats",
    "smooth_stats",
    "commit_epoch",
    "calibrate_rows",
    "LossConfig",
    "LossReport",
    "rank_directional_loss",
    "total_loss",
    "ModelParams",
    "OptimizerState",
    "init_params",
    "encode_images",
    "model_backward",
    "init_optimizer",
    "optimizer_step",
    "DatasetSpec",
    "Dataset",
    "generate_synthetic",
    "write_csv",
    "load_csv",
    "batch_iter",
    "MetricsReport",
    "macro_f1",
    "auc_macro_ovr",
    "rank_monotonicity",
    "class_mean_similarity",
    "confusion_matrix",
    "metrics_report",
    "RunConfig",
    "load_config",
    "parse_config_text",
    "train",
    "evaluate",
    "__version__",
]
