"""Hierarchical sparse-attention image classifier.

A small convolutional saliency net ranks pixels, a loss-trend controller
adapts how many are kept, and linear multi-head attention over the
selected (x, y, v) tokens classifies the image. Everything runs on a
self-contained float64 tape-autodiff core.
"""

from .tensor import (
    DimensionError,
    DomainError,
    GradientTape,
    NumericError,
    TapeError,
    Tensor,
    grad_check,
)
from .coarse import CoarseNet, CoarseOutput, coarse_forward
from .selector import KController, Selection, select_top_k, update_k
from .embedding import Embedder, embed_pixels
from .fine import FineAttention, FineOutput, fine_forward
from .model import (
    Classifier,
    Diagnostics,
    ModelState,
    build_model,
    load_model,
    model_forward,
    predict,
    save_model,
)
from .losses import (
    BatchLossReport,
    LossConfig,
    class_weights,
    contrastive_loss,
    distill_loss,
    focal_loss,
    total_loss,
)
from .data import (
    DatasetError,
    LabeledImage,
    SyntheticSpec,
    export_dataset,
    generate,
    load_dataset,
    read_pgm,
    split,
    write_pgm,
)
from .train import AdamW, MetricsReport, TrainConfig, evaluate, train
from .cost import CostReport, count_cost
from .baseline import (
    BaselineNet,
    baseline_cost,
    baseline_forward,
    build_baseline,
    evaluate_baseline,
    train_baseline,
)

__version__ = "0.1.0"
