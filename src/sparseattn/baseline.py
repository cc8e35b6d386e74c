"""Dense CNN reference point: two conv blocks with average pooling and an
affine head, trained with focal loss only by the sparse model's epoch loop.
It processes every pixel, so its cost scales with the image area rather
than the pixel budget.
"""

from __future__ import annotations

import numpy as np

from .cost import CostReport, conv_flops
from .data import SYNTHETIC_CLASSES, LabeledImage
from .losses import BatchLossReport, LossConfig, focal_loss
from .tensor import (
    GradientTape,  # noqa: F401  (bench/tracer.py wraps the name here to time steps)
    Module,
    Tensor,
    add,
    assign_params,
    avg_pool2,
    check_sizes,
    concat,
    conv2d,
    matmul,
    pack,
    relu,
    reshape,
    unpack,
)
from .train import (
    MetricsReport,
    TrainConfig,
    chunked_confusion,
    fit,
    metrics_from_confusion,
    stack_images,
)


CHANNELS = (16, 32)
KSIZE = 3   # both convolutions: 3x3 kernels
# images per taped forward in training. Two-epoch fixture calls took a
# median 1.00 s one image at a time and 1.04/0.84/0.91/1.02 s at chunks of
# 2/4/8/32 (2-CPU Xeon, one BLAS thread); a process making two such calls
# peaks at 58.8 MB one image at a time, then 59.4/60.0/62.3/72.9 MB: at 32,
# conv2's window columns alone take 9.4 MB
TRAIN_CHUNK = 4


def _flat_size(h: int, w: int) -> int:
    """Length of the feature vector the head reads: two 2x2 pools."""
    return CHANNELS[1] * (h // 4) * (w // 4)


class BaselineNet(Module):
    """1 -> 16 -> 32 channel conv net; each block is conv, relu, 2x2 avg pool."""

    def __init__(self, rng: np.random.Generator, image_shape: tuple[int, int],
                 classes: int):
        h, w = image_shape
        if h < 4 or w < 4 or h % 4 or w % 4:
            raise ValueError(f"image shape {image_shape} must be positive multiples of 4")
        self.image_shape = (h, w)
        self.class_count = classes
        c1, c2 = CHANNELS
        flat = _flat_size(h, w)
        lim1 = (1.0 / (1 * KSIZE * KSIZE)) ** 0.5
        lim2 = (1.0 / (c1 * KSIZE * KSIZE)) ** 0.5
        lim3 = (1.0 / flat) ** 0.5
        self.conv1_w = Tensor(rng.uniform(-lim1, lim1, (c1, 1, KSIZE, KSIZE)))
        self.conv1_b = Tensor(np.zeros(c1))
        self.conv2_w = Tensor(rng.uniform(-lim2, lim2, (c2, c1, KSIZE, KSIZE)))
        self.conv2_b = Tensor(np.zeros(c2))
        self.head_w = Tensor(rng.uniform(-lim3, lim3, (flat, classes)))
        self.head_b = Tensor(np.zeros(classes))


def build_baseline(seed: int, image_shape: tuple[int, int],
                   class_count: int = SYNTHETIC_CLASSES) -> BaselineNet:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 53]))
    return BaselineNet(rng, image_shape, class_count)


def baseline_forward(net: BaselineNet, images: Tensor) -> Tensor:
    """(C,) logits of one H×W image, or B×C logits of a B×H×W batch."""
    shape = images.data.shape
    x = reshape(images, (-1, 1) + shape[-2:])
    h = avg_pool2(relu(conv2d(x, net.conv1_w, net.conv1_b)))
    h = avg_pool2(relu(conv2d(h, net.conv2_w, net.conv2_b)))
    flat = reshape(h, (x.data.shape[0], -1))
    logits = add(matmul(flat, net.head_w), net.head_b)
    return reshape(logits, shape[:-2] + (net.class_count,))


def _batch_report(net: BaselineNet, batch,
                  cfg: LossConfig) -> tuple[BatchLossReport, np.ndarray]:
    """Focal loss over a batch, one taped forward per TRAIN_CHUNK stacked
    images: 82 tape ops per 32-image step, against 298 one image at a time."""
    logits = concat([baseline_forward(net, stack_images(batch[i:i + TRAIN_CHUNK]))
                     for i in range(0, len(batch), TRAIN_CHUNK)], axis=0)
    loss = focal_loss(logits, [s.label for s in batch], cfg)
    value = loss.item()
    report = BatchLossReport(focal=value, contrastive=0.0, distill=0.0, total=value,
                             total_tensor=loss)
    return report, np.argmax(logits.data, axis=1)


def train_baseline(net: BaselineNet, dataset: list[LabeledImage],
                   config: TrainConfig) -> tuple[BaselineNet, list[dict]]:
    """The sparse model's epoch loop (`train.fit`) with a focal-only loss
    and no pixel budget."""
    logs = fit(net, dataset, config,
               lambda batch, cfg: _batch_report(net, batch, cfg),
               lambda: baseline_checkpoint_bytes(net),
               lambda data: assign_params(net.params(), unpack(data, BASELINE_MAGIC, _VERSION)[1]),
               lambda train_loss: {})
    return net, logs


def evaluate_baseline(net: BaselineNet, dataset: list[LabeledImage]) -> MetricsReport:
    conf = chunked_confusion(lambda images: (baseline_forward(net, images), None), dataset, net)
    h, w = net.image_shape
    return metrics_from_confusion(conf, float(h * w), 100.0)


def baseline_cost(net: BaselineNet) -> CostReport:
    """Dense cost: every stage scales with the full image area."""
    h, w = net.image_shape
    c1, c2 = CHANNELS
    stages = {
        "conv1": conv_flops(h, w, 1, KSIZE, c1),
        "conv2": conv_flops(h // 2, w // 2, c1, KSIZE, c2),
        "head": c2 * (h // 4) * (w // 4) * net.class_count,
    }
    return CostReport(parameters=net.param_count(), stage_flops=stages,
                      pixel_percent=100.0)


# ---------------------------------------------------------------------------
# checkpointing: the tensor.pack container, as for the sparse model
# ---------------------------------------------------------------------------

BASELINE_MAGIC = b"SATB"
_VERSION = 1


def baseline_checkpoint_bytes(net: BaselineNet) -> bytes:
    meta = {"image_shape": list(net.image_shape), "classes": net.class_count}
    return pack(BASELINE_MAGIC, _VERSION, meta, net.params())


def baseline_from_bytes(data: bytes) -> BaselineNet:
    meta, arrays = unpack(data, BASELINE_MAGIC, _VERSION)
    h, w = meta["image_shape"]
    check_sizes(arrays, [("head_w", 0, _flat_size(h, w)), ("head_w", 1, meta["classes"])])
    net = build_baseline(0, (h, w), meta["classes"])
    assign_params(net.params(), arrays)
    return net
