"""Dense CNN reference point: two conv blocks with average pooling and an
affine head, trained with focal loss only by the sparse model's epoch loop.
It processes every pixel, so its cost scales with the image area rather
than the pixel budget.
"""

from __future__ import annotations

import numpy as np

from .cost import CostReport, conv_flops
from .data import LabeledImage, check_image_shapes
from .losses import BatchLossReport, LossConfig, focal_loss
from .tensor import (
    GradientTape,  # noqa: F401  (bench/tracer.py wraps the name here to time steps)
    Tensor,
    add,
    assign_params,
    check_sizes,
    concat,
    conv2d,
    matmul,
    pack,
    reduce_mean,
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
)


CHANNELS = (16, 32)


def _flat_size(h: int, w: int) -> int:
    """Length of the feature vector the head reads: two 2x2 pools."""
    return CHANNELS[1] * (h // 4) * (w // 4)


class BaselineNet:
    """1 -> 16 -> 32 channel conv net; each block is conv, relu, 2x2 avg pool."""

    def __init__(self, rng: np.random.Generator, image_shape: tuple[int, int],
                 classes: int, ksize: int = 3):
        h, w = image_shape
        if h < 4 or w < 4 or h % 4 or w % 4:
            raise ValueError(f"image shape {image_shape} must be positive multiples of 4")
        self.image_shape = (h, w)
        self.class_count = classes
        self.ksize = ksize
        self.pad = (ksize - 1) // 2
        self.channels = CHANNELS
        flat = _flat_size(h, w)
        lim1 = (1.0 / (1 * ksize * ksize)) ** 0.5
        lim2 = (1.0 / (self.channels[0] * ksize * ksize)) ** 0.5
        lim3 = (1.0 / flat) ** 0.5
        self.conv1_w = Tensor(rng.uniform(-lim1, lim1, (self.channels[0], 1, ksize, ksize)))
        self.conv1_b = Tensor(np.zeros(self.channels[0]))
        self.conv2_w = Tensor(rng.uniform(-lim2, lim2,
                                          (self.channels[1], self.channels[0], ksize, ksize)))
        self.conv2_b = Tensor(np.zeros(self.channels[1]))
        self.head_w = Tensor(rng.uniform(-lim3, lim3, (flat, classes)))
        self.head_b = Tensor(np.zeros(classes))

    def params(self):
        return [
            ("conv1_w", self.conv1_w), ("conv1_b", self.conv1_b),
            ("conv2_w", self.conv2_w), ("conv2_b", self.conv2_b),
            ("head_w", self.head_w), ("head_b", self.head_b),
        ]

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.params())


def build_baseline(seed: int, image_shape: tuple[int, int],
                   class_count: int = 3) -> BaselineNet:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 53]))
    return BaselineNet(rng, image_shape, class_count)


def _avg_pool2(x: Tensor) -> Tensor:
    b, c, h, w = x.data.shape
    y = reshape(x, (b, c, h // 2, 2, w // 2, 2))
    return reduce_mean(reduce_mean(y, axis=5), axis=3)


def baseline_forward(net: BaselineNet, images: Tensor) -> Tensor:
    """(C,) logits of one H×W image, or B×C logits of a B×H×W batch."""
    shape = images.data.shape
    x = reshape(images, (-1, 1) + shape[-2:])
    h = _avg_pool2(relu(conv2d(x, net.conv1_w, net.conv1_b, net.pad)))
    h = _avg_pool2(relu(conv2d(h, net.conv2_w, net.conv2_b, net.pad)))
    flat = reshape(h, (x.data.shape[0], -1))
    logits = add(matmul(flat, net.head_w), net.head_b)
    return reshape(logits, shape[:-2] + (net.class_count,))


def _batch_report(net: BaselineNet, batch,
                  cfg: LossConfig) -> tuple[BatchLossReport, np.ndarray]:
    """Focal loss over a batch, one forward pass per image: one pass over
    the whole batch ran slower and held more memory."""
    rows = [reshape(baseline_forward(net, s.pixels), (1, net.class_count)) for s in batch]
    logits = concat(rows, axis=0)
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
               lambda data: assign_params(net.params(), unpack(data, _MAGIC, _VERSION)[1]),
               lambda train_loss: {})
    return net, logs


def evaluate_baseline(net: BaselineNet, dataset: list[LabeledImage]) -> MetricsReport:
    if not dataset:
        raise ValueError("evaluate_baseline needs a non-empty dataset")
    check_image_shapes(dataset, net.image_shape)
    conf = chunked_confusion(lambda images: (baseline_forward(net, images), None),
                             dataset, net.class_count)
    h, w = net.image_shape
    return metrics_from_confusion(conf, float(h * w), 100.0)


def baseline_cost(net: BaselineNet) -> CostReport:
    """Dense cost: every stage scales with the full image area."""
    h, w = net.image_shape
    c1, c2 = net.channels
    k = net.ksize
    stages = {
        "conv1": conv_flops(h, w, 1, k, c1),
        "conv2": conv_flops(h // 2, w // 2, c1, k, c2),
        "head": c2 * (h // 4) * (w // 4) * net.class_count,
    }
    return CostReport(parameters=net.param_count(), stage_flops=stages,
                      pixel_percent=100.0)


# ---------------------------------------------------------------------------
# checkpointing: the tensor.pack container, as for the sparse model
# ---------------------------------------------------------------------------

_MAGIC = b"SATB"
_VERSION = 1


def baseline_checkpoint_bytes(net: BaselineNet) -> bytes:
    meta = {"image_shape": list(net.image_shape), "classes": net.class_count}
    return pack(_MAGIC, _VERSION, meta, net.params())


def baseline_from_bytes(data: bytes) -> BaselineNet:
    meta, arrays = unpack(data, _MAGIC, _VERSION)
    h, w = meta["image_shape"]
    check_sizes(arrays, [("head_w", 0, _flat_size(h, w)), ("head_w", 1, meta["classes"])])
    net = build_baseline(0, (h, w), meta["classes"])
    assign_params(net.params(), arrays)
    return net


def save_baseline(net: BaselineNet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(baseline_checkpoint_bytes(net))
