"""Dense CNN reference point: two conv blocks with average pooling and an
affine head, trained with focal loss only. It processes every pixel, so
its cost scales with the image area rather than the pixel budget.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from .cost import CostReport, conv_flops
from .data import LabeledImage, check_image_shapes
from .losses import LossConfig, class_weights, focal_loss
from .tensor import (
    GradientTape,
    NumericError,
    Tensor,
    add_rowvec,
    concat,
    conv2d,
    dump_tensor,
    matmul,
    read_tensor,
    reduce_mean,
    relu,
    reshape,
)
from .train import (
    AdamW,
    MetricsReport,
    PlateauSchedule,
    TrainConfig,
    metrics_from_confusion,
)


class BaselineNet:
    """1 -> 16 -> 32 channel conv net; each block is conv, relu, 2x2 avg pool."""

    def __init__(self, rng: np.random.Generator, image_shape: tuple[int, int],
                 classes: int, ksize: int = 3):
        h, w = image_shape
        if h % 4 or w % 4:
            raise ValueError(f"image shape {image_shape} must be divisible by 4")
        self.image_shape = (h, w)
        self.classes = classes
        self.ksize = ksize
        self.pad = (ksize - 1) // 2
        self.channels = (16, 32)
        flat = self.channels[1] * (h // 4) * (w // 4)
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
    c, h, w = x.data.shape
    y = reshape(x, (c, h // 2, 2, w // 2, 2))
    return reduce_mean(reduce_mean(y, axis=4), axis=2)


def baseline_forward(net: BaselineNet, image: Tensor) -> Tensor:
    x = image if image.data.ndim == 3 else reshape(image, (1,) + image.data.shape)
    h = _avg_pool2(relu(conv2d(x, net.conv1_w, net.conv1_b, net.pad)))
    h = _avg_pool2(relu(conv2d(h, net.conv2_w, net.conv2_b, net.pad)))
    flat = reshape(h, (1, -1))
    logits = add_rowvec(matmul(flat, net.head_w), net.head_b)
    return reshape(logits, (net.classes,))


def baseline_predict(net: BaselineNet, image: Tensor) -> int:
    return int(np.argmax(baseline_forward(net, image).data))


def train_baseline(net: BaselineNet, dataset: list[LabeledImage],
                   config: TrainConfig) -> tuple[BaselineNet, list[dict]]:
    """Same optimizer, schedule, and shuffling as the sparse trainer, but the
    loss is focal only and there is no pixel budget."""
    if not dataset:
        raise ValueError("train_baseline needs a non-empty dataset")
    check_image_shapes(dataset, net.image_shape)
    from .train import _stratified_val_split

    fit_data, val_data = _stratified_val_split(dataset, config.val_fraction,
                                               config.seed)
    if not val_data:
        val_data = fit_data
    alpha = config.alpha_per_class or class_weights(
        [s.label for s in fit_data], net.classes)
    cfg = LossConfig(gamma=config.gamma, alpha_per_class=alpha,
                     lambda_contrast=0.0, lambda_distill=0.0,
                     tau=config.tau, emphasis=config.emphasis)
    named = net.params()
    tensors = [t for _, t in named]
    opt = AdamW(named, learning_rate=config.learning_rate,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 37]))
    logs = []
    schedule = PlateauSchedule(config.learning_rate, config.plateau_factor,
                               config.plateau_patience)
    best = baseline_checkpoint_bytes(net)
    bs = max(1, config.batch_size)

    for epoch in range(config.epochs):
        order = rng.permutation(len(fit_data))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(order), bs):
            batch = [fit_data[i] for i in order[start:start + bs]]
            tape = GradientTape()
            tape.watch(*tensors)
            rows, labels = [], []
            for sample in batch:
                logits = baseline_forward(net, sample.pixels)
                if int(np.argmax(logits.data)) == sample.label:
                    correct += 1
                rows.append(reshape(logits, (1, net.classes)))
                labels.append(sample.label)
            loss = focal_loss(concat(rows, axis=0), labels, cfg)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError("baseline training loss is not finite")
            tape.backward(loss)
            opt.step()
            loss_sum += value * len(batch)

        val_loss = 0.0
        conf = np.zeros((net.classes, net.classes), dtype=np.int64)
        for start in range(0, len(val_data), bs):
            batch = val_data[start:start + bs]
            rows = [reshape(baseline_forward(net, s.pixels), (1, net.classes))
                    for s in batch]
            val_loss += focal_loss(concat(rows, axis=0),
                                   [s.label for s in batch], cfg).item() * len(batch)
            for row, sample in zip(rows, batch):
                conf[sample.label, int(np.argmax(row.data))] += 1
        val_loss /= len(val_data)

        opt.learning_rate, improved = schedule.observe(val_loss)
        if improved:
            best = baseline_checkpoint_bytes(net)
        logs.append({
            "epoch": epoch,
            "lr": opt.learning_rate,
            "train_loss": loss_sum / len(fit_data),
            "train_accuracy": correct / len(fit_data),
            "val_loss": val_loss,
            "val_accuracy": float(np.trace(conf) / conf.sum()),
        })

    restore_baseline(net, best)
    return net, logs


def evaluate_baseline(net: BaselineNet, dataset: list[LabeledImage]) -> MetricsReport:
    if not dataset:
        raise ValueError("evaluate_baseline needs a non-empty dataset")
    check_image_shapes(dataset, net.image_shape)
    conf = np.zeros((net.classes, net.classes), dtype=np.int64)
    for sample in dataset:
        conf[sample.label, baseline_predict(net, sample.pixels)] += 1
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
        "head": c2 * (h // 4) * (w // 4) * net.classes,
    }
    return CostReport(parameters=net.param_count(), stage_flops=stages,
                      pixel_percent=100.0)


# ---------------------------------------------------------------------------
# checkpointing (same tensor records as the sparse model, simpler header)
# ---------------------------------------------------------------------------

_MAGIC = b"SATB"


def baseline_checkpoint_bytes(net: BaselineNet) -> bytes:
    meta = json.dumps({"image_shape": list(net.image_shape),
                       "classes": net.classes}, sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", 1))
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    entries = net.params()
    buf.write(struct.pack("<I", len(entries)))
    for name, t in entries:
        raw = name.encode()
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        dump_tensor(t, buf)
    return buf.getvalue()


def baseline_from_bytes(data: bytes) -> BaselineNet:
    buf = io.BytesIO(data)
    if buf.read(4) != _MAGIC:
        raise ValueError("not a baseline checkpoint (bad magic)")
    (version,) = struct.unpack("<I", buf.read(4))
    if version != 1:
        raise ValueError(f"unsupported baseline checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", buf.read(4))
    meta = json.loads(buf.read(meta_len).decode())
    (count,) = struct.unpack("<I", buf.read(4))
    loaded = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", buf.read(2))
        name = buf.read(nlen).decode()
        loaded[name] = read_tensor(buf)
    net = build_baseline(0, tuple(meta["image_shape"]), meta["classes"])
    for name, t in net.params():
        t.data = loaded[name].data
    return net


def restore_baseline(net: BaselineNet, data: bytes) -> None:
    src = baseline_from_bytes(data)
    for (_, dst), (_, s) in zip(net.params(), src.params()):
        dst.data = s.data


def save_baseline(net: BaselineNet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(baseline_checkpoint_bytes(net))


def load_baseline(path) -> BaselineNet:
    with open(path, "rb") as fh:
        return baseline_from_bytes(fh.read())
