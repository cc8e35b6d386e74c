"""Training loop, AdamW with decoupled weight decay, plateau LR schedule,
per-epoch pixel-budget updates, and evaluation metrics.

A training batch is one B×H×W tensor: each optimizer step records one
forward pass and one loss on its tape, and evaluation runs tape-free over
chunks of the dataset. The dense baseline shares the epoch loop (`fit`)
and the chunked confusion matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import LabeledImage, check_dataset, stratified_parts
from .losses import BatchLossReport, LossConfig, class_weights, total_loss
from .model import ModelState, checkpoint_bytes, model_forward, restore_model
from .selector import update_k
from .tensor import GradientTape, NumericError, Tensor

# images per tape-free forward in evaluate(): enough to amortize the
# per-call overhead; each image in a chunk adds about 0.17 MB to the peak
# resident memory at 32×32 (one k=512 pass over 180 images in a fresh
# process: +0.9, +1.3, +1.9 and +3.4 MB at chunks of 1, 4, 8 and 16; the
# peak is the coarse stage's conv temporaries, not its pooled mean)
EVAL_CHUNK = 8


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    val_fraction: float = 0.2
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 <= self.learning_rate < np.inf and 0 <= self.weight_decay < np.inf
                and self.batch_size >= 1 and self.epochs >= 0 and 0 <= self.val_fraction < 1):
            raise ValueError("need finite learning_rate and weight_decay >= 0, batch_size >= 1, "
                             f"epochs >= 0 and val_fraction in [0, 1), got {self}")


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    With zero gradients and fresh state a step shrinks each parameter by
    exactly lr * weight_decay * value.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, learning_rate: float = TrainConfig.learning_rate,
                 weight_decay: float = TrainConfig.weight_decay):
        self.named_params = list(named_params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.named_params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.named_params}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        lr, wd = self.learning_rate, self.weight_decay
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name] = b1 * self._m[name] + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - lr * update - lr * wd * p.data
            p.grad = None


class PlateauSchedule:
    """Multiply the learning rate by `factor` after `patience` consecutive
    epochs without validation-loss improvement."""

    factor, patience = 0.9, 5

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.best = np.inf
        self.bad_epochs = 0

    def observe(self, val_loss: float) -> tuple[float, bool]:
        """Returns (current lr, whether this observation set a new best)."""
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
            return self.learning_rate, True
        self.bad_epochs += 1
        if self.bad_epochs >= self.patience:
            self.learning_rate *= self.factor
            self.bad_epochs = 0
        return self.learning_rate, False


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: list[list[int]]
    k_mean: float
    k_percent: float

    def to_dict(self) -> dict:
        return asdict(self)


def metrics_from_confusion(confusion: np.ndarray, k_mean: float,
                           k_percent: float) -> MetricsReport:
    """Support-weighted precision/recall/F1 from a rows-are-truth matrix."""
    conf = np.asarray(confusion, dtype=np.int64)
    total = conf.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    support = conf.sum(axis=1)
    predicted = conf.sum(axis=0)
    tp = np.diag(conf).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
        rec = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
        f1 = np.where(prec + rec > 0, 2 * prec * rec / np.maximum(prec + rec, 1e-300), 0.0)
    weights = support / total
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        precision=float((weights * prec).sum()),
        recall=float((weights * rec).sum()),
        f1=float((weights * f1).sum()),
        confusion=conf.tolist(),
        k_mean=k_mean,
        k_percent=k_percent,
    )


def stack_images(samples: list[LabeledImage]) -> Tensor:
    """One B×H×W tensor of the samples' pixels."""
    return Tensor(np.stack([s.pixels.data for s in samples]))


def chunked_confusion(forward, dataset: list[LabeledImage], model) -> np.ndarray:
    """Rows-are-truth confusion matrix of the logits' argmax over chunks of
    EVAL_CHUNK images; forward(B×H×W tensor) -> (B×C logits, diagnostics).
    The dataset must be non-empty and pass check_dataset for `model` (its
    image_shape and class_count)."""
    if not dataset:
        raise ValueError("evaluation needs a non-empty dataset")
    check_dataset(dataset, model.image_shape, model.class_count)
    conf = np.zeros((model.class_count, model.class_count), dtype=np.int64)
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = dataset[start:start + EVAL_CHUNK]
        # the diagnostics go before the next forward: 1 MB less peak RSS at k=512
        logits = forward(stack_images(chunk))[0]
        np.add.at(conf, ([s.label for s in chunk], np.argmax(logits.data, axis=1)), 1)
    return conf


def evaluate(model: ModelState, dataset: list[LabeledImage]) -> MetricsReport:
    """Confusion-matrix metrics over a dataset with the current budget k."""
    k = model.controller.k
    conf = chunked_confusion(lambda images: model_forward(model, images, k), dataset, model)
    h, w = model.image_shape
    return metrics_from_confusion(conf, float(k), 100.0 * k / (h * w))


def _batch_report(model: ModelState, batch, k: int,
                  cfg: LossConfig) -> tuple[BatchLossReport, np.ndarray]:
    """One forward pass and loss over a batch of images sharing one k;
    returns the loss report and the argmax prediction per sample."""
    logits, diag = model_forward(model, stack_images(batch), k)
    report = total_loss(logits, [s.label for s in batch], diag.fine.z_fine,
                        (diag.coarse.attention_map, diag.fine.pixel_importance,
                         diag.pixels), cfg)
    return report, np.argmax(logits.data, axis=1)


def fit(model, dataset: list[LabeledImage], config: TrainConfig, batch_report,
        snapshot, restore, end_epoch) -> list[dict]:
    """The epoch loop of both trainers: one record per epoch, and `model`
    (with params(), image_shape, class_count) left at its best-validation
    snapshot() -> bytes. batch_report(samples, loss config) returns the
    batch's loss report and argmax predictions, taped inside a step.
    end_epoch(mean training loss) runs after validation and returns extra
    record fields. A non-finite loss restore()s the last completed epoch
    and raises NumericError."""
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    check_dataset(dataset, model.image_shape, model.class_count)
    val_data, fit_data = [], dataset
    if config.val_fraction:   # each class of n >= 2 validates at least one image
        val_data, fit_data = stratified_parts(
            dataset, config.seed, 31,
            lambda label, n: max(1, int(round(config.val_fraction * n))) if n > 1 else 0)
    if not fit_data:
        raise ValueError(f"val_fraction {config.val_fraction} leaves no image to fit")
    val_data = val_data or fit_data
    cfg = config.loss
    if cfg.alpha_per_class is None:
        cfg = replace(cfg, alpha_per_class=class_weights([s.label for s in fit_data],
                                                         model.class_count))
    named_params = model.params()
    tensors = [t for _, t in named_params]
    opt = AdamW(named_params, learning_rate=config.learning_rate,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 37]))

    logs: list[dict] = []
    schedule = PlateauSchedule(config.learning_rate)
    best_snapshot = last_good = snapshot()
    bs = config.batch_size
    n_fit = len(fit_data)

    for epoch in range(config.epochs):
        order = rng.permutation(n_fit)
        loss_sum = comp_focal = comp_contr = comp_dist = 0.0
        correct = 0
        try:
            for start in range(0, n_fit, bs):
                batch = [fit_data[i] for i in order[start:start + bs]]
                tape = GradientTape()
                tape.watch(*tensors)
                report, preds = batch_report(batch, cfg)
                tape.backward(report.total_tensor)
                opt.step()
                n = len(batch)
                loss_sum += report.total * n
                comp_focal += report.focal * n
                comp_contr += report.contrastive * n
                comp_dist += report.distill * n
                correct += sum(int(p) == s.label for p, s in zip(preds, batch))
            mean_loss = loss_sum / n_fit

            # validation pass: loss and confusion in one tape-free sweep
            val_loss = 0.0
            conf = np.zeros((model.class_count, model.class_count), dtype=np.int64)
            for start in range(0, len(val_data), bs):
                batch = val_data[start:start + bs]
                report, preds = batch_report(batch, cfg)
                val_loss += report.total * len(batch)
                np.add.at(conf, ([s.label for s in batch], preds), 1)
            val_loss /= len(val_data)
        except NumericError:
            restore(last_good)
            raise
        val_metrics = metrics_from_confusion(conf, 0.0, 0.0)
        extra = end_epoch(mean_loss)

        opt.learning_rate, improved = schedule.observe(val_loss)
        last_good = snapshot()
        if improved:
            best_snapshot = last_good
        logs.append({
            "epoch": epoch,
            **extra,
            "lr": opt.learning_rate,
            "train_loss": mean_loss,
            "focal": comp_focal / n_fit,
            "contrastive": comp_contr / n_fit,
            "distill": comp_dist / n_fit,
            "train_accuracy": correct / n_fit,
            "val_loss": val_loss,
            "val_accuracy": val_metrics.accuracy,
            "val_f1": val_metrics.f1,
        })

    restore(best_snapshot)
    return logs


def train(model: ModelState, dataset: list[LabeledImage],
          config: TrainConfig) -> tuple[ModelState, list[dict]]:
    """Train in place with `fit`. Each epoch runs at the controller's k,
    which update_k moves after the epoch's validation pass."""
    def end_epoch(train_loss: float) -> dict:
        k = model.controller.k
        update_k(model.controller, train_loss)
        return {"k": k}

    logs = fit(model, dataset, config,
               lambda batch, cfg: _batch_report(model, batch, model.controller.k, cfg),
               lambda: checkpoint_bytes(model),
               lambda data: restore_model(model, data),
               end_epoch)
    return model, logs
