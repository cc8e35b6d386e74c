"""Training loop, AdamW with decoupled weight decay, plateau LR schedule,
per-epoch pixel-budget updates, and evaluation metrics.

A training batch is one B×H×W tensor: each optimizer step records one
forward pass and one loss on its tape, and evaluation runs tape-free over
chunks of the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledImage, check_image_shapes
from .losses import BatchLossReport, LossConfig, class_weights, total_loss
from .model import ModelState, checkpoint_bytes, model_forward, restore_model
from .selector import update_k
from .tensor import GradientTape, NumericError, Tensor

# images per tape-free forward in evaluate(): enough to amortize the
# per-call overhead; each image in a chunk adds about 0.5 MB to the peak
# resident memory at 32×32, and 16 images ran no faster than 8
EVAL_CHUNK = 8


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    val_fraction: float = 0.2
    plateau_factor: float = 0.9
    plateau_patience: int = 5
    gamma: float = 2.0
    lambda_contrast: float = 0.1
    lambda_distill: float = 0.02
    tau: float = 0.07
    emphasis: float = 2.0
    alpha_per_class: list[float] | None = None   # None -> inverse frequency

    def loss_config(self, labels=None, class_count: int | None = None) -> LossConfig:
        alpha = self.alpha_per_class
        if alpha is None and labels is not None and class_count:
            alpha = class_weights(labels, class_count)
        return LossConfig(gamma=self.gamma, alpha_per_class=alpha,
                          lambda_contrast=self.lambda_contrast,
                          lambda_distill=self.lambda_distill,
                          tau=self.tau, emphasis=self.emphasis)


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    With zero gradients and fresh state a step shrinks each parameter by
    exactly lr * weight_decay * value.
    """

    def __init__(self, named_params, learning_rate: float = 1e-3,
                 weight_decay: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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

    def __init__(self, learning_rate: float, factor: float = 0.9,
                 patience: int = 5):
        self.learning_rate = learning_rate
        self.factor = factor
        self.patience = patience
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
        return {
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
            "confusion": self.confusion,
            "k_mean": self.k_mean, "k_percent": self.k_percent,
        }


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


def evaluate(model: ModelState, dataset: list[LabeledImage]) -> MetricsReport:
    """Confusion-matrix metrics over a dataset with the current budget k."""
    if not dataset:
        raise ValueError("evaluate needs a non-empty dataset")
    c = model.class_count
    conf = np.zeros((c, c), dtype=np.int64)
    k = model.controller.k
    check_image_shapes(dataset, model.image_shape)
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = dataset[start:start + EVAL_CHUNK]
        logits, _ = model_forward(model, stack_images(chunk), k, training=False)
        np.add.at(conf, ([s.label for s in chunk], np.argmax(logits.data, axis=1)), 1)
    h, w = model.image_shape
    return metrics_from_confusion(conf, float(k), 100.0 * k / (h * w))


def _stratified_val_split(dataset, fraction, seed):
    if fraction <= 0:
        return list(dataset), []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    by_class: dict[int, list[int]] = {}
    for i, s in enumerate(dataset):
        by_class.setdefault(s.label, []).append(i)
    fit_idx, val_idx = [], []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        if len(idx) < 2:
            fit_idx.extend(idx.tolist())
            continue
        perm = rng.permutation(len(idx))
        cut = max(1, int(round(fraction * len(idx))))
        val_idx.extend(idx[perm[:cut]].tolist())
        fit_idx.extend(idx[perm[cut:]].tolist())
    return [dataset[i] for i in fit_idx], [dataset[i] for i in val_idx]


def _batch_report(model: ModelState, batch, k: int, cfg: LossConfig,
                  training: bool) -> tuple[BatchLossReport, np.ndarray]:
    """One forward pass and loss over a batch of images sharing one k;
    returns the loss report and the argmax prediction per sample."""
    logits, diag = model_forward(model, stack_images(batch), k, training=training)
    embeddings = diag.fine.z_fine if len(batch) >= 2 else None
    report = total_loss(logits, [s.label for s in batch], embeddings,
                        (diag.coarse.attention_map, diag.fine.pixel_importance,
                         diag.pixels), cfg)
    return report, np.argmax(logits.data, axis=1)


def train(model: ModelState, dataset: list[LabeledImage],
          config: TrainConfig) -> tuple[ModelState, list[dict]]:
    """Train in place; returns the model restored to its best-validation
    parameters plus one metrics record per epoch.

    A non-finite loss aborts with NumericError after restoring the last
    completed epoch's parameters.
    """
    if not dataset:
        raise ValueError("train needs a non-empty dataset")
    check_image_shapes(dataset, model.image_shape)
    fit_data, val_data = _stratified_val_split(dataset, config.val_fraction,
                                               config.seed)
    if not val_data:
        val_data = fit_data
    cfg = config.loss_config([s.label for s in fit_data], model.class_count)
    named_params = model.params()
    tensors = [t for _, t in named_params]
    opt = AdamW(named_params, learning_rate=config.learning_rate,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 37]))

    logs: list[dict] = []
    schedule = PlateauSchedule(config.learning_rate, config.plateau_factor,
                               config.plateau_patience)
    best_snapshot = checkpoint_bytes(model)
    last_good = best_snapshot
    bs = max(1, config.batch_size)

    for epoch in range(config.epochs):
        k = model.controller.k
        order = rng.permutation(len(fit_data))
        loss_sum = comp_focal = comp_contr = comp_dist = 0.0
        correct = 0
        try:
            for start in range(0, len(order), bs):
                batch = [fit_data[i] for i in order[start:start + bs]]
                tape = GradientTape()
                tape.watch(*tensors)
                report, preds = _batch_report(model, batch, k, cfg, training=True)
                tape.backward(report.total_tensor)
                opt.step()
                n = len(batch)
                loss_sum += report.total * n
                comp_focal += report.focal * n
                comp_contr += report.contrastive * n
                comp_dist += report.distill * n
                correct += sum(int(p) == s.label for p, s in zip(preds, batch))
        except NumericError:
            restore_model(model, last_good)
            raise
        n_fit = len(fit_data)
        mean_loss = loss_sum / n_fit
        update_k(model.controller, mean_loss)

        # validation pass: loss and confusion in one sweep, eval mode
        val_loss = 0.0
        conf = np.zeros((model.class_count, model.class_count), dtype=np.int64)
        for start in range(0, len(val_data), bs):
            batch = val_data[start:start + bs]
            report, preds = _batch_report(model, batch, k, cfg, training=False)
            val_loss += report.total * len(batch)
            np.add.at(conf, ([s.label for s in batch], preds), 1)
        val_loss /= len(val_data)
        h, w = model.image_shape
        val_metrics = metrics_from_confusion(conf, float(k), 100.0 * k / (h * w))

        opt.learning_rate, improved = schedule.observe(val_loss)
        if improved:
            best_snapshot = checkpoint_bytes(model)

        last_good = checkpoint_bytes(model)
        logs.append({
            "epoch": epoch,
            "k": k,
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

    restore_model(model, best_snapshot)
    return model, logs
