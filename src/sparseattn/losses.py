"""Compound training loss: focal classification, supervised contrastive
alignment of the fine representations, and one-directional attention
distillation from the fine importance scores onto the coarse map.

The distillation target is detached before the KL term is formed, so its
gradient reaches only the coarse module; the fine side acts as a frozen
teacher within each step.

Every term is computed for the whole batch at once: a row softmax for the
focal term, a positive-pair mask for the contrastive term, and a per-row
gather of the selected map values for the distillation term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .selector import Selection
from .tensor import (
    Tensor,
    add,
    clamp_min,
    div,
    exp,
    log,
    matmul,
    mul,
    power,
    reduce_mean,
    reduce_sum,
    reshape,
    softmax,
    sub,
    take,
    transpose,
)

PROB_FLOOR = 1e-12


@dataclass
class LossConfig:
    gamma: float = 2.0
    alpha_per_class: list[float] | None = None   # None -> uniform 1.0
    lambda_contrast: float = 0.1
    lambda_distill: float = 0.02
    tau: float = 0.07
    emphasis: float = 2.0

    def __post_init__(self):
        # written so that NaN fails each check
        non_negative = (self.gamma, self.emphasis, self.lambda_contrast, self.lambda_distill)
        if not (0 < self.tau < np.inf and all(0 <= x < np.inf for x in non_negative)):
            raise ValueError(f"need finite settings, tau > 0 and the rest >= 0, got {self}")
        if self.alpha_per_class is not None and not all(a > 0 for a in self.alpha_per_class):
            raise ValueError("class weights must be > 0")


@dataclass
class BatchLossReport:
    focal: float
    contrastive: float
    distill: float
    total: float
    total_tensor: Tensor | None = None   # live tape tensor for backward


def _labels(labels, classes: int) -> np.ndarray:
    out = np.asarray([int(l) for l in labels], dtype=np.intp)
    bad = out[(out < 0) | (out >= classes)]
    if bad.size:
        raise ValueError(f"label {int(bad[0])} outside [0, {classes})")
    return out


def focal_loss(logits: Tensor, labels, cfg: LossConfig) -> Tensor:
    """Batch mean of -alpha_y * (1 - p_y)^gamma * log p_y over softmax p."""
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be B×C, got shape {logits.data.shape}")
    b, c = logits.data.shape
    y = _labels(labels, c)
    if y.shape != (b,):
        raise ValueError(f"{y.size} labels for {b} rows of logits")
    p_y = clamp_min(take(softmax(logits), y), PROB_FLOOR)
    modulator = power(sub(1.0, p_y), cfg.gamma)
    alpha = np.ones(b) if cfg.alpha_per_class is None else np.asarray(cfg.alpha_per_class)[y]
    return reduce_mean(mul(Tensor(-alpha), mul(modulator, log(p_y))))


def contrastive_loss(embeddings: Tensor, labels, cfg: LossConfig) -> Tensor:
    """Supervised contrastive loss on L2-normalized rows at temperature tau.

    Each anchor's positive is the highest-index same-class sample other
    than itself; the denominator runs over all other samples. Anchors
    without a positive are skipped; no valid anchor (a batch of one, say)
    gives exactly 0 and records nothing.
    """
    if embeddings.data.ndim != 2:
        raise ValueError(f"embeddings must be B×D, got shape {embeddings.data.shape}")
    b = embeddings.data.shape[0]
    y = np.asarray([int(l) for l in labels])
    same = y[:, None] == y[None, :]
    np.fill_diagonal(same, False)
    anchors = np.flatnonzero(same.any(axis=1))
    if anchors.size == 0:
        return Tensor(0.0)
    # highest-index positive: the first True from the right of each row
    positive = b - 1 - np.argmax(same[:, ::-1], axis=1)

    sq = reduce_sum(mul(embeddings, embeddings), axis=1)
    norms = power(clamp_min(sq, PROB_FLOOR ** 2), 0.5)
    z = div(embeddings, reshape(norms, (b, 1)))
    sims = matmul(z, transpose(z))
    scores = exp(mul(sims, 1.0 / cfg.tau))

    denom = sub(reduce_sum(scores, axis=1), take(scores, np.arange(b)))
    ratio = div(take(scores, positive), denom)
    return mul(reduce_mean(log(take(ratio, anchors))), -1.0)


def distill_target(pixel_importance: Tensor, k: int, emphasis: float) -> np.ndarray:
    """Detached target distribution over the k selected pixels (per row of
    a batch).

    The CLS entry is dropped, the remaining importances are sharpened by
    the emphasis exponent and renormalized, then floored at PROB_FLOOR.
    """
    imp = np.asarray(pixel_importance.data[..., :k], dtype=np.float64)
    t = imp ** float(emphasis)
    mass = t.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(mass <= 0, 1.0 / k, t / mass)
    return np.maximum(t, PROB_FLOOR)


def distill_loss(coarse_map: Tensor, pixel_importance: Tensor,
                 selected: Selection, cfg: LossConfig,
                 target: np.ndarray | None = None) -> Tensor:
    """KL(P_coarse || P_fine) restricted to the selected pixel support,
    averaged over the images of a batch.

    coarse_map is H×W (B×H×W for a batch) and `selected` the matching
    selection. P_coarse is the softmax of the coarse-map values at the
    selected positions and carries gradient; P_fine is the detached,
    sharpened importance distribution (or an explicit `target`), so the
    divergence trains only the coarse side.
    """
    k = len(selected)
    if k == 0:
        raise ValueError("distill_loss needs at least one selected pixel")
    h, w = coarse_map.data.shape[-2:]
    maps = reshape(coarse_map, (-1, h * w))
    p_coarse = softmax(take(maps, selected.index.reshape(-1, k)))
    if target is None:
        target = distill_target(pixel_importance, k, cfg.emphasis)
    log_target = Tensor(np.log(target).reshape(-1, k))
    kl = reduce_sum(mul(p_coarse, sub(log(p_coarse), log_target)), axis=1)
    return reduce_mean(kl)


def total_loss(logits: Tensor, labels, embeddings: Tensor,
               distill_inputs, cfg: LossConfig) -> BatchLossReport:
    """Weighted sum of the three components over one batch.

    embeddings is B×D; distill_inputs is the (coarse_map,
    pixel_importance, selected) triple of the batch, each with a leading
    batch axis (or of one image).
    """
    focal = focal_loss(logits, labels, cfg)
    contr = contrastive_loss(embeddings, labels, cfg)
    dist = distill_loss(*distill_inputs, cfg)

    # left-associated so the float identity total == focal + lc*c + ld*d holds bitwise
    total = add(add(focal, mul(contr, cfg.lambda_contrast)),
                mul(dist, cfg.lambda_distill))
    return BatchLossReport(
        focal=focal.item(),
        contrastive=contr.item(),
        distill=dist.item(),
        total=total.item(),
        total_tensor=total,
    )


def class_weights(labels, class_count: int) -> list[float]:
    """Inverse-frequency weights normalized to mean 1; absent classes get 1."""
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=class_count)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    present = inv > 0
    if not present.any():
        return [1.0] * class_count
    inv[present] = inv[present] / inv[present].mean()
    inv[~present] = 1.0
    return [float(w) for w in inv]
