"""Top-k pixel selection and the loss-trend controller that adapts k.

Selection is a pure index gather: no gradient flows through the choice of
pixels. The controller lives outside the gradient tape entirely; it nudges
the integer budget k once per epoch from the smoothed trend of the
training loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import NumericError, Tensor


@dataclass(frozen=True, eq=False)
class Selection:
    """The k selected pixels of one image, or of each image of a batch.

    Rank j (the last axis of `index`) is the j-th highest score, ties
    going to the lower flat index.
    """

    index: np.ndarray      # (..., k) flat pixel index, row * width + col
    triplets: np.ndarray   # (..., k, 3) columns x = col/(W-1), y = row/(H-1), v
    width: int

    @property
    def row(self) -> np.ndarray:
        return self.index // self.width

    @property
    def col(self) -> np.ndarray:
        return self.index % self.width

    def __len__(self) -> int:
        return self.index.shape[-1]

    def __iter__(self):
        """Rank by rank: the selection of rank j (one pixel per image)."""
        for j in range(len(self)):
            yield Selection(self.index[..., j], self.triplets[..., j, :], self.width)


def select_top_k(score_map: Tensor, image: Tensor, k: int) -> Selection:
    """Pick the k highest-scoring pixels of an H×W map, or of each map of a
    B×H×W batch; ties go to the lower flat index.

    Output is sorted by descending score, then ascending flat index, NaN
    scores last (the order of a stable argsort of the negated scores), so
    identical inputs always give the identical ordered result. numpy's
    default argsort is vectorised but unstable; where some row's ranks 0…k
    hold two equal scores (or two NaNs), one sort of the int64 key
    run * n + flat index, run numbering the runs of equal scores in sorted
    order, restores the stable order.
    """
    scores = score_map.data
    img = image.data
    if scores.ndim not in (2, 3) or img.shape != scores.shape:
        raise ValueError(
            f"map shape {scores.shape} and image shape {img.shape} must be equal, "
            "H×W or B×H×W"
        )
    h, w = scores.shape[-2:]
    n = h * w
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    neg = -scores.reshape(-1, n)
    offsets = np.arange(0, neg.size, n)[:, None]     # start of each row in neg.ravel()
    order = np.argsort(neg, axis=-1)
    ranked = neg.ravel()[order[:, :k + 1] + offsets]
    # ranks 0…k strictly increasing: the k best scores are distinct numbers,
    # each above every other score, so they are already in the stable order
    if not np.all(ranked[:, :-1] < ranked[:, 1:]):
        ranked = neg.ravel()[order + offsets]
        a, b = ranked[:, :-1], ranked[:, 1:]
        run = np.zeros(ranked.shape, np.int64)        # the NaNs form one run
        np.cumsum((a != b) & (a == a), axis=-1, out=run[:, 1:])
        run *= n
        order = np.sort(run + order, axis=-1)[:, :k] - run[:, :k]
    index = order[:, :k]
    rows, cols = np.divmod(index, w)
    triplets = np.empty(index.shape + (3,))
    np.multiply(cols, 1.0 / (w - 1) if w > 1 else 0.0, out=triplets[..., 0])
    np.multiply(rows, 1.0 / (h - 1) if h > 1 else 0.0, out=triplets[..., 1])
    triplets[..., 2] = img.reshape(-1)[index + offsets]
    lead = scores.shape[:-2]
    return Selection(index=index.reshape(lead + (k,)),
                     triplets=triplets.reshape(lead + (k, 3)), width=w)


@dataclass
class KController:
    """Integer pixel budget adapted from the training-loss trend.

    Keeps an exponential moving average of the loss; a non-decreasing
    trend moves the raw budget up by `step`, a decreasing one down by
    `step`, each clamped to [k_min, k_max]. The new k is the mix alpha·k +
    (1 − alpha)·raw, rounded. alpha is a damping, not momentum: no velocity
    is kept, so inside the bounds each move is (1 − alpha)·step, and near a
    bound k approaches it geometrically. The first observation only
    initializes the average, so the first actual adjustment reflects the
    trend of epoch two versus epoch one. k stays integral inside [k_min,
    k_max]. The fields are the checkpointed state: asdict() round-trips.
    """

    k: int = 8000
    k_min: int = 1500
    k_max: int = 65536
    beta: float = 0.2
    alpha: float = 0.2
    step: int = 50
    ema: float | None = None

    def __post_init__(self):
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        # NaN fails these too; step >= 0 keeps every update inside the bounds
        if not (0 <= self.beta <= 1 and 0 <= self.alpha <= 1 and self.step >= 0):
            raise ValueError("need beta and alpha in [0, 1] and step >= 0, got "
                             f"{self.beta}, {self.alpha}, {self.step}")
        self.k_min, self.k_max = int(self.k_min), int(self.k_max)
        self.k = min(max(int(self.k), self.k_min), self.k_max)


def update_k(ctrl: KController, current_loss: float) -> int:
    """One controller step with this epoch's mean training loss; returns new k."""
    loss = float(current_loss)
    if not np.isfinite(loss):
        raise NumericError(f"controller fed a non-finite loss {loss}")
    if ctrl.ema is None:
        ctrl.ema = loss
        return ctrl.k
    prev = ctrl.ema
    ctrl.ema = ctrl.beta * prev + (1.0 - ctrl.beta) * loss
    if ctrl.ema >= prev:
        raw = min(ctrl.k + ctrl.step, ctrl.k_max)
    else:
        raw = max(ctrl.k - ctrl.step, ctrl.k_min)
    # a convex mix of two budgets in [k_min, k_max] rounds back into it
    ctrl.k = round(ctrl.alpha * ctrl.k + (1.0 - ctrl.alpha) * raw)
    return ctrl.k
