"""Top-k pixel selection and the loss-trend controller that adapts k.

Selection is a pure index gather: no gradient flows through the choice of
pixels. The controller lives outside the gradient tape entirely; it nudges
the integer budget k once per epoch from the smoothed trend of the
training loss.
"""

from __future__ import annotations

import csv
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

    Output is sorted by descending score, then ascending flat index, so
    identical inputs always give the identical ordered result.
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
    flat_shape = scores.shape[:-2] + (n,)
    # a stable sort of the negated scores keeps tied pixels in index order
    index = np.argsort(-scores.reshape(flat_shape), axis=-1, kind="stable")[..., :k]
    rows, cols = np.divmod(index, w)
    xd = 1.0 / (w - 1) if w > 1 else 0.0
    yd = 1.0 / (h - 1) if h > 1 else 0.0
    values = np.take_along_axis(img.reshape(flat_shape), index, axis=-1)
    triplets = np.stack([cols * xd, rows * yd, values], axis=-1)
    return Selection(index=index, triplets=triplets, width=w)


@dataclass
class KController:
    """Integer pixel budget adapted from the training-loss trend.

    Keeps an exponential moving average of the loss; a non-decreasing
    trend raises k by step_up, a decreasing trend lowers it by step_down,
    and momentum alpha smooths the move. The first observation only
    initializes the average, so the first actual adjustment reflects the
    trend of epoch two versus epoch one. k stays integral inside [k_min,
    k_max]. The fields are the checkpointed state: asdict() round-trips.
    """

    k: int = 8000
    k_min: int = 1500
    k_max: int = 65536
    beta: float = 0.2
    alpha: float = 0.2
    step_up: int = 80
    step_down: int = 50
    ema: float | None = None

    def __post_init__(self):
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        # NaN fails these too; steps >= 0 keep every update inside the bounds
        if not (0 <= self.beta <= 1 and 0 <= self.alpha <= 1
                and self.step_up >= 0 and self.step_down >= 0):
            raise ValueError("need beta and alpha in [0, 1] and steps >= 0, got "
                             f"{self.beta}, {self.alpha}, {self.step_up}, {self.step_down}")
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
        raw = min(ctrl.k + ctrl.step_up, ctrl.k_max)
    else:
        raw = max(ctrl.k - ctrl.step_down, ctrl.k_min)
    # a convex mix of two budgets in [k_min, k_max] rounds back into it
    ctrl.k = round(ctrl.alpha * ctrl.k + (1.0 - ctrl.alpha) * raw)
    return ctrl.k


def write_topk_csv(path, selection: Selection, scores, fine_scores) -> None:
    """Export one image's selected pixels as row,col,x,y,v,score,fine_score."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["row", "col", "x", "y", "v", "score", "fine_score"])
        rows, cols = selection.row.tolist(), selection.col.tolist()
        for i, (x, y, v) in enumerate(selection.triplets.tolist()):
            out.writerow([rows[i], cols[i], repr(x), repr(y), repr(v),
                          repr(float(scores[i])), repr(float(fine_scores[i]))])
