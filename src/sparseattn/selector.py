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


class KController:
    """Integer pixel budget adapted from the training-loss trend.

    Keeps an exponential moving average of the loss; a non-decreasing
    trend raises k by step_up, a decreasing trend lowers it by step_down,
    and momentum smooths the move. The first observation only initializes
    the average, so the first actual adjustment reflects the trend of
    epoch two versus epoch one. k stays integral inside [k_min, k_max].
    """

    def __init__(self, k_init: int = 8000, k_min: int = 1500, k_max: int = 65536,
                 beta: float = 0.2, alpha: float = 0.2,
                 step_up: int = 80, step_down: int = 50):
        if not 1 <= k_min <= k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
        self.k_min = int(k_min)
        self.k_max = int(k_max)
        self.k = min(max(int(k_init), self.k_min), self.k_max)
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.step_up = int(step_up)
        self.step_down = int(step_down)
        self.ema: float | None = None
        self.ema_prev: float | None = None

    def state(self) -> dict:
        return {
            "k": self.k, "k_min": self.k_min, "k_max": self.k_max,
            "beta": self.beta, "alpha": self.alpha,
            "step_up": self.step_up, "step_down": self.step_down,
            "ema": self.ema, "ema_prev": self.ema_prev,
        }

    @classmethod
    def from_state(cls, state: dict) -> "KController":
        ctrl = cls(k_init=state["k"], k_min=state["k_min"], k_max=state["k_max"],
                   beta=state["beta"], alpha=state["alpha"],
                   step_up=state["step_up"], step_down=state["step_down"])
        ctrl.ema = state["ema"]
        ctrl.ema_prev = state["ema_prev"]
        return ctrl


def update_k(ctrl: KController, current_loss: float) -> int:
    """One controller step with this epoch's mean training loss; returns new k."""
    loss = float(current_loss)
    if not np.isfinite(loss):
        raise NumericError(f"controller fed a non-finite loss {loss}")
    if ctrl.ema is None:
        ctrl.ema = loss
        ctrl.ema_prev = loss
        return ctrl.k
    ctrl.ema_prev = ctrl.ema
    ctrl.ema = ctrl.beta * ctrl.ema_prev + (1.0 - ctrl.beta) * loss
    delta = ctrl.ema - ctrl.ema_prev
    if delta >= 0:
        raw = min(ctrl.k + ctrl.step_up, ctrl.k_max)
    else:
        raw = max(ctrl.k - ctrl.step_down, ctrl.k_min)
    smoothed = round(ctrl.alpha * ctrl.k + (1.0 - ctrl.alpha) * raw)
    ctrl.k = min(max(int(smoothed), ctrl.k_min), ctrl.k_max)
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
