"""Shared joint embedding of (x, y, v) pixel triplets, plus the CLS token.

Each pixel is one token; a two-layer MLP maps its coordinate/intensity
triplet into R^D so position and intensity interact nonlinearly instead of
being projected separately and summed. The learnable CLS token is appended
as the last row. A batch of images embeds in one pass: every pixel of every
image goes through one (B*k)×3 product.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add, broadcast_to, concat, matmul, relu, reshape


class Embedder:
    """3 -> hidden -> dim MLP with ReLU, shared across pixels; CLS token row."""

    def __init__(self, rng: np.random.Generator, dim: int = 4, hidden: int = 16):
        self.dim = dim
        self.hidden = hidden
        lim1 = (1.0 / 3) ** 0.5
        lim2 = (1.0 / hidden) ** 0.5
        self.w1 = Tensor(rng.uniform(-lim1, lim1, (3, hidden)))
        self.b1 = Tensor(np.zeros(hidden))
        self.w2 = Tensor(rng.uniform(-lim2, lim2, (hidden, dim)))
        self.b2 = Tensor(np.zeros(dim))
        # a zero CLS token would zero the CLS query row and with it every
        # fine-path gradient at init, so it starts at weight scale instead
        lim_cls = (1.0 / dim) ** 0.5
        self.cls_token = Tensor(rng.uniform(-lim_cls, lim_cls, dim))

    def params(self):
        return [
            ("w1", self.w1), ("b1", self.b1),
            ("w2", self.w2), ("b2", self.b2),
            ("cls_token", self.cls_token),
        ]


def embed_pixels(emb: Embedder, triplets) -> Tensor:
    """Embed k (x, y, v) triplets into a (k+1)×D token matrix whose row k is
    the CLS token; a B×k×3 batch gives B×(k+1)×D.

    Pixel rows keep the selection order. The triplets themselves are
    constants; gradient reaches only the MLP weights and the CLS token.
    """
    t = np.asarray(triplets, dtype=np.float64)
    if t.ndim not in (2, 3) or t.shape[-1] != 3 or t.shape[-2] == 0:
        raise ValueError(f"embed_pixels needs k >= 1 triplets as (..., k, 3), got {t.shape}")
    lead, k = t.shape[:-2], t.shape[-2]
    h = relu(add(matmul(Tensor(t.reshape(-1, 3)), emb.w1), emb.b1))
    rows = reshape(add(matmul(h, emb.w2), emb.b2), lead + (k, emb.dim))
    cls_rows = broadcast_to(emb.cls_token, lead + (1, emb.dim))
    return concat([rows, cls_rows], axis=-2)
