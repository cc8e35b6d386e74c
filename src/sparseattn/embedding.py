"""Shared joint embedding of (x, y, v) pixel triplets, plus the CLS token.

Each pixel is one token; a two-layer MLP maps its coordinate/intensity
triplet into R^D so position and intensity interact nonlinearly instead of
being projected separately and summed. The learnable CLS token is appended
as the last row. A batch of images embeds in one pass: every pixel of every
image goes through one (B*k)×3 product, and the whole stage is one tape op.
"""

from __future__ import annotations

import numpy as np

from .tensor import Module, Tensor, _common_tape, _record_all, _unbroadcast


class Embedder(Module):
    """3 -> hidden -> dim MLP with ReLU, shared across pixels; CLS token row."""

    hidden = 16

    def __init__(self, rng: np.random.Generator, dim: int = 4):
        self.dim = dim
        lim1 = (1.0 / 3) ** 0.5
        lim2 = (1.0 / self.hidden) ** 0.5
        self.w1 = Tensor(rng.uniform(-lim1, lim1, (3, self.hidden)))
        self.b1 = Tensor(np.zeros(self.hidden))
        self.w2 = Tensor(rng.uniform(-lim2, lim2, (self.hidden, dim)))
        self.b2 = Tensor(np.zeros(dim))
        # a zero CLS token would zero the CLS query row and with it every
        # fine-path gradient at init, so it starts at weight scale instead
        lim_cls = (1.0 / dim) ** 0.5
        self.cls_token = Tensor(rng.uniform(-lim_cls, lim_cls, dim))


def embed_pixels(emb: Embedder, triplets) -> Tensor:
    """Embed k (x, y, v) triplets into a (k+1)×D token matrix whose row k is
    the CLS token; a B×k×3 batch gives B×(k+1)×D. One tape op.

    Pixel rows keep the selection order. The triplets themselves are
    constants; gradient reaches only the MLP weights and the CLS token.
    The bias adds and the ReLU run in place on the products they follow;
    the backward is the unfused matmul, add, relu and concat gradients on
    the same operands, in the same order.
    """
    t = np.asarray(triplets, dtype=np.float64)
    if t.ndim not in (2, 3) or t.shape[-1] != 3 or t.shape[-2] == 0:
        raise ValueError(f"embed_pixels needs k >= 1 triplets as (..., k, 3), got {t.shape}")
    lead, k, dim = t.shape[:-2], t.shape[-2], emb.dim
    params = (emb.w1, emb.b1, emb.w2, emb.b2, emb.cls_token)
    tape = _common_tape(*params)
    w1, b1, w2, b2, cls = (p.data for p in params)
    x = t.reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        h = x @ w1
        h += b1
        mask = np.greater(h, 0, order="C") if tape is not None else None
        np.maximum(h, 0.0, out=h)
        rows = h @ w2
        rows += b2
    out = np.empty(lead + (k + 1, dim))
    out[..., :k, :] = rows.reshape(lead + (k, dim))
    out[..., k, :] = cls
    tokens = Tensor(out, tape)
    if tape is not None:
        def backward(g):
            g_rows = g[..., :k, :].reshape(-1, dim)
            g_h = (g_rows @ w2.T) * mask
            return (x.T @ g_h, _unbroadcast(g_h, b1.shape), h.T @ g_rows,
                    _unbroadcast(g_rows, b2.shape), _unbroadcast(g[..., k:, :], cls.shape))
        _record_all(tape, tokens, params, backward)
    return tokens
