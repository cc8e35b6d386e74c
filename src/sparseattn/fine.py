"""Multi-head linear attention over pixel tokens with ReLU-normalized keys.

Keys pass through ReLU plus a small epsilon and are normalized per feature
column over the tokens, so every attention column is a distribution over
the k+1 tokens. Context is accumulated as A^T V and queried per token,
which keeps the cost linear in the token count. The CLS row of the head
outputs, averaged over heads, is the global representation.

All heads run in one pass: their query and key projections sit side by
side as H*d_h columns, and a batch of token matrices is one B×(k+1)×D
tensor.

The distillation readout (token weights in the CLS readout, per-head
attention views) is computed on read: only the distillation target and
`sparseattn viz` read it, so evaluate() and predict() never compute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Module,
    Tensor,
    add,
    div,
    matmul,
    reduce_sum,
    relu,
    reshape,
    take,
    transpose,
)


@dataclass
class FineOutput:
    """Per image; a batch adds a leading axis to z_fine and to the readout,
    which is computed on every read: the distillation target reads it once
    per training batch, `sparseattn viz` once per image."""

    z_fine: Tensor       # (D,) mean CLS output over heads
    a: np.ndarray        # B×(k+1)×H*d_h column-stochastic attention, B = 1 unbatched
    q_cls: np.ndarray    # B×H*d_h CLS query rows, a copy: the full q is freed
    heads: int

    @property
    def pixel_importance(self) -> Tensor:
        """(k+1,) attention each token gets in the CLS readout (constant): token
        j's weight in head h's readout is sum_c q_cls[c] * a[j, c] over the
        head's columns; its magnitude is averaged over heads."""
        b, n, _ = self.a.shape
        flow = (self.a * self.q_cls[:, None, :]).reshape(b, n, self.heads, -1).sum(axis=-1)
        return Tensor(np.abs(flow).mean(axis=-1).reshape(self.z_fine.data.shape[:-1] + (n,)))

    @property
    def head_attn(self) -> list[Tensor]:
        """Per head, (k+1)×d_h column-stochastic (constants)."""
        n = self.a.shape[1]
        by_head = self.a.reshape(self.z_fine.data.shape[:-1] + (n, self.heads, -1))
        return [Tensor(by_head[..., h, :]) for h in range(self.heads)]


class FineAttention(Module):
    """Shared value projection; query and key projections of D×(H*d_h),
    head h owning columns h*d_h to (h+1)*d_h, with d_h = D/H."""

    epsilon = 1e-6   # added to the relu'd keys, so no key column sums to 0

    def __init__(self, rng: np.random.Generator, dim: int = 4, heads: int = 2):
        if dim < 1 or heads < 1 or dim % heads != 0:
            raise ValueError(f"heads ({heads}) must be a positive divisor of dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        lim = (1.0 / dim) ** 0.5
        self.w_v = Tensor(rng.uniform(-lim, lim, (dim, dim)))
        # every query head is drawn before every key head; side by side
        # along the columns, each head's D×d_h block becomes one matrix
        q, k = rng.uniform(-lim, lim, (2, heads, dim, self.head_dim))
        self.w_q = Tensor(q.transpose(1, 0, 2).reshape(dim, dim))
        self.w_k = Tensor(k.transpose(1, 0, 2).reshape(dim, dim))


def fine_forward(fa: FineAttention, tokens: Tensor) -> FineOutput:
    """Attend over a (k+1)×D token matrix whose last row is the CLS token,
    or over each matrix of a B×(k+1)×D batch."""
    td = tokens.data
    if td.ndim not in (2, 3) or td.shape[-1] != fa.dim:
        raise DimensionError(
            f"token matrix {td.shape} must be (k+1)×{fa.dim} or B×(k+1)×{fa.dim}"
        )
    n_tokens = td.shape[-2]
    if n_tokens < 2:
        raise ValueError("need at least one pixel token besides CLS")
    lead = td.shape[:-2]
    x = reshape(tokens, (-1,) + td.shape[-2:])
    b = x.data.shape[0]

    values = matmul(x, fa.w_v)                                   # B × (k+1) × D
    q = matmul(x, fa.w_q)                                        # B × (k+1) × H*d_h
    keys = add(relu(matmul(x, fa.w_k)), fa.epsilon)
    a = div(keys, reshape(reduce_sum(keys, axis=1), (b, 1, -1)))  # columns sum to 1
    context = matmul(transpose(a), values)                       # B × H*d_h × D
    # contracting over all H*d_h columns adds up the heads' q_h @ context_h
    out = matmul(q, context)                                     # B × (k+1) × D
    # the CLS row is the last D entries of each item's flattened output
    cls_cols = np.broadcast_to((n_tokens - 1) * fa.dim + np.arange(fa.dim), (b, fa.dim))
    z_fine = div(take(reshape(out, (b, n_tokens * fa.dim)), cls_cols), float(fa.heads))

    return FineOutput(z_fine=reshape(z_fine, lead + (fa.dim,)), a=a.data,
                      q_cls=q.data[:, -1, :].copy(), heads=fa.heads)
