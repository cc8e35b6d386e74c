"""Multi-head linear attention over pixel tokens with ReLU-normalized keys.

Keys pass through ReLU plus a small epsilon and are normalized per feature
column over the tokens, so every attention column is a distribution over
the k+1 tokens. Context is accumulated as A^T V and queried per token,
which keeps the cost linear in the token count. The CLS row of the head
outputs, averaged over heads, is the global representation.

All heads run in one pass: their query and key projections sit side by
side as H*d_h columns, and a batch of token matrices is one B×(k+1)×D
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    add,
    concat,
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
    """Per image; a batch adds a leading axis to every field."""

    z_fine: Tensor                 # (D,) mean CLS output over heads
    head_attn: list[Tensor]        # per head, (k+1)×d_h column-stochastic (constants)
    pixel_importance: Tensor       # (k+1,) attention each token gets in the CLS readout (constant)


class FineAttention:
    """Shared value projection; per-head query/key projections of width D/H."""

    def __init__(self, rng: np.random.Generator, dim: int = 4, heads: int = 2,
                 epsilon: float = 1e-6):
        if dim % heads != 0:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.epsilon = epsilon
        lim = (1.0 / dim) ** 0.5
        self.w_v = Tensor(rng.uniform(-lim, lim, (dim, dim)))
        self.w_q = [Tensor(rng.uniform(-lim, lim, (dim, self.head_dim)))
                    for _ in range(heads)]
        self.w_k = [Tensor(rng.uniform(-lim, lim, (dim, self.head_dim)))
                    for _ in range(heads)]

    def params(self):
        out = [("w_v", self.w_v)]
        for h in range(self.heads):
            out.append((f"w_q{h}", self.w_q[h]))
            out.append((f"w_k{h}", self.w_k[h]))
        return out


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
    single = td.ndim == 2
    x = reshape(tokens, (1,) + td.shape) if single else tokens
    b = x.data.shape[0]

    values = matmul(x, fa.w_v)                                   # B × (k+1) × D
    q = matmul(x, concat(fa.w_q, axis=1))                        # B × (k+1) × H*d_h
    keys = add(relu(matmul(x, concat(fa.w_k, axis=1))), fa.epsilon)
    a = div(keys, reshape(reduce_sum(keys, axis=1), (b, 1, -1)))  # columns sum to 1
    context = matmul(transpose(a), values)                       # B × H*d_h × D
    # contracting over all H*d_h columns adds up the heads' q_h @ context_h
    out = matmul(q, context)                                     # B × (k+1) × D
    # the CLS row is the last D entries of each item's flattened output
    cls_cols = np.broadcast_to((n_tokens - 1) * fa.dim + np.arange(fa.dim), (b, fa.dim))
    z_fine = div(take(reshape(out, (b, n_tokens * fa.dim)), cls_cols), float(fa.heads))

    # token j's weight in head h's CLS readout is sum_c q_cls[c] * a[j, c]
    # over the head's columns; its magnitude, averaged over heads, is the
    # attention the classifier pays to the token. It only feeds the
    # detached distillation target and diagnostics, so it stays off the tape.
    ad = a.data
    q_cls = q.data[:, -1, :]
    flow = (ad * q_cls[:, None, :]).reshape(b, n_tokens, fa.heads, fa.head_dim).sum(axis=-1)
    importance = np.abs(flow).mean(axis=-1)
    if single:
        z_fine = reshape(z_fine, (fa.dim,))
        ad, importance = ad[0], importance[0]
    d_h = fa.head_dim
    head_attn = [Tensor(ad[..., h * d_h:(h + 1) * d_h]) for h in range(fa.heads)]
    return FineOutput(z_fine=z_fine, head_attn=head_attn, pixel_importance=Tensor(importance))
