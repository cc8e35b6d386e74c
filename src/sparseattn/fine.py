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

from .tensor import DimensionError, Module, Tensor, _common_tape, _divisor_grad, _record


def _add_across(parts: np.ndarray) -> np.ndarray:
    """parts.sum(axis=-1) bit for bit, for a contiguous last axis. numpy adds
    such an axis to 0.0 left to right while it is shorter than 8, and
    pairwise from 8 up; a short one is added here slice by slice, in that
    order, without the reduction's per-call overhead."""
    if parts.shape[-1] >= 8:
        return parts.sum(axis=-1)
    total = 0.0 + parts[..., 0]
    for i in range(1, parts.shape[-1]):
        total = total + parts[..., i]
    return total


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
        head's columns; its magnitude is averaged over heads. Both sums are
        numpy's over those axes, bit for bit: slice adds, left to right,
        while head_dim and heads are both below 8."""
        b, n, _ = self.a.shape
        flow = _add_across((self.a * self.q_cls[:, None, :]).reshape(b, n, self.heads, -1))
        mean = _add_across(np.abs(flow)) / self.heads
        return Tensor(mean.reshape(self.z_fine.data.shape[:-1] + (n,)))

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
    or over each matrix of a B×(k+1)×D batch. One tape op.

    The keys' ReLU, epsilon and, tape-free, their normalization run in place
    on the key product. The backward is the unfused matmul, relu, add,
    column-sum, div, transpose and take gradients on the same operands, in
    the same order: the keys get the divide's term, then the column sum's,
    and the tokens (g_k + g_q) + g_v from the three projections."""
    td = tokens.data
    if td.ndim not in (2, 3) or td.shape[-1] != fa.dim:
        raise DimensionError(
            f"token matrix {td.shape} must be (k+1)×{fa.dim} or B×(k+1)×{fa.dim}"
        )
    n_tokens = td.shape[-2]
    if n_tokens < 2:
        raise ValueError("need at least one pixel token besides CLS")
    lead, dim, heads = td.shape[:-2], fa.dim, fa.heads
    flat = td.reshape(-1, dim)
    b = flat.shape[0] // n_tokens
    parents = (tokens, fa.w_v, fa.w_q, fa.w_k)
    tape = _common_tape(*parents)
    wv, wq, wk = fa.w_v.data, fa.w_q.data, fa.w_k.data
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = (flat @ wv).reshape(b, n_tokens, -1)            # B × (k+1) × D
        q = (flat @ wq).reshape(b, n_tokens, -1)                 # B × (k+1) × H*d_h
        keys = (flat @ wk).reshape(b, n_tokens, -1)
        mask = np.greater(keys, 0, order="C") if tape is not None else None
        np.maximum(keys, 0.0, out=keys)
        keys += fa.epsilon
        col_sums = keys.sum(axis=1).reshape(b, 1, -1)
        # columns sum to 1; taped, the keys stay for the divisor's gradient
        a = np.divide(keys, col_sums, out=keys if tape is None else None)
        context = a.swapaxes(-1, -2) @ values                   # B × H*d_h × D
        # contracting over all H*d_h columns adds up the heads' q_h @ context_h
        out = q @ context                                        # B × (k+1) × D
        # the CLS row of each item's output, averaged over heads
        z_fine = (out[:, -1, :] / float(heads)).reshape(lead + (dim,))
    def backward(g):
        g_out = np.zeros((b, n_tokens, dim))
        g_out[:, -1, :] += g.reshape(b, dim) / float(heads)
        g_q = g_out @ context.swapaxes(-1, -2)
        g_context = q.swapaxes(-1, -2) @ g_out
        g_values = a @ g_context
        g_a = (g_context @ values.swapaxes(-1, -2)).swapaxes(-1, -2)
        g_k = (g_a / col_sums + _divisor_grad(g_a, keys, col_sums)) * mask
        g_x = (g_k @ wk.T + g_q @ wq.T) + g_values @ wv.T
        hd = g_q.shape[-1]
        return (g_x.reshape(td.shape), flat.T @ g_values.reshape(-1, dim),
                flat.T @ g_q.reshape(-1, hd), flat.T @ g_k.reshape(-1, hd))
    return FineOutput(z_fine=_record(tape, z_fine, parents, backward), a=a,
                      q_cls=q[:, -1, :].copy(), heads=heads)
