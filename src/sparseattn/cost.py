"""Exact multiply-accumulate and parameter accounting per model stage.

Counts cover the linear maps: convolutions at H*W*C_in*K^2*C_out, matrix
products at their product dimensions, and the per-column attention
normalization divides. Elementwise work is excluded: activations, bias
adds, and the per-channel affine that `coarse.affine_relu` applies in the
coarse hidden layer and in every classifier block alike. The fine stage
is linear in the token count k+1, which the sweep tests exhibit against
the baseline's H*W growth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .coarse import KSIZE
from .model import ModelState


@dataclass
class CostReport:
    parameters: int
    stage_flops: dict[str, int]
    pixel_percent: float

    @property
    def total_flops(self) -> int:
        return sum(self.stage_flops.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "total_flops": self.total_flops}


def conv_flops(h: int, w: int, c_in: int, ksize: int, c_out: int) -> int:
    return h * w * c_in * ksize * ksize * c_out


def count_cost(model: ModelState, image_shape: tuple[int, int], k: int) -> CostReport:
    """Per-stage cost of one forward pass at pixel budget k."""
    h, w = image_shape
    ch = model.coarse.channels
    coarse = conv_flops(h, w, 1, KSIZE, ch) + conv_flops(h, w, ch, KSIZE, 1)

    emb_hidden = model.embedder.hidden
    d = model.fine.dim
    embedding = k * (3 * emb_hidden + emb_hidden * d)

    tokens = k + 1                      # selected pixels plus the CLS token
    d_h = model.fine.head_dim
    per_head = 2 * tokens * d * d_h + tokens * d_h + 2 * tokens * d_h * d
    fine = tokens * d * d + model.fine.heads * per_head

    hid = model.classifier.hidden
    blocks = len(model.classifier.block)
    classifier = (d + ch) * hid + blocks * 2 * hid * hid + hid * model.class_count

    return CostReport(
        parameters=model.param_count(),
        stage_flops={
            "coarse": coarse,
            "embedding": embedding,
            "fine": fine,
            "classifier": classifier,
        },
        pixel_percent=100.0 * k / (h * w),
    )
