"""Convolutional front-end: full-resolution saliency map plus pooled features.

Two 3x3 conv layers (1 -> 8 -> 1 channels, same padding) with a fixed
per-channel affine after the first. The sigmoid of the final map ranks
pixels for selection; the spatial mean of the 8-channel post-ReLU map is
the pooled global feature that joins the fused representation. A B×1×H×W
batch runs through the same convolutions in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    affine,
    conv2d,
    div,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
)

# batch norm's divisor at its never-updated running variance 1 (eps 1e-5), kept:
# gamma*x + beta moves outputs 1e-5 relative and derails seed-fixed training runs
AFFINE_DIVISOR = float(np.sqrt(1.0 + 1e-5))


@dataclass
class CoarseOutput:
    """Per image; a batch adds a leading axis to every field."""

    attention_map: Tensor   # H×W, values strictly in (0, 1)
    z_coarse: Tensor        # (channels,) pooled post-ReLU features
    pre_sigmoid: Tensor     # H×W logits of the map


class CoarseNet:
    """1 -> channels -> 1 conv stack with a learnable per-channel affine
    (bn_gamma / AFFINE_DIVISOR, bn_beta) on the hidden layer. No statistic
    is taken over a batch, so an image's output never depends on the other
    images of its batch."""

    def __init__(self, rng: np.random.Generator, channels: int = 8, ksize: int = 3):
        if ksize % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {ksize}")
        self.channels = channels
        self.ksize = ksize
        self.pad = (ksize - 1) // 2
        lim1 = (1.0 / (1 * ksize * ksize)) ** 0.5
        lim2 = (1.0 / (channels * ksize * ksize)) ** 0.5
        self.conv1_w = Tensor(rng.uniform(-lim1, lim1, (channels, 1, ksize, ksize)))
        self.conv1_b = Tensor(np.zeros(channels))
        self.bn_gamma = Tensor(np.ones(channels))
        self.bn_beta = Tensor(np.zeros(channels))
        self.conv2_w = Tensor(rng.uniform(-lim2, lim2, (1, channels, ksize, ksize)))
        self.conv2_b = Tensor(np.zeros(1))

    def params(self):
        return [
            ("conv1_w", self.conv1_w),
            ("conv1_b", self.conv1_b),
            ("bn_gamma", self.bn_gamma),
            ("bn_beta", self.bn_beta),
            ("conv2_w", self.conv2_w),
            ("conv2_b", self.conv2_b),
        ]


def _as_batch(image: Tensor) -> tuple[Tensor, tuple[int, ...]]:
    """B×1×H×W form of the input, plus the leading shape the outputs keep:
    () for one H×W or 1×H×W image, (B,) for a B×1×H×W batch."""
    shape = image.data.shape
    if len(shape) == 2:
        return reshape(image, (1, 1) + shape), ()
    if len(shape) == 3 and shape[0] == 1:
        return reshape(image, (1,) + shape), ()
    if len(shape) == 4 and shape[1] == 1:
        return image, shape[:1]
    raise DimensionError(
        f"expected a single-channel image (H×W or 1×H×W) or a B×1×H×W batch, got shape {shape}"
    )


def coarse_forward(net: CoarseNet, image: Tensor) -> CoarseOutput:
    """Run the conv stack on one [0,1]-normalized image or on a batch."""
    x, lead = _as_batch(image)
    b, _, height, width = x.data.shape
    per_channel = (net.channels, 1, 1)
    scale = reshape(div(net.bn_gamma, AFFINE_DIVISOR), per_channel)
    # nested, so a tape-free pass frees each B×C×H×W intermediate at once
    a = relu(affine(conv2d(x, net.conv1_w, net.conv1_b, net.pad),
                    scale, reshape(net.bn_beta, per_channel)))
    pooled = reduce_mean(reshape(a, (b, net.channels, height * width)), axis=2)
    z_coarse = reshape(pooled, lead + (net.channels,))
    f = conv2d(a, net.conv2_w, net.conv2_b, net.pad)
    pre = reshape(f, lead + (height, width))
    return CoarseOutput(attention_map=sigmoid(pre), z_coarse=z_coarse, pre_sigmoid=pre)
