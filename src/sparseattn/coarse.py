"""Convolutional front-end: full-resolution saliency map plus pooled features.

Two 3x3 conv layers (1 -> 8 -> 1 channels, same padding) with a fixed
per-channel affine after the first. The sigmoid of the final map ranks
pixels for selection; the spatial mean of the 8-channel post-ReLU map is
the pooled global feature that joins the fused representation. A B×H×W
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

KSIZE, PAD = 3, 1   # both convolutions: 3x3 kernels, same padding


@dataclass
class CoarseOutput:
    """Per image; a batch adds a leading axis to every field."""

    attention_map: Tensor   # H×W, values strictly in (0, 1)
    z_coarse: Tensor        # (channels,) pooled post-ReLU features


class CoarseNet:
    """1 -> channels -> 1 conv stack with a learnable per-channel affine
    (bn_gamma / AFFINE_DIVISOR, bn_beta) on the hidden layer. No statistic
    is taken over a batch, so an image's output never depends on the other
    images of its batch."""

    def __init__(self, rng: np.random.Generator, channels: int = 8):
        self.channels = channels
        lim1 = (1.0 / (1 * KSIZE * KSIZE)) ** 0.5
        lim2 = (1.0 / (channels * KSIZE * KSIZE)) ** 0.5
        self.conv1_w = Tensor(rng.uniform(-lim1, lim1, (channels, 1, KSIZE, KSIZE)))
        self.conv1_b = Tensor(np.zeros(channels))
        self.bn_gamma = Tensor(np.ones(channels))
        self.bn_beta = Tensor(np.zeros(channels))
        self.conv2_w = Tensor(rng.uniform(-lim2, lim2, (1, channels, KSIZE, KSIZE)))
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


def coarse_forward(net: CoarseNet, image: Tensor) -> CoarseOutput:
    """Run the conv stack on one [0,1]-normalized H×W image or on each
    image of a B×H×W batch."""
    shape = image.data.shape
    if len(shape) not in (2, 3):
        raise DimensionError(f"expected an H×W image or a B×H×W batch, got shape {shape}")
    lead, (height, width) = shape[:-2], shape[-2:]
    x = reshape(image, (-1, 1, height, width))
    per_channel = (net.channels, 1, 1)
    scale = reshape(div(net.bn_gamma, AFFINE_DIVISOR), per_channel)
    # nested, so a tape-free pass frees each B×C×H×W intermediate at once
    a = relu(affine(conv2d(x, net.conv1_w, net.conv1_b, PAD),
                    scale, reshape(net.bn_beta, per_channel)))
    pooled = reduce_mean(reshape(a, (-1, net.channels, height * width)), axis=2)
    f = conv2d(a, net.conv2_w, net.conv2_b, PAD)
    return CoarseOutput(attention_map=sigmoid(reshape(f, shape)),
                        z_coarse=reshape(pooled, lead + (net.channels,)))
