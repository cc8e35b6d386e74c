"""Convolutional front-end: full-resolution saliency map plus pooled features.

Two 3x3 conv layers (1 -> 8 -> 1 channels, same padding) with batch norm
after the first. The sigmoid of the final map ranks pixels for selection;
the spatial mean of the 8-channel post-ReLU map is the pooled global
feature that joins the fused representation. A B×1×H×W batch runs through
the same convolutions in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    channel_affine,
    conv2d,
    div,
    mul,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
    sub,
)

BN_EPS = 1e-5


@dataclass
class CoarseOutput:
    """Per image; a batch adds a leading axis to every field."""

    attention_map: Tensor   # H×W, values strictly in (0, 1)
    z_coarse: Tensor        # (channels,) pooled post-ReLU features
    pre_sigmoid: Tensor     # H×W logits of the map


class CoarseNet:
    """1 -> channels -> 1 conv stack with batch norm on the hidden layer.

    Running batch-norm statistics are state, not parameters. Normalization
    always uses the running statistics, batched or not, so an image's
    output never depends on the other images of its batch; gamma/beta
    still learn freely.
    """

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
        # running stats: state, serialized with the model
        self.bn_mean = np.zeros(channels)
        self.bn_var = np.ones(channels)

    def params(self):
        return [
            ("conv1_w", self.conv1_w),
            ("conv1_b", self.conv1_b),
            ("bn_gamma", self.bn_gamma),
            ("bn_beta", self.bn_beta),
            ("conv2_w", self.conv2_w),
            ("conv2_b", self.conv2_b),
        ]

    def buffers(self):
        return [("bn_mean", self.bn_mean), ("bn_var", self.bn_var)]


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


def coarse_forward(net: CoarseNet, image: Tensor, training: bool = False) -> CoarseOutput:
    """Run the conv stack on one [0,1]-normalized image or on a batch.

    training toggles batch-norm mode, but both modes resolve to the
    running statistics; see CoarseNet.
    """
    x, lead = _as_batch(image)
    b, _, height, width = x.data.shape
    sigma = Tensor(np.sqrt(net.bn_var + BN_EPS))
    scale = div(net.bn_gamma, sigma)
    shift = sub(net.bn_beta, mul(scale, Tensor(net.bn_mean)))
    # nested, so a tape-free pass frees each B×C×H×W intermediate at once
    a = relu(channel_affine(conv2d(x, net.conv1_w, net.conv1_b, net.pad),
                            scale, shift))
    pooled = reduce_mean(reshape(a, (b, net.channels, height * width)), axis=2)
    z_coarse = reshape(pooled, lead + (net.channels,))
    f = conv2d(a, net.conv2_w, net.conv2_b, net.pad)
    pre = reshape(f, lead + (height, width))
    return CoarseOutput(attention_map=sigmoid(pre), z_coarse=z_coarse, pre_sigmoid=pre)
