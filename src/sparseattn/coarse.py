"""Convolutional front-end: full-resolution saliency map plus pooled features.

Two 3x3 conv layers (1 -> 8 -> 1 channels, same padding) with a fixed
per-channel affine and a ReLU after the first, one `affine_relu` op that
the classifier's blocks share. The sigmoid of the final map ranks pixels
for selection; the spatial mean of the 8-channel post-ReLU map is the
pooled global feature that joins the fused representation. A B×H×W batch
runs through the same convolutions in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Module,
    Tensor,
    _common_tape,
    _record,
    _tiled,
    _unbroadcast,
    conv2d,
    reshape,
    sigmoid,
)

# batch norm's divisor at its never-updated running variance 1 (eps 1e-5), kept:
# gamma*x + beta moves outputs 1e-5 relative and derails seed-fixed training runs
AFFINE_DIVISOR = float(np.sqrt(1.0 + 1e-5))

KSIZE = 3   # both convolutions: 3x3 kernels


@dataclass
class CoarseOutput:
    """Per image; a batch adds a leading axis to every field."""

    attention_map: Tensor   # H×W, values strictly in (0, 1)
    z_coarse: Tensor        # (channels,) pooled post-ReLU features


class CoarseNet(Module):
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


def coarse_forward(net: CoarseNet, image: Tensor) -> CoarseOutput:
    """Run the conv stack on one [0,1]-normalized H×W image or on each
    image of a B×H×W batch."""
    shape = image.data.shape
    if len(shape) not in (2, 3):
        raise DimensionError(f"expected an H×W image or a B×H×W batch, got shape {shape}")
    lead, (height, width) = shape[:-2], shape[-2:]
    x = reshape(image, (-1, 1, height, width))
    a = affine_relu(conv2d(x, net.conv1_w, net.conv1_b), net.bn_gamma, net.bn_beta)
    pooled = _pooled_mean(a)
    f = conv2d(a, net.conv2_w, net.conv2_b)
    return CoarseOutput(attention_map=sigmoid(reshape(f, shape)),
                        z_coarse=reshape(pooled, lead + (net.channels,)))


def affine_relu(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """relu(x * gamma / AFFINE_DIVISOR + beta) per channel of a B×C matrix
    or of conv1's channel-minor B×C×H×W map x: one tape op.

    Tape-free, the steps overwrite x's own buffer, so x must be a fresh
    product that nothing else reads; taped, x stays for gamma's gradient
    and the result takes a new buffer. The backward is the unfused relu,
    affine and div gradients on the same operands, in the same order."""
    xd, gd = x.data, gamma.data
    tape = _common_tape(x, gamma, beta)
    a, mask = affine_relu_arrays(xd, gd, beta.data, keep_x=tape is not None)
    return _record(tape, a, (x, gamma, beta), lambda g: affine_relu_grads(g * mask, xd, gd))


def affine_relu_arrays(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       keep_x: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """affine_relu on arrays: the output, and relu's mask when keep_x is set.

    Each step is one pass over x's rows, a matrix's B rows or the map's
    B·H rows of W·C, with the per-channel vector tiled along a row. Without
    keep_x the output is x's own buffer and no mask is made."""
    c = gamma.size
    scale = gamma / AFFINE_DIVISOR
    if xd.ndim == 4:
        b, _, height, width = xd.shape
        rows = xd.transpose(0, 2, 3, 1).reshape(-1, width * c)
        scale, beta = _tiled(scale, width), _tiled(beta, width)
    else:
        rows = xd
    out = np.empty_like(rows) if keep_x else rows
    np.multiply(rows, scale, out=out)
    out += beta
    a = out if xd.ndim == 2 else out.reshape(b, height, width, c).transpose(0, 3, 1, 2)
    mask = np.greater(a, 0, order="C") if keep_x else None
    np.maximum(out, 0.0, out=out)
    return a, mask


def affine_relu_grads(gm: np.ndarray, xd: np.ndarray, gamma: np.ndarray) -> tuple:
    """The x, gamma and beta gradients of affine_relu, given gm, the
    upstream gradient times relu's mask."""
    c = gamma.size
    sd = (gamma / AFFINE_DIVISOR).reshape((c,) + (1,) * (xd.ndim - 2))
    return (_unbroadcast(gm * sd, xd.shape),
            _unbroadcast(gm * xd, sd.shape).reshape(c) / AFFINE_DIVISOR,
            _unbroadcast(gm, sd.shape).reshape(c))


def _pooled_mean(a: Tensor) -> Tensor:
    """The per-channel spatial mean of a channel-minor B×C×H×W map: one
    tape op. It sums a pixel-major (H·W, B·C) copy one pixel after another,
    the order in which numpy sums over the pixels of the channel-minor map."""
    b, c, height, width = shape = a.data.shape
    n = height * width
    pixels = np.ascontiguousarray(a.data.transpose(0, 2, 3, 1).reshape(b, n, c).swapaxes(0, 1))
    return _record(a.tape, pixels.reshape(n, b * c).mean(axis=0).reshape(b, c), (a,),
                   lambda g: (np.broadcast_to((g / n)[:, :, None, None], shape),))
