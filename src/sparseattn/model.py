"""Full model assembly: fusion of coarse and fine features, residual MLP
classifier whose blocks share the coarse net's per-channel affine and
ReLU, end-to-end forward pass, and the versioned SATM checkpoint format.

Every stage takes its per-image input (an H×W image, a (k+1)×D token
matrix, a fused vector) with or without one leading batch axis, which it
flattens once and restores once: one image is the B=1 case of the same code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coarse import (
    CoarseNet,
    CoarseOutput,
    affine_relu_arrays,
    affine_relu_grads,
    coarse_forward,
)
from .data import SYNTHETIC_CLASSES, DatasetError, check_image, parse_checkpoint, read_file
from .embedding import Embedder, embed_pixels
from .fine import FineAttention, FineOutput, fine_forward
from .selector import KController, Selection, select_top_k
from .tensor import (
    DimensionError,
    Module,
    Tensor,
    _common_tape,
    _record,
    _unbroadcast,
    assign_params,
    check_sizes,
    concat,
    pack,
    unpack,
)


class Block(Module):
    """One pre-activation residual block: linear -> affine_relu with gamma
    and beta (the coarse net's per-channel affine and ReLU, one op) ->
    linear, added to the skip."""

    def __init__(self, rng: np.random.Generator, hidden: int):
        lim = (1.0 / hidden) ** 0.5
        self.w1 = Tensor(rng.uniform(-lim, lim, (hidden, hidden)))
        self.b1 = Tensor(np.zeros(hidden))
        self.gamma = Tensor(np.ones(hidden))
        self.beta = Tensor(np.zeros(hidden))
        self.w2 = Tensor(rng.uniform(-lim, lim, (hidden, hidden)))
        self.b2 = Tensor(np.zeros(hidden))


class Classifier(Module):
    """Linear in, two residual Blocks, linear out. No statistic is taken
    over a batch, so a sample's logits never depend on the rest of its
    batch."""

    block_count = 2

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, classes: int):
        self.in_dim = in_dim
        self.hidden = hidden
        self.classes = classes
        lim_in = (1.0 / in_dim) ** 0.5
        lim_h = (1.0 / hidden) ** 0.5
        self.w_in = Tensor(rng.uniform(-lim_in, lim_in, (in_dim, hidden)))
        self.b_in = Tensor(np.zeros(hidden))
        self.block = [Block(rng, hidden) for _ in range(self.block_count)]
        self.w_out = Tensor(rng.uniform(-lim_h, lim_h, (hidden, classes)))
        self.b_out = Tensor(np.zeros(classes))


def classifier_forward(clf: Classifier, fused: Tensor) -> Tensor:
    """Map a fused feature vector to class logits of length C, or a B×in_dim
    batch of them to B×C logits. One tape op.

    The bias adds, the blocks' affine and ReLU (coarse.affine_relu's own
    array code) and the skip adds run in place on the products they follow.
    The backward is the unfused matmul, add and affine_relu gradients on the
    same operands, in the same order: a block's input gets the skip term,
    then the block path's."""
    fd = fused.data
    if fd.ndim == 0 or fd.shape[-1] != clf.in_dim:
        raise DimensionError(
            f"fused input {fd.shape} must be ({clf.in_dim},) or B×{clf.in_dim}"
        )
    block_params = [(blk.w1, blk.b1, blk.gamma, blk.beta, blk.w2, blk.b2) for blk in clf.block]
    parents = (fused, clf.w_in, clf.b_in, *(t for p in block_params for t in p),
               clf.w_out, clf.b_out)
    tape = _common_tape(*parents)
    w_in, b_in, w_out, b_out = clf.w_in.data, clf.b_in.data, clf.w_out.data, clf.b_out.data
    blocks = [tuple(t.data for t in p) for p in block_params]
    x = fd.reshape(-1, clf.in_dim)
    kept = []   # per block: its input, w1 product, ReLU output and mask
    with np.errstate(over="ignore", invalid="ignore"):
        h = x @ w_in
        h += b_in
        for w1, b1, gamma, beta, w2, b2 in blocks:
            t = h @ w1
            t += b1
            r, mask = affine_relu_arrays(t, gamma, beta, keep_x=tape is not None)
            u = r @ w2
            u += b2
            u += h
            kept.append((h, t, r, mask))
            h = u
        logits = h @ w_out
        logits += b_out
    def backward(g):
        g = g.reshape(logits.shape)
        tail = [h.T @ g, _unbroadcast(g, b_out.shape)]
        g_h = g @ w_out.T
        per_block = []
        for (w1, b1, gamma, _, w2, b2), (h_in, t, r, mask) in zip(blocks[::-1], kept[::-1]):
            g_w2, g_b2 = r.T @ g_h, _unbroadcast(g_h, b2.shape)
            g_t, g_gamma, g_beta = affine_relu_grads((g_h @ w2.T) * mask, t, gamma)
            per_block[:0] = [h_in.T @ g_t, _unbroadcast(g_t, b1.shape), g_gamma, g_beta,
                             g_w2, g_b2]
            g_h = g_h + g_t @ w1.T
        return ((g_h @ w_in.T).reshape(fd.shape), x.T @ g_h, _unbroadcast(g_h, b_in.shape),
                *per_block, *tail)
    return _record(tape, logits.reshape(fd.shape[:-1] + (clf.classes,)), parents, backward)


@dataclass
class Diagnostics:
    coarse: CoarseOutput
    pixels: Selection
    fine: FineOutput


@dataclass
class ModelState(Module):
    """Every learnable module plus the non-gradient controller state."""

    coarse: CoarseNet
    embedder: Embedder
    fine: FineAttention
    classifier: Classifier
    controller: KController
    class_count: int
    image_shape: tuple[int, int]


def build_model(seed: int, image_shape: tuple[int, int],
                class_count: int = SYNTHETIC_CLASSES,
                dim: int = 4, heads: int = 2, hidden: int = 64,
                coarse_channels: int = 8,
                k_init: int = KController.k, k_min: int = KController.k_min,
                k_max: int = 0,
                ema_beta: float = KController.beta, k_alpha: float = KController.alpha,
                k_step_up: int = KController.step_up,
                k_step_down: int = KController.step_down) -> ModelState:
    """Initialize all modules from one seed; controller bounds are clamped
    to the pixel count so paper-scale defaults stay valid on small images,
    and k_max 0 is the whole image."""
    h, w = image_shape
    sizes = dict(height=h, width=w, class_count=class_count, dim=dim, heads=heads,
                 hidden=hidden, coarse_channels=coarse_channels)
    if min(sizes.values()) < 1:
        raise ValueError(f"every size must be at least 1, got {sizes}")
    n = h * w
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17]))
    k_max = min(int(k_max), n) if k_max else n
    k_min = min(int(k_min), k_max)
    ctrl = KController(k=k_init, k_min=k_min, k_max=k_max, beta=ema_beta,
                       alpha=k_alpha, step_up=k_step_up, step_down=k_step_down)
    return ModelState(
        coarse=CoarseNet(rng, channels=coarse_channels),
        embedder=Embedder(rng, dim=dim),
        fine=FineAttention(rng, dim=dim, heads=heads),
        classifier=Classifier(rng, in_dim=dim + coarse_channels, hidden=hidden,
                              classes=class_count),
        controller=ctrl,
        class_count=class_count,
        image_shape=(h, w),
    )


def model_forward(m: ModelState, images: Tensor, k: int):
    """coarse map -> top-k pixels -> embed -> fine attention -> classifier.

    images is one H×W image, which gives (C,) logits, or a B×H×W batch,
    which gives B×C logits; either must match m.image_shape (DatasetError
    otherwise). Returns (logits, Diagnostics). k changes which pixels feed
    the fine stage, never the output shape.
    """
    shape = images.data.shape
    if len(shape) not in (2, 3) or tuple(shape[-2:]) != tuple(m.image_shape):
        raise DatasetError(
            f"images of shape {shape} do not match the model's H×W {tuple(m.image_shape)}"
        )
    co = coarse_forward(m.coarse, images)
    pixels = select_top_k(co.attention_map, images, k)
    tokens = embed_pixels(m.embedder, pixels.triplets)
    fo = fine_forward(m.fine, tokens)
    logits = classifier_forward(m.classifier, concat([fo.z_fine, co.z_coarse], axis=-1))
    return logits, Diagnostics(coarse=co, pixels=pixels, fine=fo)


def predict(m: ModelState, image: Tensor) -> int:
    """Class index with the highest logit; ties go to the lowest index.
    DatasetError unless image passes check_image."""
    check_image(image.data, m.image_shape)
    logits, _ = model_forward(m, image, m.controller.k)
    return int(np.argmax(logits.data))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"SATM"
_CKPT_VERSION = 4


def checkpoint_bytes(m: ModelState) -> bytes:
    """Serialize the model to one self-describing byte string: the
    tensor.pack container with the hyperparameters and the controller's
    fields as metadata and every parameter as a named record. Round-trips
    bit-exactly."""
    meta = {
        "class_count": m.class_count,
        "image_shape": list(m.image_shape),
        "dim": m.fine.dim,
        "heads": m.fine.heads,
        "hidden": m.classifier.hidden,
        "coarse_channels": m.coarse.channels,
        "controller": asdict(m.controller),
    }
    return pack(MODEL_MAGIC, _CKPT_VERSION, meta, m.params())


def model_from_bytes(data: bytes) -> ModelState:
    meta, arrays = unpack(data, MODEL_MAGIC, _CKPT_VERSION)
    dim, hidden, channels = meta["dim"], meta["hidden"], meta["coarse_channels"]
    # each size is bounded by a record at least as large as anything built from it
    check_sizes(arrays, [("coarse.conv1_w", 0, channels),
                         ("fine.w_v", 0, dim), ("fine.w_v", 1, dim),
                         ("classifier.w_in", 0, dim + channels),
                         ("classifier.block0.w1", 0, hidden),
                         ("classifier.block0.w1", 1, hidden),
                         ("classifier.w_out", 0, hidden),
                         ("classifier.w_out", 1, meta["class_count"])])
    m = build_model(seed=0,
                    image_shape=tuple(meta["image_shape"]),
                    class_count=meta["class_count"],
                    dim=dim, heads=meta["heads"], hidden=hidden,
                    coarse_channels=channels)
    assign_params(m.params(), arrays)
    m.controller = KController(**meta["controller"])
    if m.controller.k_max > m.image_shape[0] * m.image_shape[1]:
        raise ValueError(f"controller k_max {m.controller.k_max} exceeds a {m.image_shape} image")
    return m


def save_model(m: ModelState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(m))


def load_model(path) -> ModelState:
    """The model in SATM file `path`; DatasetError if it is unreadable or damaged."""
    return parse_checkpoint(model_from_bytes, read_file(path, "checkpoint"), path)


def restore_model(m: ModelState, data: bytes) -> None:
    """In-place restore of parameters and controller state."""
    meta, arrays = unpack(data, MODEL_MAGIC, _CKPT_VERSION)
    assign_params(m.params(), arrays)
    m.controller = KController(**meta["controller"])
