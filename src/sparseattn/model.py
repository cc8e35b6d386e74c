"""Full model assembly: fusion of coarse and fine features, residual MLP
classifier with a fixed per-channel affine in each block, end-to-end
forward pass, and the versioned SATM checkpoint format.

Every stage takes one H×W image or a B×H×W batch; a batch runs each stage
once for all its images, and one image is the batch-free case of the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse import AFFINE_DIVISOR, CoarseNet, CoarseOutput, coarse_forward
from .data import DatasetError
from .embedding import Embedder, embed_pixels
from .fine import FineAttention, FineOutput, fine_forward
from .selector import KController, Selection, select_top_k
from .tensor import (
    Tensor,
    add,
    affine,
    assign_params,
    check_sizes,
    concat,
    div,
    matmul,
    pack,
    relu,
    reshape,
    unpack,
)


class Classifier:
    """Affine in, two pre-activation residual blocks, affine out.

    Block form: affine -> per-channel affine (gamma / AFFINE_DIVISOR,
    beta) -> relu -> affine, added to the skip. No statistic is taken over
    a batch, so a sample's logits never depend on the rest of its batch.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int,
                 classes: int, blocks: int = 2):
        self.in_dim = in_dim
        self.hidden = hidden
        self.classes = classes
        lim_in = (1.0 / in_dim) ** 0.5
        lim_h = (1.0 / hidden) ** 0.5
        self.w_in = Tensor(rng.uniform(-lim_in, lim_in, (in_dim, hidden)))
        self.b_in = Tensor(np.zeros(hidden))
        self.blocks = []
        for _ in range(blocks):
            self.blocks.append({
                "w1": Tensor(rng.uniform(-lim_h, lim_h, (hidden, hidden))),
                "b1": Tensor(np.zeros(hidden)),
                "gamma": Tensor(np.ones(hidden)),
                "beta": Tensor(np.zeros(hidden)),
                "w2": Tensor(rng.uniform(-lim_h, lim_h, (hidden, hidden))),
                "b2": Tensor(np.zeros(hidden)),
            })
        self.w_out = Tensor(rng.uniform(-lim_h, lim_h, (hidden, classes)))
        self.b_out = Tensor(np.zeros(classes))

    def params(self):
        out = [("w_in", self.w_in), ("b_in", self.b_in)]
        for i, blk in enumerate(self.blocks):
            for key in ("w1", "b1", "gamma", "beta", "w2", "b2"):
                out.append((f"block{i}.{key}", blk[key]))
        return out + [("w_out", self.w_out), ("b_out", self.b_out)]


def classifier_forward(clf: Classifier, fused: Tensor) -> Tensor:
    """Map a fused feature vector to class logits of length C, or a B×in_dim
    batch of them to B×C logits."""
    lead = fused.data.shape[:-1]
    x = reshape(fused, (-1, clf.in_dim))
    h = add(matmul(x, clf.w_in), clf.b_in)
    for blk in clf.blocks:
        t = add(matmul(h, blk["w1"]), blk["b1"])
        t = affine(t, div(blk["gamma"], AFFINE_DIVISOR), blk["beta"])
        r = relu(t)
        u = add(matmul(r, blk["w2"]), blk["b2"])
        h = add(h, u)
    logits = add(matmul(h, clf.w_out), clf.b_out)
    return reshape(logits, lead + (clf.classes,))


def fuse(z_fine: Tensor, z_coarse: Tensor) -> Tensor:
    """Concatenate [z_fine; z_coarse] (per row of a batch); gradients split
    back by slice."""
    return concat([z_fine, z_coarse], axis=-1)


@dataclass
class Diagnostics:
    coarse: CoarseOutput
    pixels: Selection
    fine: FineOutput
    fused: Tensor


@dataclass
class ModelState:
    """Every learnable module plus the non-gradient controller state."""

    coarse: CoarseNet
    embedder: Embedder
    fine: FineAttention
    classifier: Classifier
    controller: KController
    class_count: int
    image_shape: tuple[int, int]
    dim: int = 4
    heads: int = 2
    hidden: int = 64
    coarse_channels: int = 8

    def params(self):
        out = []
        for prefix, module in (("coarse", self.coarse), ("embedder", self.embedder),
                               ("fine", self.fine), ("classifier", self.classifier)):
            for name, t in module.params():
                out.append((f"{prefix}.{name}", t))
        return out

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.params())


def build_model(seed: int, image_shape: tuple[int, int], class_count: int = 3,
                dim: int = 4, heads: int = 2, hidden: int = 64,
                coarse_channels: int = 8,
                k_init: int = 8000, k_min: int = 1500, k_max: int | None = None,
                ema_beta: float = 0.2, k_alpha: float = 0.2,
                k_step_up: int = 80, k_step_down: int = 50) -> ModelState:
    """Initialize all modules from one seed; controller bounds are clamped
    to the pixel count so paper-scale defaults stay valid on small images."""
    h, w = image_shape
    if h < 1 or w < 1:
        raise ValueError(f"image shape {image_shape} is not at least 1×1")
    n = h * w
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17]))
    k_max = n if k_max is None else min(int(k_max), n)
    k_min = min(int(k_min), k_max)
    ctrl = KController(k_init=k_init, k_min=k_min, k_max=k_max, beta=ema_beta,
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
        dim=dim,
        heads=heads,
        hidden=hidden,
        coarse_channels=coarse_channels,
    )


def model_forward(m: ModelState, images: Tensor, k: int):
    """coarse map -> top-k pixels -> embed -> fine attention -> fuse -> logits.

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
    x = images if len(shape) == 2 else reshape(images, (shape[0], 1) + shape[1:])
    co = coarse_forward(m.coarse, x)
    pixels = select_top_k(co.attention_map.detach(), images.detach(), k)
    tokens = embed_pixels(m.embedder, pixels.triplets)
    fo = fine_forward(m.fine, tokens)
    fused = fuse(fo.z_fine, co.z_coarse)
    logits = classifier_forward(m.classifier, fused)
    return logits, Diagnostics(coarse=co, pixels=pixels, fine=fo, fused=fused)


def predict(m: ModelState, image: Tensor) -> int:
    """Class index with the highest logit; ties go to the lowest index."""
    logits, _ = model_forward(m, image, m.controller.k)
    return int(np.argmax(logits.data))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SATM"
_CKPT_VERSION = 2


def checkpoint_bytes(m: ModelState) -> bytes:
    """Serialize the model to one self-describing byte string: the
    tensor.pack container with the hyperparameters and controller state as
    metadata and every parameter as a named record. Round-trips
    bit-exactly."""
    meta = {
        "class_count": m.class_count,
        "image_shape": list(m.image_shape),
        "dim": m.dim,
        "heads": m.heads,
        "hidden": m.hidden,
        "coarse_channels": m.coarse_channels,
        "controller": m.controller.state(),
    }
    return pack(_CKPT_MAGIC, _CKPT_VERSION, meta, m.params())


def model_from_bytes(data: bytes) -> ModelState:
    meta, arrays = unpack(data, _CKPT_MAGIC, _CKPT_VERSION)
    check_sizes(arrays, [("coarse.conv1_w", 0, meta["coarse_channels"]),
                         ("embedder.w2", 1, meta["dim"]),
                         ("classifier.w_in", 1, meta["hidden"]),
                         ("classifier.w_out", 1, meta["class_count"])])
    m = build_model(seed=0,
                    image_shape=tuple(meta["image_shape"]),
                    class_count=meta["class_count"],
                    dim=meta["dim"], heads=meta["heads"], hidden=meta["hidden"],
                    coarse_channels=meta["coarse_channels"])
    assign_params(m.params(), arrays)
    m.controller = KController.from_state(meta["controller"])
    return m


def save_model(m: ModelState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(m))


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())


def restore_model(m: ModelState, data: bytes) -> None:
    """In-place restore of parameters and controller state."""
    meta, arrays = unpack(data, _CKPT_MAGIC, _CKPT_VERSION)
    assign_params(m.params(), arrays)
    m.controller = KController.from_state(meta["controller"])
