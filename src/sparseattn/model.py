"""Full model assembly: fusion of coarse and fine features, residual MLP
classifier with a fixed per-channel affine in each block, end-to-end
forward pass, and the versioned SATM checkpoint format.

Every stage takes its per-image input (an H×W image, a (k+1)×D token
matrix, a fused vector) with or without one leading batch axis, which it
flattens once and restores once: one image is the B=1 case of the same code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coarse import AFFINE_DIVISOR, CoarseNet, CoarseOutput, coarse_forward
from .data import SYNTHETIC_CLASSES, DatasetError, check_image, read_file
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

    block_count = 2

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, classes: int):
        self.in_dim = in_dim
        self.hidden = hidden
        self.classes = classes
        lim_in = (1.0 / in_dim) ** 0.5
        lim_h = (1.0 / hidden) ** 0.5
        self.w_in = Tensor(rng.uniform(-lim_in, lim_in, (in_dim, hidden)))
        self.b_in = Tensor(np.zeros(hidden))
        self.blocks = [{
            "w1": Tensor(rng.uniform(-lim_h, lim_h, (hidden, hidden))),
            "b1": Tensor(np.zeros(hidden)),
            "gamma": Tensor(np.ones(hidden)),
            "beta": Tensor(np.zeros(hidden)),
            "w2": Tensor(rng.uniform(-lim_h, lim_h, (hidden, hidden))),
            "b2": Tensor(np.zeros(hidden)),
        } for _ in range(self.block_count)]
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


@dataclass
class Diagnostics:
    coarse: CoarseOutput
    pixels: Selection
    fine: FineOutput


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

    def params(self):
        out = []
        for prefix, module in (("coarse", self.coarse), ("embedder", self.embedder),
                               ("fine", self.fine), ("classifier", self.classifier)):
            for name, t in module.params():
                out.append((f"{prefix}.{name}", t))
        return out

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.params())


def build_model(seed: int, image_shape: tuple[int, int],
                class_count: int = SYNTHETIC_CLASSES,
                dim: int = 4, heads: int = 2, hidden: int = 64,
                coarse_channels: int = 8,
                k_init: int = KController.k, k_min: int = KController.k_min,
                k_max: int | None = None,
                ema_beta: float = KController.beta, k_alpha: float = KController.alpha,
                k_step_up: int = KController.step_up,
                k_step_down: int = KController.step_down) -> ModelState:
    """Initialize all modules from one seed; controller bounds are clamped
    to the pixel count so paper-scale defaults stay valid on small images."""
    h, w = image_shape
    sizes = dict(height=h, width=w, class_count=class_count, dim=dim, heads=heads,
                 hidden=hidden, coarse_channels=coarse_channels)
    if min(sizes.values()) < 1:
        raise ValueError(f"every size must be at least 1, got {sizes}")
    n = h * w
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17]))
    k_max = n if k_max is None else min(int(k_max), n)
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

_CKPT_MAGIC = b"SATM"
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
    return pack(_CKPT_MAGIC, _CKPT_VERSION, meta, m.params())


def model_from_bytes(data: bytes) -> ModelState:
    meta, arrays = unpack(data, _CKPT_MAGIC, _CKPT_VERSION)
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
    return model_from_bytes(read_file(path, "checkpoint"))


def restore_model(m: ModelState, data: bytes) -> None:
    """In-place restore of parameters and controller state."""
    meta, arrays = unpack(data, _CKPT_MAGIC, _CKPT_VERSION)
    assign_params(m.params(), arrays)
    m.controller = KController(**meta["controller"])
