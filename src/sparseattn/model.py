"""Full model assembly: fusion of coarse and fine features, residual MLP
classifier, end-to-end forward pass, and the versioned checkpoint format.

Every stage takes one H×W image or a B×H×W batch; a batch runs each stage
once for all its images, and one image is the batch-free case of the same
code.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .coarse import BN_EPS, CoarseNet, CoarseOutput, coarse_forward
from .data import DatasetError
from .embedding import Embedder, embed_pixels
from .fine import FineAttention, FineOutput, fine_forward
from .selector import KController, Selection, select_top_k
from .tensor import (
    Tensor,
    add,
    add_rowvec,
    concat,
    div,
    dump_tensor,
    matmul,
    mul,
    mul_rowvec,
    read_tensor,
    relu,
    reshape,
    sub,
)


class Classifier:
    """Affine in, two pre-activation residual blocks, affine out.

    Block form: affine -> batch norm -> relu -> affine, added to the skip.
    Batch norm normalizes with its running statistics, batched or not, so
    a sample's logits never depend on the rest of its batch; gamma/beta
    remain learnable.
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
                "bn_mean": np.zeros(hidden),
                "bn_var": np.ones(hidden),
            })
        self.w_out = Tensor(rng.uniform(-lim_h, lim_h, (hidden, classes)))
        self.b_out = Tensor(np.zeros(classes))

    def params(self):
        out = [("w_in", self.w_in), ("b_in", self.b_in)]
        for i, blk in enumerate(self.blocks):
            for key in ("w1", "b1", "gamma", "beta", "w2", "b2"):
                out.append((f"block{i}.{key}", blk[key]))
        out.append(("w_out", self.w_out))
        out.append(("b_out", self.b_out))
        return out

    def buffers(self):
        out = []
        for i, blk in enumerate(self.blocks):
            out.append((f"block{i}.bn_mean", blk["bn_mean"]))
            out.append((f"block{i}.bn_var", blk["bn_var"]))
        return out


def classifier_forward(clf: Classifier, fused: Tensor) -> Tensor:
    """Map a fused feature vector to class logits of length C, or a B×in_dim
    batch of them to B×C logits."""
    lead = fused.data.shape[:-1]
    x = reshape(fused, (-1, clf.in_dim))
    h = add_rowvec(matmul(x, clf.w_in), clf.b_in)
    for blk in clf.blocks:
        t = add_rowvec(matmul(h, blk["w1"]), blk["b1"])
        sigma = Tensor(np.sqrt(blk["bn_var"] + BN_EPS))
        scale = div(blk["gamma"], sigma)
        shift = sub(blk["beta"], mul(scale, Tensor(blk["bn_mean"])))
        t = add_rowvec(mul_rowvec(t, scale), shift)
        r = relu(t)
        u = add_rowvec(matmul(r, blk["w2"]), blk["b2"])
        h = add(h, u)
    logits = add_rowvec(matmul(h, clf.w_out), clf.b_out)
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

    def buffers(self):
        out = []
        for prefix, module in (("coarse", self.coarse), ("classifier", self.classifier)):
            for name, arr in module.buffers():
                out.append((f"{prefix}.{name}", arr))
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


def model_forward(m: ModelState, images: Tensor, k: int, training: bool = False):
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
    co = coarse_forward(m.coarse, x, training=training)
    pixels = select_top_k(co.attention_map.detach(), images.detach(), k)
    tokens = embed_pixels(m.embedder, pixels.triplets)
    fo = fine_forward(m.fine, tokens)
    fused = fuse(fo.z_fine, co.z_coarse)
    logits = classifier_forward(m.classifier, fused)
    return logits, Diagnostics(coarse=co, pixels=pixels, fine=fo, fused=fused)


def predict(m: ModelState, image: Tensor) -> int:
    """Class index with the highest logit; ties go to the lowest index."""
    logits, _ = model_forward(m, image, m.controller.k, training=False)
    return int(np.argmax(logits.data))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SATM"
_CKPT_VERSION = 1


def checkpoint_bytes(m: ModelState) -> bytes:
    """Serialize the model to one self-describing byte string.

    Layout: magic, u32 version, u32 JSON length + metadata, u32 blob
    count, then named tensor records. Round-trips bit-exactly.
    """
    meta = {
        "class_count": m.class_count,
        "image_shape": list(m.image_shape),
        "dim": m.dim,
        "heads": m.heads,
        "hidden": m.hidden,
        "coarse_channels": m.coarse_channels,
        "controller": m.controller.state(),
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(struct.pack("<I", _CKPT_VERSION))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    entries = m.params() + [(name, Tensor(arr)) for name, arr in m.buffers()]
    buf.write(struct.pack("<I", len(entries)))
    for name, t in entries:
        raw = name.encode()
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        dump_tensor(t, buf)
    return buf.getvalue()


def model_from_bytes(data: bytes) -> ModelState:
    buf = io.BytesIO(data)
    if buf.read(4) != _CKPT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", buf.read(4))
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", buf.read(4))
    meta = json.loads(buf.read(meta_len).decode())
    (count,) = struct.unpack("<I", buf.read(4))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", buf.read(2))
        name = buf.read(name_len).decode()
        tensors[name] = read_tensor(buf)
    # built only once every record has been read, so a truncated file fails fast
    m = build_model(seed=0,
                    image_shape=tuple(meta["image_shape"]),
                    class_count=meta["class_count"],
                    dim=meta["dim"], heads=meta["heads"], hidden=meta["hidden"],
                    coarse_channels=meta["coarse_channels"])
    m.controller = KController.from_state(meta["controller"])
    for name, t in m.params():
        if name not in tensors:
            raise ValueError(f"checkpoint missing parameter {name}")
        loaded = tensors[name]
        if loaded.data.shape != t.data.shape:
            raise ValueError(
                f"checkpoint parameter {name} has shape {loaded.data.shape}, "
                f"expected {t.data.shape}"
            )
        t.data = loaded.data
    for name, arr in m.buffers():
        if name not in tensors:
            raise ValueError(f"checkpoint missing buffer {name}")
        arr[...] = tensors[name].data
    return m


def save_model(m: ModelState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(m))


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())


def restore_model(m: ModelState, data: bytes) -> None:
    """In-place restore of parameters, buffers, and controller state."""
    loaded = model_from_bytes(data)
    for (_, dst), (_, src) in zip(m.params(), loaded.params()):
        dst.data = src.data
    for (_, dst), (_, src) in zip(m.buffers(), loaded.buffers()):
        dst[...] = src
    m.controller = loaded.controller
