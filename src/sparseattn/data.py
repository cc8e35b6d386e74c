"""Synthetic cell-like images, PGM dataset I/O, and stratified splitting.

Three shape classes on a dark noisy background: a filled disk, an annulus,
and a two-lobed blob. Every sample is generated from a seed derived from
(dataset seed, class, index), so datasets are bit-identical across runs
and samples can be generated independently.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor


class DatasetError(ValueError):
    """Problems loading or validating a dataset from disk."""


@dataclass
class SyntheticSpec:
    image_size: int = 32
    class_count: int = 3
    seed: int = 0
    noise_sigma: float = 0.05
    samples_per_class: int = 100

    def __post_init__(self):
        if self.image_size < 16:
            raise ValueError(f"image_size must be >= 16, got {self.image_size}")


@dataclass
class LabeledImage:
    pixels: Tensor                      # H×W in [0, 1]
    label: int
    foreground_mask: np.ndarray | None = None   # bool H×W, synthetic only


def _disk_mask(size: int, cy: float, cx: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _make_sample(spec: SyntheticSpec, label: int, index: int) -> LabeledImage:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, label, index]))
    s = spec.image_size
    cy = s / 2 + rng.uniform(-s / 12, s / 12)
    cx = s / 2 + rng.uniform(-s / 12, s / 12)
    r = s / 4 * rng.uniform(0.9, 1.1)

    if label == 0:
        mask = _disk_mask(s, cy, cx, r)
    elif label == 1:
        outer = _disk_mask(s, cy, cx, 1.16 * r)
        inner = _disk_mask(s, cy, cx, 1.16 * r * rng.uniform(0.48, 0.58))
        mask = outer & ~inner
    else:
        gap = r * rng.uniform(0.75, 0.95)
        angle = rng.uniform(0, np.pi)
        dy, dx = gap * np.sin(angle), gap * np.cos(angle)
        lobe = r * rng.uniform(0.60, 0.70)
        mask = _disk_mask(s, cy - dy, cx - dx, lobe) | _disk_mask(s, cy + dy, cx + dx, lobe)

    img = np.zeros((s, s))
    texture = rng.uniform(0.55, 1.0, (s, s))
    img[mask] = texture[mask]
    if spec.noise_sigma > 0:
        img = img + rng.normal(0.0, spec.noise_sigma, (s, s))
    img = np.clip(img, 0.0, 1.0)
    return LabeledImage(pixels=Tensor(img), label=label, foreground_mask=mask)


def generate(spec: SyntheticSpec) -> list[LabeledImage]:
    """Deterministic dataset: samples_per_class images for each class."""
    out = []
    for label in range(spec.class_count):
        for index in range(spec.samples_per_class):
            out.append(_make_sample(spec, label, index))
    return out


def check_image_shapes(dataset: list[LabeledImage], shape) -> None:
    """DatasetError unless every image is H×W as a model's `shape` says."""
    shape = tuple(shape)
    for sample in dataset:
        if sample.pixels.data.shape != shape:
            raise DatasetError(
                f"image of shape {sample.pixels.data.shape} does not match "
                f"the model's {shape}"
            )


def split(dataset: list[LabeledImage], train_fraction: float = 0.8,
          seed: int = 0) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Stratified, seeded, disjoint, exhaustive train/test split."""
    if not dataset:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    by_class: dict[int, list[int]] = {}
    for i, sample in enumerate(dataset):
        by_class.setdefault(sample.label, []).append(i)
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        if len(idx) < 2:
            warnings.warn(f"class {label} has fewer than 2 samples; kept in train")
            train_idx.extend(idx.tolist())
            continue
        perm = rng.permutation(len(idx))
        cut = int(round(train_fraction * len(idx)))
        train_idx.extend(idx[perm[:cut]].tolist())
        test_idx.extend(idx[perm[cut:]].tolist())
    return [dataset[i] for i in train_idx], [dataset[i] for i in test_idx]


# ---------------------------------------------------------------------------
# PGM raster I/O (binary P5, 8-bit)
# ---------------------------------------------------------------------------

def write_pgm(path, values: np.ndarray) -> None:
    """Write a [0,1] float array as an 8-bit binary PGM."""
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    h, w = arr.shape
    data = np.round(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a [0,1] float array."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"image file not found: {path}")
    raw = path.read_bytes()
    if raw[:2] != b"P5":
        raise DatasetError(f"{path}: not a binary PGM (magic {raw[:2]!r})")
    # header: magic, width, height, maxval; '#' comments allowed between fields
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(raw[start:pos]))
        except ValueError as err:
            raise DatasetError(f"{path}: malformed PGM header") from err
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DatasetError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if w < 1 or h < 1:
        raise DatasetError(f"{path}: PGM size {w}×{h} is not at least 1×1")
    body = raw[pos:pos + w * h]
    if len(body) != w * h:
        raise DatasetError(f"{path}: truncated PGM payload")
    return np.frombuffer(body, dtype=np.uint8).astype(np.float64).reshape(h, w) / 255.0


def export_dataset(dataset: list[LabeledImage], out_dir) -> None:
    """Write manifest.csv plus one PGM per sample in the standard layout."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for i, sample in enumerate(dataset):
            name = f"sample_{i:05d}.pgm"
            write_pgm(out / name, sample.pixels.data)
            writer.writerow([name, sample.label])


def load_dataset(dir_path, manifest: str = "manifest.csv",
                 class_count: int | None = None) -> list[LabeledImage]:
    """Load a manifest-described PGM dataset; all images must share a shape."""
    root = Path(dir_path)
    manifest_path = root / manifest
    if not manifest_path.exists():
        raise DatasetError(f"manifest not found: {manifest_path}")
    samples: list[LabeledImage] = []
    shape = None
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, rec in enumerate(reader, start=1):
            if not rec or (lineno == 1 and rec[0].strip().lower() == "filename"):
                continue
            if len(rec) < 2:
                raise DatasetError(f"{manifest_path}:{lineno}: expected filename,label")
            name, raw_label = rec[0].strip(), rec[1].strip()
            try:
                label = int(raw_label)
            except ValueError as err:
                raise DatasetError(
                    f"{manifest_path}:{lineno}: label {raw_label!r} is not an integer"
                ) from err
            if label < 0 or (class_count is not None and label >= class_count):
                raise DatasetError(
                    f"{manifest_path}:{lineno}: label {label} out of range for "
                    f"{class_count} classes"
                )
            img = read_pgm(root / name)
            if shape is None:
                shape = img.shape
            elif img.shape != shape:
                raise DatasetError(
                    f"{root / name}: shape {img.shape} differs from {shape}; "
                    "mixed image sizes are not supported"
                )
            samples.append(LabeledImage(pixels=Tensor(img), label=label))
    return samples
