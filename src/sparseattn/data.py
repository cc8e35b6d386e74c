"""Synthetic cell-like images, PGM dataset I/O, and stratified splitting.

Three shape classes on a dark noisy background: a filled disk, an annulus,
and a two-lobed blob. Every sample is generated from a seed derived from
(dataset seed, class, index), so datasets are bit-identical across runs
and samples can be generated independently.
"""

from __future__ import annotations

import csv
import io
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor


class DatasetError(ValueError):
    """Problems loading or validating a dataset from disk."""


def read_file(path, what: str, error=DatasetError, encoding: str | None = None):
    """The bytes of file `path`, or an `error`. Given an `encoding`, the
    decoded text, without the byte-order mark some editors write first."""
    try:
        data = Path(path).read_bytes()
        return data.decode(encoding).removeprefix("\ufeff") if encoding else data
    except UnicodeDecodeError as err:
        raise error(f"{what} {path}: not {encoding} text: {err}") from err
    except (FileNotFoundError, ValueError) as err:   # ValueError: a NUL byte in the name
        raise error(f"{what} not found: {path}") from err
    except OSError as err:
        raise error(f"{what} unreadable ({err.strerror}): {path}") from err


def parse_checkpoint(parse, data: bytes, source):
    """parse(data), where bad magic, another version, truncation, trailing
    bytes, corrupt records, missing, unknown or wrong-shaped tensors and
    metadata of the wrong type all raise DatasetError, naming `source`."""
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError, OverflowError, struct.error) as err:
        # ValueError covers bad JSON and bad UTF-8 as well; OverflowError an infinite int
        raise DatasetError(f"{source}: corrupt or truncated checkpoint: {err}") from err


SYNTHETIC_CLASSES = 3   # label 0 disk, 1 annulus, 2 two-lobed blob


@dataclass
class SyntheticSpec:
    image_size: int = 32
    seed: int = 0
    noise_sigma: float = 0.05
    samples_per_class: int = 100

    def __post_init__(self):
        if not (self.image_size >= 16 and self.samples_per_class >= 1
                and 0 <= self.noise_sigma < np.inf):
            raise ValueError("need image_size >= 16, samples_per_class >= 1 and "
                             f"finite noise_sigma >= 0, got {self}")


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
    return [_make_sample(spec, label, index)
            for label in range(SYNTHETIC_CLASSES) for index in range(spec.samples_per_class)]


def check_image(pixels: np.ndarray, shape) -> None:
    """DatasetError unless `pixels` is one H×W image as a model's `shape`
    says and every pixel is finite."""
    if pixels.shape != tuple(shape):
        raise DatasetError(
            f"image of shape {pixels.shape} does not match the model's {tuple(shape)}"
        )
    if not np.isfinite(pixels).all():
        raise DatasetError("image has a non-finite pixel")


def check_dataset(dataset: list[LabeledImage], shape, class_count: int) -> None:
    """check_image on every image, and DatasetError unless every label is
    one of the model's `class_count` classes."""
    for sample in dataset:
        check_image(sample.pixels.data, shape)
        if not 0 <= sample.label < class_count:
            raise DatasetError(
                f"label {sample.label} is not one of the model's {class_count} classes"
            )


def stratified_parts(dataset: list[LabeledImage], seed: int, salt: int,
                     cut) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Seeded stratified (first, rest) split: class by class in sorted label
    order, one SeedSequence([seed, salt]) generator permutes the class's
    samples and the first cut(label, n) of its n samples go to `first`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    labels = np.array([sample.label for sample in dataset])
    first, rest = [], []
    for label in sorted(set(labels.tolist())):   # np.unique costs 1.5 MB RSS (numpy 2.4)
        idx = rng.permutation(np.flatnonzero(labels == label))   # one sample draws nothing
        end = cut(label, len(idx))
        first.extend(dataset[i] for i in idx[:end])
        rest.extend(dataset[i] for i in idx[end:])
    return first, rest


def split(dataset: list[LabeledImage], train_fraction: float = 0.8,
          seed: int = 0) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Stratified, seeded, disjoint, exhaustive train/test split."""
    if not dataset:
        raise ValueError("cannot split an empty dataset")
    if not 0 <= train_fraction <= 1:   # NaN fails it too
        raise ValueError(f"train_fraction {train_fraction} outside [0, 1]")

    def cut(label: int, n: int) -> int:
        if n < 2:
            warnings.warn(f"class {label} has fewer than 2 samples; kept in train")
            return n
        return int(round(train_fraction * n))
    return stratified_parts(dataset, seed, 29, cut)


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
    raw = read_file(path, "image file")
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


def load_dataset(dir_path, class_count: int | None = None) -> list[LabeledImage]:
    """Load dir_path/manifest.csv and the PGM images it lists, all of one shape."""
    root = Path(dir_path)
    manifest_path = root / "manifest.csv"
    text = read_file(manifest_path, "manifest", encoding="UTF-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    samples: list[LabeledImage] = []
    shape = None
    for lineno, rec in enumerate(rows, start=1):
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
