"""Timing of select_top_k against the stable-argsort selector it replaced,
on the coarse maps of an untrained and of a trained model.

The maps are the attention maps of the acceptance fixture's 180 test
images (tools/fingerprint.py's fixture()): from the seed-42 model as
built, and after the fixture's 28 training epochs. Trained maps hold long
runs of equal scores (background pixels that the coarse stage maps to one
value); the untrained model's maps hold none. For each kind of map, batch size B in
{1, 8, 32} and k in {160, 512}, both selectors run over the maps in
consecutive B-map chunks, must return the same Selection, and are timed in
alternating passes. The output, printed as JSON, gives the median time per
call of each, and the share of rows whose ranks 0…k hold two equal scores,
the rows for which select_top_k re-sorts:

    OPENBLAS_NUM_THREADS=1 python3 tools/select_timing.py

It takes about 20 s on a 2-CPU Xeon host, most of it training.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparseattn as sa  # noqa: E402
from fingerprint import fixture  # noqa: E402
from sparseattn.coarse import coarse_forward  # noqa: E402
from sparseattn.selector import select_top_k  # noqa: E402
from sparseattn.tensor import Tensor  # noqa: E402


def stable_selection(scores: np.ndarray, images: np.ndarray, k: int):
    """The replaced selector, and the oracle of tests/test_selector.py:
    (index, triplets) from a full stable argsort of the negated scores (the
    order select_top_k promises, NaN scores last)."""
    h, w = scores.shape[-2:]
    flat_shape = scores.shape[:-2] + (h * w,)
    index = np.argsort(-scores.reshape(flat_shape), axis=-1, kind="stable")[..., :k]
    rows, cols = np.divmod(index, w)
    values = np.take_along_axis(images.reshape(flat_shape), index, axis=-1)
    return index, np.stack([cols * (1.0 / (w - 1)), rows * (1.0 / (h - 1)), values], axis=-1)


def tie_share(maps: np.ndarray, k: int) -> float:
    """Share of rows with equal scores (or two NaNs) among ranks 0…k."""
    ranked = np.sort(-maps.reshape(len(maps), -1), axis=-1)[:, :k + 1]
    a, b = ranked[:, :-1], ranked[:, 1:]
    return float(np.mean(np.any((a == b) | np.isnan(a) & np.isnan(b), axis=-1)))


def time_pair(maps: np.ndarray, images: np.ndarray, batch: int, k: int,
              passes: int) -> dict:
    """Median µs per call of each selector over chunks of `batch` maps."""
    chunks = [(maps[i:i + batch], images[i:i + batch])
              for i in range(0, len(maps) - batch + 1, batch)]
    for s, im in chunks:
        picked = select_top_k(Tensor(s), Tensor(im), k)
        index, triplets = stable_selection(s, im, k)
        if not (np.array_equal(picked.index, index)
                and np.array_equal(picked.triplets, triplets)):
            raise AssertionError(f"selectors disagree at B={batch}, k={k}")
    wrapped = [(Tensor(s), Tensor(im)) for s, im in chunks]
    calls = {"stable_us": lambda: [stable_selection(s, im, k) for s, im in chunks],
             "select_top_k_us": lambda: [select_top_k(s, im, k) for s, im in wrapped]}
    runs = {name: [] for name in calls}
    for i in range(passes):
        for name in sorted(calls, reverse=i % 2 == 1):     # alternate which runs first
            start = time.perf_counter()
            calls[name]()
            runs[name].append((time.perf_counter() - start) / len(chunks) * 1e6)
    out = {name: round(statistics.median(t), 1) for name, t in runs.items()}
    out["speedup"] = round(out["stable_us"] / out["select_top_k_us"], 3)
    return out


def select_timing(passes: int = 21, **settings) -> dict:
    """Timings on the maps of the fixture; settings go to fixture()."""
    train_set, test_set, model, config = fixture(**settings)
    images = np.stack([s.pixels.data for s in test_set])
    maps = {"untrained": coarse_forward(model.coarse, Tensor(images)).attention_map.data}
    model, _ = sa.train(model, train_set, config)
    maps["trained"] = coarse_forward(model.coarse, Tensor(images)).attention_map.data
    timings = [
        {"maps": kind, "batch": batch, "k": k, "tie_share": round(tie_share(m, k), 4),
         **time_pair(m, images, batch, k, passes)}
        for kind, m in maps.items() for k in (160, 512) for batch in (1, 8, 32)
    ]
    return {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "images": len(images), "trained_k": model.controller.k, "passes": passes,
        "timings": timings,
    }


if __name__ == "__main__":
    print(json.dumps(select_timing(), indent=1))
