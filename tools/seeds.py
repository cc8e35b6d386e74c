"""Per-seed results of acceptance criteria 9 and 11: the pass rate of the
training fixture over many seeds, not just the test suite's seed 42.

For each seed s, in its own process with one BLAS thread and at most two
processes at once, the acceptance fixture at seed s
(fingerprint.fixture(seed=s)) trains and is evaluated on its test split.
Each seed prints one JSON line, in the order the seeds were given:

    seed            the seed
    accuracy        evaluate() accuracy on the test split
    k               the final pixel budget
    hit_rate        criterion 11's foreground hit rate at that k (hit_rate())
    restored_epoch  the epoch train() restores, the first minimum of val_loss
    epoch_k         the k each epoch trained at
    epoch_hit_rate  the test hit rate at that k after each epoch's training
    criterion_9, criterion_11, passed   the bounds of criteria() and both
    elapsed_s       criterion 9's wall time: building the fixture and
                    training, less the time spent on epoch_hit_rate

elapsed_s is the only field that differs between repeated runs. A seed
whose run fails prints its seed and an `error` line instead. A last line
on stderr lists the seeds that pass both criteria and counts the seeds
that pass criterion 9 and criterion 11 each.

    python3 tools/seeds.py 1-20            # development seeds
    python3 tools/seeds.py 101-110         # held out: read to gate, never to tune
    python3 tools/seeds.py 42

Ten seeds take about a minute two at a time on a 2-CPU Xeon host.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparseattn as sa  # noqa: E402
from fingerprint import fixture  # noqa: E402
from sparseattn.coarse import coarse_forward  # noqa: E402
from sparseattn.selector import select_top_k  # noqa: E402
from sparseattn.train import EVAL_CHUNK, stack_images  # noqa: E402

# the module, not the function `sparseattn.train` that the package exports
sa_train = importlib.import_module("sparseattn.train")

# fingerprint.fixture's settings that a run may shrink, with their defaults
SIZES = {"image-size": 32, "samples-per-class": 300, "epochs": 28, "k-init": 512, "k-min": 160}


def criteria(accuracy: float, k: int, pixels: int, epochs: int, elapsed_s: float,
             hit_rate: float) -> dict[str, bool]:
    """The verdicts of acceptance criteria 9 (accuracy at least 0.90 with k
    at most 20% of the pixels, in at most 60 epochs and under 300 s) and 11
    (a mean hit rate of at least 0.70)."""
    return {
        "criterion_9": (accuracy >= 0.90 and k <= 0.20 * pixels
                        and epochs <= 60 and elapsed_s < 300.0),
        "criterion_11": hit_rate >= 0.70,
    }


def hit_rate(model, test_set, k: int) -> float:
    """Criterion 11's foreground hit rate: the mean over the images of the
    share of their k selected pixels inside their foreground masks. The
    coarse maps and the selection run over chunks of EVAL_CHUNK images."""
    inside = []
    for start in range(0, len(test_set), EVAL_CHUNK):
        chunk = test_set[start:start + EVAL_CHUNK]
        images = stack_images(chunk)
        picked = select_top_k(coarse_forward(model.coarse, images).attention_map, images, k)
        masks = np.stack([s.foreground_mask for s in chunk]).reshape(len(chunk), -1)
        inside.append(np.take_along_axis(masks, picked.index, axis=1).sum(axis=1))
    return float(np.mean(np.concatenate(inside) / k))


def run_seed(seed: int, sizes: dict) -> dict:
    """Train and evaluate the fixture at `seed` in this process."""
    start = time.monotonic()
    train_set, test_set, model, config = fixture(
        seed, sizes["image-size"], sizes["samples-per-class"], sizes["epochs"],
        sizes["k-init"], sizes["k-min"])
    epoch_hits, hook_s = [], 0.0
    update_k = sa_train.update_k

    def update_k_after_scoring(controller, train_loss):
        # train() calls update_k once per epoch, after its training steps
        nonlocal hook_s
        t0 = time.monotonic()
        epoch_hits.append(hit_rate(model, test_set, controller.k))
        hook_s += time.monotonic() - t0
        return update_k(controller, train_loss)

    sa_train.update_k = update_k_after_scoring
    try:
        model, logs = sa.train(model, train_set, config)
    finally:
        sa_train.update_k = update_k
    elapsed = time.monotonic() - start - hook_s
    accuracy = sa.evaluate(model, test_set).accuracy
    k = model.controller.k
    hits = hit_rate(model, test_set, k)
    val_losses = [log["val_loss"] for log in logs]
    verdict = criteria(accuracy, k, sizes["image-size"] ** 2, config.epochs, elapsed, hits)
    return {
        "seed": seed,
        "accuracy": accuracy,
        "k": k,
        "hit_rate": hits,
        "restored_epoch": val_losses.index(min(val_losses)) if val_losses else None,
        "epoch_k": [log["k"] for log in logs],
        "epoch_hit_rate": epoch_hits,
        **verdict,
        "passed": all(verdict.values()),
        "elapsed_s": round(elapsed, 3),
    }


def run(seeds: list[int], sizes: dict, jobs: int = 2) -> list[dict]:
    """run_seed for each seed, each in a child process with one BLAS
    thread, `jobs` (1 or 2) at a time; results in the order of `seeds`."""
    if jobs not in (1, 2):
        raise ValueError(f"jobs must be 1 or 2, got {jobs}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    flags = [arg for name, value in sizes.items() for arg in (f"--{name}", str(value))]

    def child(seed: int) -> dict:
        proc = subprocess.run([sys.executable, __file__, "--in-process", str(seed), *flags],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            return {"seed": seed, "error": lines[-1]}
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(child, seeds))


def summary(results: list[dict]) -> str:
    """The last line of a run: the seeds that pass both criteria, then the
    count of each criterion alone. A failed run passes neither."""
    passed = [r["seed"] for r in results if r.get("passed")]
    each = [sum(bool(r.get(f"criterion_{c}")) for r in results) for c in (9, 11)]
    return (f"criteria 9 and 11 both hold on {len(passed)} of {len(results)} seeds: "
            f"{' '.join(map(str, passed)) or 'none'}; "
            f"criterion 9 on {each[0]}, criterion 11 on {each[1]}")


def parse_seeds(text: str) -> list[int]:
    """'1-20', '101-110' or '3,7,42' (ranges inclusive) -> the seeds. A
    reversed or open range is an argparse error."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        lo = int(first)
        hi = int(last) if dash else lo
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += range(lo, hi + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="?", type=parse_seeds, default=parse_seeds("1-20"))
    parser.add_argument("--in-process", type=int, metavar="SEED",
                        help="run one seed in this process and print its line")
    for name, default in SIZES.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    args = parser.parse_args(argv)
    sizes = {name: getattr(args, name.replace("-", "_")) for name in SIZES}
    if args.in_process is not None:
        print(json.dumps(run_seed(args.in_process, sizes)))
        return 0
    results = run(args.seeds, sizes)
    for result in results:
        print(json.dumps(result), flush=True)
    print(summary(results), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
