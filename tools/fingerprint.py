"""Bit-exactness fingerprint of the seed-42 acceptance fixture and of the
dense baseline trained on the same split.

Prints, as JSON, the SHA-256 of repr(logs), of every parameter's name and
bytes and of the SATM checkpoint of the fixture's train() run, with its
final k and evaluate() report; then the SHA-256 of the logs and parameters
of train_baseline() for 3 epochs, with its evaluate_baseline() report.
For each trained model it also hashes the raw logits of the tape-free
forward: over the test set in chunks of train.EVAL_CHUNK images, as
evaluate() runs it, and over the first 10 test images one at a time, as
predict() does. The reports see those logits only through their argmax.

    python3 tools/fingerprint.py

runs the fingerprint in two child processes at the same time, one with
OPENBLAS_NUM_THREADS=1 and one with =2, and prints the JSON once. If the
two disagree it prints the one-thread JSON, names the keys that differ on
stderr and exits 1. Two trees whose arithmetic is the same print the same
output, so a change meant to be bit-exact is checked by running this in
both and comparing, for instance with md5sum. It takes about 17 s on a
2-CPU Xeon host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparseattn as sa  # noqa: E402
from sparseattn.baseline import baseline_forward  # noqa: E402
from sparseattn.model import checkpoint_bytes, model_forward  # noqa: E402
from sparseattn.train import EVAL_CHUNK, stack_images  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_sha(named) -> str:
    h = hashlib.sha256()
    for name, t in named:
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def _logits_sha(forward, test_set) -> tuple[str, str]:
    """SHA-256 of the logits forward(B×H×W tensor) gives over the test set
    in chunks of EVAL_CHUNK images, and over its first 10 images at B=1."""
    chunks = [test_set[i:i + EVAL_CHUNK] for i in range(0, len(test_set), EVAL_CHUNK)]
    return tuple(_sha(b"".join(forward(stack_images(batch)).data.tobytes() for batch in batches))
                 for batches in (chunks, [[s] for s in test_set[:10]]))


def fixture(seed: int = 42, image_size: int = 32, samples_per_class: int = 300,
            epochs: int = 28, k_init: int = 512, k_min: int = 160):
    """The acceptance fixture's split, untrained model and config; the
    defaults are its settings. Returns (train_set, test_set, model, config)."""
    spec = sa.SyntheticSpec(image_size=image_size, seed=seed, noise_sigma=0.05,
                            samples_per_class=samples_per_class)
    train_set, test_set = sa.split(sa.generate(spec), 0.8, seed=seed)
    model = sa.build_model(seed=seed, image_shape=(image_size, image_size), class_count=3,
                           hidden=32, dim=4, heads=2, k_init=k_init, k_min=k_min)
    config = sa.TrainConfig(epochs=epochs, batch_size=32, seed=seed, learning_rate=3e-3)
    return train_set, test_set, model, config


def fingerprint(seed: int = 42, image_size: int = 32, samples_per_class: int = 300,
                epochs: int = 28, baseline_epochs: int = 3, k_init: int = 512,
                k_min: int = 160) -> dict:
    """Hashes and reports of one sparse and one dense training run; the
    defaults are the acceptance fixture's settings."""
    train_set, test_set, model, config = fixture(seed, image_size, samples_per_class,
                                                 epochs, k_init, k_min)
    model, logs = sa.train(model, train_set, config)
    shape = (image_size, image_size)
    net, dense_logs = sa.train_baseline(sa.build_baseline(seed, shape, 3), train_set,
                                        dataclasses.replace(config, epochs=baseline_epochs))
    sparse_logits = _logits_sha(lambda x: model_forward(model, x, model.controller.k)[0],
                                test_set)
    dense_logits = _logits_sha(lambda x: baseline_forward(net, x), test_set)
    return {
        "sparse": {
            "logs_sha": _sha(repr(logs).encode()),
            "params_sha": _params_sha(model.params()),
            "ckpt_sha": _sha(checkpoint_bytes(model)),
            "k": model.controller.k,
            "eval": repr(sa.evaluate(model, test_set)),
            "chunk_logits_sha": sparse_logits[0],
            "single_logits_sha": sparse_logits[1],
        },
        "baseline": {
            "logs_sha": _sha(repr(dense_logs).encode()),
            "params_sha": _params_sha(net.params()),
            "eval": repr(sa.evaluate_baseline(net, test_set)),
            "chunk_logits_sha": dense_logits[0],
            "single_logits_sha": dense_logits[1],
        },
    }


def differing_keys(first: dict, second: dict) -> list[str]:
    """The "<run>.<key>" names of the entries in which two fingerprints
    differ, a key that only one of them has included."""
    return [f"{run}.{key}" for run in sorted(first.keys() | second.keys())
            for key in sorted(first.get(run, {}).keys() | second.get(run, {}).keys())
            if first.get(run, {}).get(key) != second.get(run, {}).get(key)]


def _at_threads(threads: int) -> subprocess.Popen:
    """A child process that prints fingerprint() as JSON at that many BLAS
    threads, read from the environment when the child loads numpy."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import fingerprint; "
            "print(json.dumps(fingerprint.fingerprint(), indent=1))")
    return subprocess.Popen([sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
                            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
                            stdout=subprocess.PIPE, text=True)


if __name__ == "__main__":
    children = [_at_threads(1), _at_threads(2)]
    outputs = [child.communicate()[0] for child in children]
    for child in children:
        if child.returncode:
            sys.exit(child.returncode)
    sys.stdout.write(outputs[0])
    differ = differing_keys(*(json.loads(out) for out in outputs))
    if differ:
        sys.exit(f"1 and 2 BLAS threads disagree on: {', '.join(differ)}")
