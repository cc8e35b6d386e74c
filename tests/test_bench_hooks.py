"""The benchmark's tracer reaches into the package by name: every hook it
patches must still exist, and every patched span a workload requires must
still fire. A refactor that breaks the traced benchmark fails here."""

import importlib
import sys
from pathlib import Path

import sparseattn as sa

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_patched_name_resolves():
    for mod_name, attr, _ in bench_tracer.PATCHES:
        assert hasattr(importlib.import_module(mod_name), attr), f"{mod_name}.{attr}"
    for mod_name in bench_tracer.STEP_MODULES:
        assert hasattr(importlib.import_module(mod_name), "GradientTape"), mod_name
    assert callable(importlib.import_module("sparseattn.train").AdamW.step)


def test_required_spans_fire_on_a_tiny_run():
    tracer = bench_tracer.Tracer(trace=True)
    data = sa.generate(sa.SyntheticSpec(image_size=16, seed=3, samples_per_class=4))
    for i, sample in enumerate(data):
        tracer.image_ids[id(sample.pixels.data)] = i
        tracer.masks[id(sample.pixels.data)] = sample.foreground_mask
    config = sa.TrainConfig(epochs=2, batch_size=6, seed=3)
    restore = tracer.install()
    try:
        model = sa.build_model(seed=3, image_shape=(16, 16), class_count=3, hidden=8,
                               k_init=40, k_min=20)
        sa.train(model, data, config)
        sa.evaluate(model, data)
        sa.predict(model, data[0].pixels)
        net = sa.build_baseline(3, (16, 16), 3)
        sa.train_baseline(net, data, config)
        sa.evaluate_baseline(net, data)
    finally:
        restore()

    calls = tracer.calls()
    patched = {span for _, _, span in bench_tracer.PATCHES}
    patched |= {bench_tracer.STEP, "tensor.backward", "train.adamw"}
    for workload, names in workloads.REQUIRED.items():
        for name in names:
            if name in patched:
                assert calls.get(name), f"{name}, required on {workload}, never fired"
    # predict() passes the registered image itself to the selector, whose
    # result the tracer scores against the foreground mask
    hits = [s["hit"] for s in tracer.spans if "hit" in s]
    assert hits and all(0.0 <= h <= 1.0 for h in hits)


def test_fit_images_counts_the_images_fit_trains_on():
    from test_data import fit_parts, interleaved_dataset
    data = interleaved_dataset()
    fit_set, _ = fit_parts(data, workloads.VAL_FRACTION, seed=0)
    assert workloads.fit_images(data) == len(fit_set)
