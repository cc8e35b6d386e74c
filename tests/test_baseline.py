"""Dense baseline: forward contract, chunked training step against the
per-image loop, tape cost, overfit sanity, cost comparison against the
executed multiplies, and checkpoint round trip.
"""

import importlib
import math

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.baseline import (
    TRAIN_CHUNK,
    baseline_checkpoint_bytes,
    baseline_cost,
    baseline_forward,
    baseline_from_bytes,
    build_baseline,
    evaluate_baseline,
    train_baseline,
)
from sparseattn.losses import focal_loss
from sparseattn.tensor import GradientTape, Tensor, concat
from sparseattn.train import TrainConfig

baseline_module = importlib.import_module("sparseattn.baseline")


class TestBaselineForward:
    def test_logits_length(self):
        net = build_baseline(0, (16, 16), 3)
        img = Tensor(np.random.default_rng(0).uniform(0, 1, (16, 16)))
        assert baseline_forward(net, img).data.shape == (3,)

    def test_deterministic(self):
        net = build_baseline(1, (16, 16), 3)
        img = Tensor(np.random.default_rng(1).uniform(0, 1, (16, 16)))
        a = baseline_forward(net, img).data.tobytes()
        b = baseline_forward(net, img).data.tobytes()
        assert a == b

    def test_shape_must_divide_by_four(self):
        for shape in ((10, 10), (-4, -4), (0, 8)):
            with pytest.raises(ValueError):
                build_baseline(0, shape, 3)


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return diff / scale if scale > 0 else diff


def taped_step(net, step):
    """(logits, loss, parameter gradients) of step() recorded on a tape."""
    tape = GradientTape()
    tape.watch(*[t for _, t in net.params()])
    logits, loss = step()
    tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in net.params()}
    for _, t in net.params():
        t.grad = None
    return logits.data, loss.item(), grads


def per_image_step(net, batch, cfg):
    """The oracle: one forward per image, concatenated, then one focal loss."""
    logits = concat([baseline_forward(net, Tensor(s.pixels.data[None])) for s in batch], axis=0)
    return logits, focal_loss(logits, [s.label for s in batch], cfg)


class TestChunkedStep:
    """A training step forwards TRAIN_CHUNK stacked images at a time."""

    @pytest.fixture(scope="class")
    def data(self):
        return sa.generate(sa.SyntheticSpec(image_size=16, seed=8, samples_per_class=11))

    @pytest.mark.parametrize("size", [1, 4, 7, 32])
    def test_matches_the_per_image_loop(self, data, size, monkeypatch):
        """Logits, loss and every parameter gradient, with a one-image
        chunk (1), whole chunks (4, 32) and a short last chunk (7)."""
        net = build_baseline(8, (16, 16), 3)
        cfg = TrainConfig().loss
        batch = data[:size]
        captured = {}

        def recorded_focal(logits, labels, loss_cfg):
            captured["logits"] = logits
            return focal_loss(logits, labels, loss_cfg)

        def chunked():
            report, _ = baseline_module._batch_report(net, batch, cfg)
            return captured["logits"], report.total_tensor

        monkeypatch.setattr(baseline_module, "focal_loss", recorded_focal)

        got_logits, got_loss, got_grads = taped_step(net, chunked)
        want_logits, want_loss, want_grads = taped_step(
            net, lambda: per_image_step(net, batch, cfg))
        assert got_logits.shape == (size, 3)
        assert rel_err(got_logits, want_logits) <= 1e-12
        assert rel_err(got_loss, want_loss) <= 1e-12
        for name, want in want_grads.items():
            assert rel_err(got_grads[name], want) <= 1e-12, name


class TestTapeCost:
    def step_ops(self, net, batch):
        tape = GradientTape()
        tape.watch(*[t for _, t in net.params()])
        report, _ = baseline_module._batch_report(net, batch, TrainConfig().loss)
        ops = len(tape._ops)
        tape.backward(report.total_tensor)
        for _, t in net.params():
            t.grad = None
        return ops

    def test_ops_grow_with_chunks_not_images(self):
        """A step records 9 ops per chunk of TRAIN_CHUNK images plus 10 for
        the concatenation and the loss, so an op added to the step fails here."""
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=9, samples_per_class=11))
        net = build_baseline(9, (16, 16), 3)
        ops = {size: self.step_ops(net, data[:size]) for size in (5, 7, 8, 32)}
        assert ops[32] == 82
        assert ops[7] == 28
        assert ops[5] == ops[7] == ops[8]       # the same ⌈B / TRAIN_CHUNK⌉
        assert ops[32] - ops[8] == 9 * (math.ceil(32 / TRAIN_CHUNK) - math.ceil(8 / TRAIN_CHUNK))


def test_single_sample_overfit():
    data = sa.generate(sa.SyntheticSpec(image_size=16, seed=4, samples_per_class=1))
    net = build_baseline(4, (16, 16), 3)
    net, logs = train_baseline(net, data, TrainConfig(
        epochs=200, batch_size=3, seed=4, learning_rate=3e-3, val_fraction=0.0))
    correct = sum(int(np.argmax(baseline_forward(net, s.pixels).data)) == s.label
                  for s in data)
    assert correct == 3


def test_split_that_leaves_nothing_to_fit_is_rejected():
    data = sa.generate(sa.SyntheticSpec(image_size=16, seed=5, samples_per_class=4))
    with pytest.raises(ValueError, match="no image to fit"):
        train_baseline(build_baseline(5, (16, 16), 3), data,
                       TrainConfig(epochs=1, batch_size=4, val_fraction=0.9))


def test_metrics_report_same_contract_as_sparse():
    data = sa.generate(sa.SyntheticSpec(image_size=16, seed=5, samples_per_class=4))
    net = build_baseline(5, (16, 16), 3)
    rep = evaluate_baseline(net, data)
    assert [sum(row) for row in rep.confusion] == [4, 4, 4]
    assert rep.k_percent == 100.0


def test_baseline_cost_direction():
    """The dense net out-costs the sparse model at the default desk scale."""
    net = build_baseline(0, (32, 32), 3)
    dense = baseline_cost(net)
    sparse_model = sa.build_model(seed=0, image_shape=(32, 32), class_count=3,
                                  hidden=32, k_init=160, k_min=160)
    from sparseattn.cost import count_cost
    sparse = count_cost(sparse_model, (32, 32), 160)
    assert dense.total_flops > sparse.total_flops
    assert dense.parameters > sparse.parameters
    assert dense.stage_flops["conv2"] > dense.stage_flops["conv1"]


@pytest.mark.parametrize("size,classes", [(16, 3), (16, 5), (32, 3), (32, 5)])
def test_baseline_cost_counts_the_executed_multiplies(monkeypatch, size, classes):
    """Each stage of baseline_cost equals the multiplies one tape-free
    forward runs in that stage's conv2d or matmul, per image."""
    executed = []

    def counted(fn, multiplies):
        def wrapper(*args):
            executed.append(multiplies(*[a.data.shape for a in args[:2]]))
            return fn(*args)
        return wrapper

    def conv_multiplies(x, kernel):
        b, c_in, h, w = x
        c_out, _, k, _ = kernel
        return b * h * w * c_in * k * k * c_out

    def matmul_multiplies(a, b):
        return a[0] * a[1] * b[1]

    monkeypatch.setattr(baseline_module, "conv2d",
                        counted(baseline_module.conv2d, conv_multiplies))
    monkeypatch.setattr(baseline_module, "matmul",
                        counted(baseline_module.matmul, matmul_multiplies))
    net = build_baseline(3, (size, size), classes)
    batch = 2
    images = Tensor(np.random.default_rng(3).uniform(0, 1, (batch, size, size)))
    assert baseline_forward(net, images).data.shape == (batch, classes)
    stages = baseline_cost(net).stage_flops
    assert list(stages) == ["conv1", "conv2", "head"]
    assert [m // batch for m in executed] == list(stages.values())


def test_baseline_checkpoint_round_trip():
    net = build_baseline(7, (16, 16), 3)
    blob = baseline_checkpoint_bytes(net)
    back = baseline_from_bytes(blob)
    assert baseline_checkpoint_bytes(back) == blob
    img = Tensor(np.random.default_rng(2).uniform(0, 1, (16, 16)))
    np.testing.assert_array_equal(baseline_forward(net, img).data,
                                  baseline_forward(back, img).data)
