"""Dense baseline: forward contract, overfit sanity, cost comparison,
and checkpoint round trip.
"""

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.baseline import (
    baseline_checkpoint_bytes,
    baseline_cost,
    baseline_forward,
    baseline_from_bytes,
    build_baseline,
    evaluate_baseline,
    train_baseline,
)
from sparseattn.tensor import Tensor
from sparseattn.train import TrainConfig


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


def test_baseline_checkpoint_round_trip():
    net = build_baseline(7, (16, 16), 3)
    blob = baseline_checkpoint_bytes(net)
    back = baseline_from_bytes(blob)
    assert baseline_checkpoint_bytes(back) == blob
    img = Tensor(np.random.default_rng(2).uniform(0, 1, (16, 16)))
    np.testing.assert_array_equal(baseline_forward(net, img).data,
                                  baseline_forward(back, img).data)
