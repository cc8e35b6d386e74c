"""Coarse saliency net: map range, pooled features, and gradient paths."""

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.coarse import CoarseNet, coarse_forward
from sparseattn.losses import LossConfig, total_loss
from sparseattn.tensor import DimensionError, GradientTape, Tensor, reshape


def make_net(seed=0):
    return CoarseNet(np.random.default_rng(seed))


class TestCoarseForward:
    def test_zero_image_zero_bias_gives_half(self):
        net = make_net()
        net.conv2_b.data = np.zeros(1)
        out = coarse_forward(net, Tensor(np.zeros((8, 8))))
        np.testing.assert_allclose(out.attention_map.data, 0.5)

    def test_map_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        net = make_net(1)
        for _ in range(5):
            out = coarse_forward(net, Tensor(rng.uniform(0, 1, (16, 16))))
            assert out.attention_map.data.min() > 0.0
            assert out.attention_map.data.max() < 1.0

    def test_shapes_for_32x32(self):
        out = coarse_forward(make_net(), Tensor(np.zeros((1, 32, 32))))
        assert out.z_coarse.data.shape == (8,)
        assert out.attention_map.data.shape == (32, 32)
        assert out.pre_sigmoid.data.shape == (32, 32)

    def test_map_is_sigmoid_of_pre_exactly(self):
        from sparseattn.tensor import sigmoid
        rng = np.random.default_rng(9)
        out = coarse_forward(make_net(2), Tensor(rng.uniform(0, 1, (12, 12))))
        expected = sigmoid(out.pre_sigmoid).data
        np.testing.assert_array_equal(out.attention_map.data, expected)

    def test_rejects_multichannel_input(self):
        with pytest.raises(DimensionError):
            coarse_forward(make_net(), Tensor(np.zeros((3, 8, 8))))

    def test_constant_image_pool_is_permutation_invariant(self):
        net = make_net(3)
        img = np.full((10, 10), 0.4)
        base = coarse_forward(net, Tensor(img)).z_coarse.data
        perm = np.random.default_rng(0).permutation(100).reshape(10, 10)
        again = coarse_forward(net, Tensor(img.ravel()[perm])).z_coarse.data
        np.testing.assert_array_equal(base, again)

    def test_pool_equals_spatial_mean_of_intermediate(self):
        """z_coarse is the per-channel spatial mean of the post-ReLU map."""
        net = make_net(4)
        rng = np.random.default_rng(6)
        img = Tensor(rng.uniform(0, 1, (9, 9)))
        out = coarse_forward(net, img)
        # recompute the intermediate map by hand
        from sparseattn.coarse import AFFINE_DIVISOR
        from sparseattn.tensor import affine, conv2d, div, relu
        h = conv2d(reshape(img, (1, 9, 9)), net.conv1_w, net.conv1_b, 1)
        per_channel = (net.channels, 1, 1)
        scale = reshape(div(net.bn_gamma, AFFINE_DIVISOR), per_channel)
        a = relu(affine(h, scale, reshape(net.bn_beta, per_channel))).data
        np.testing.assert_allclose(out.z_coarse.data, a.mean(axis=(1, 2)), atol=1e-12)


class TestGradientPaths:
    def test_conv1_receives_gradient_with_distillation_active(self):
        """Selection carries no gradient, but fusion and distillation do."""
        model = sa.build_model(seed=2, image_shape=(12, 12), class_count=3,
                               hidden=8, k_init=10, k_min=4)
        img = Tensor(np.random.default_rng(1).uniform(0, 1, (12, 12)))
        cfg = LossConfig(lambda_distill=0.5)
        tape = GradientTape()
        tape.watch(*[t for _, t in model.params()])
        logits, diag = sa.model_forward(model, img, k=10)
        report = total_loss(reshape(logits, (1, 3)), [1], None,
                            (diag.coarse.attention_map,
                             diag.fine.pixel_importance, diag.pixels), cfg)
        tape.backward(report.total_tensor)
        assert np.abs(model.coarse.conv1_w.grad).sum() > 0

    def test_conv2_gradient_comes_only_from_distillation(self):
        model = sa.build_model(seed=2, image_shape=(12, 12), class_count=3,
                               hidden=8, k_init=10, k_min=4)
        img = Tensor(np.random.default_rng(1).uniform(0, 1, (12, 12)))
        tape = GradientTape()
        tape.watch(*[t for _, t in model.params()])
        logits, diag = sa.model_forward(model, img, k=10)
        report = total_loss(reshape(logits, (1, 3)), [1], None,
                            (diag.coarse.attention_map,
                             diag.fine.pixel_importance, diag.pixels),
                            LossConfig(lambda_distill=0.0))
        tape.backward(report.total_tensor)
        np.testing.assert_array_equal(model.coarse.conv2_w.grad, 0.0)
