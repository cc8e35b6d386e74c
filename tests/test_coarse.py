"""Coarse saliency net: map range, pooled features, gradient paths, and the
fused hidden layer against the unfused ops it replaces."""

import tracemalloc

import numpy as np
import pytest

import sparseattn as sa
import sparseattn.coarse as coarse
from sparseattn.coarse import (
    AFFINE_DIVISOR,
    CoarseNet,
    _pooled_mean,
    affine_relu_grads,
    coarse_forward,
)
from sparseattn.losses import LossConfig, total_loss
from sparseattn.tensor import (
    DimensionError,
    GradientTape,
    Tensor,
    add,
    conv2d,
    div,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
)


def make_net(seed=0):
    return CoarseNet(np.random.default_rng(seed))


def hidden_map(net, img):
    """The B×C×H×W post-ReLU map of an H×W image (B = 1) or a B×H×W batch,
    recomputed by hand as the separate conv2d, div, mul, add and relu ops."""
    h = conv2d(reshape(img, (-1, 1) + img.data.shape[-2:]), net.conv1_w, net.conv1_b)
    per_channel = (net.channels, 1, 1)
    scale = reshape(div(net.bn_gamma, AFFINE_DIVISOR), per_channel)
    return relu(add(mul(h, scale), reshape(net.bn_beta, per_channel)))


def unfused_forward(net, img):
    """(attention map, pooled features) of coarse_forward, composed from
    hidden_map and a reduce_mean over the reshaped map: the oracle for the
    fused hidden layer."""
    shape = img.data.shape
    lead, (height, width) = shape[:-2], shape[-2:]
    a = hidden_map(net, img)
    pooled = reduce_mean(reshape(a, (-1, net.channels, height * width)), axis=2)
    f = conv2d(a, net.conv2_w, net.conv2_b)
    return sigmoid(reshape(f, shape)), reshape(pooled, lead + (net.channels,))


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
        out = coarse_forward(make_net(), Tensor(np.zeros((32, 32))))
        assert out.z_coarse.data.shape == (8,)
        assert out.attention_map.data.shape == (32, 32)

    def test_map_is_sigmoid_of_pre_exactly(self):
        rng = np.random.default_rng(9)
        net = make_net(2)
        img = Tensor(rng.uniform(0, 1, (12, 12)))
        out = coarse_forward(net, img)
        pre = conv2d(hidden_map(net, img), net.conv2_w, net.conv2_b).data[0, 0]
        expected = sigmoid(Tensor(pre)).data
        np.testing.assert_array_equal(out.attention_map.data, expected)

    def test_rejects_multichannel_input(self):
        with pytest.raises(DimensionError):
            coarse_forward(make_net(), Tensor(np.zeros((1, 3, 8, 8))))

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
        a = hidden_map(net, img).data[0]
        np.testing.assert_array_equal(out.z_coarse.data, a.mean(axis=(1, 2)))


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
        report = total_loss(reshape(logits, (1, 3)), [1], reshape(diag.fine.z_fine, (1, -1)),
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
        report = total_loss(reshape(logits, (1, 3)), [1], reshape(diag.fine.z_fine, (1, -1)),
                            (diag.coarse.attention_map,
                             diag.fine.pixel_importance, diag.pixels),
                            LossConfig(lambda_distill=0.0))
        tape.backward(report.total_tensor)
        np.testing.assert_array_equal(model.coarse.conv2_w.grad, 0.0)


def varied_net(seed):
    """A net whose biases, gains and shifts are all non-trivial, with some
    negative gains, so the ReLU mask differs from channel to channel."""
    net = make_net(seed)
    rng = np.random.default_rng(seed + 100)
    net.conv1_b.data = rng.normal(0, 0.2, net.channels)
    net.bn_gamma.data = rng.normal(0.8, 0.6, net.channels)
    net.bn_beta.data = rng.normal(0, 0.3, net.channels)
    net.conv2_b.data = rng.normal(0, 0.5, 1)
    return net


class TestFusedHiddenLayer:
    """coarse_forward's one hidden-layer op and pooled mean equal the unfused
    conv2d → mul → add → relu → reduce_mean composition bit for bit, forward
    and backward, tape-free and taped."""

    GRIDS = [(32, 32), (7, 11)]

    @pytest.mark.parametrize("grid", GRIDS, ids=["32x32", "7x11"])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_tape_free_outputs_equal_the_unfused_ops(self, batch, grid):
        net = varied_net(batch)
        img = Tensor(np.random.default_rng(batch).uniform(0, 1, (batch,) + grid))
        out = coarse_forward(net, img)
        want_map, want_pool = unfused_forward(net, img)
        np.testing.assert_array_equal(out.attention_map.data, want_map.data)
        np.testing.assert_array_equal(out.z_coarse.data, want_pool.data)

    @staticmethod
    def taped_run(net, forward, img, weights, terms):
        """Outputs and parameter gradients of a loss that weighs the map, the
        pooled features or both (`terms`) by fixed random arrays."""
        tape = GradientTape()
        named = net.params()
        tape.watch(*[t for _, t in named])
        amap, pooled = forward(net, img)
        parts = {"map": reduce_sum(mul(amap, weights[0])),
                 "pool": reduce_sum(mul(pooled, weights[1]))}
        loss = parts[terms[0]] if len(terms) == 1 else add(parts["map"], parts["pool"])
        tape.backward(loss)
        grads = {name: t.grad for name, t in named}
        for _, t in named:
            t.grad = None
        return amap.data, pooled.data, grads

    @pytest.mark.parametrize("terms", [("map", "pool"), ("map",), ("pool",)],
                             ids=["both", "map-only", "pool-only"])
    @pytest.mark.parametrize("grid", GRIDS, ids=["32x32", "7x11"])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_taped_outputs_and_gradients_equal_the_unfused_ops(self, batch, grid, terms):
        """Every parameter's gradient, conv1_w, conv1_b, bn_gamma and bn_beta
        among them, whether the hidden map's gradient comes from conv2, from
        the pooled mean or from both."""
        net = varied_net(batch + 1)
        rng = np.random.default_rng(batch + 7)
        img = Tensor(rng.uniform(0, 1, (batch,) + grid))
        weights = (rng.normal(0, 1, (batch,) + grid), rng.normal(0, 1, (batch, net.channels)))

        def fused(net, img):
            out = coarse_forward(net, img)
            return out.attention_map, out.z_coarse

        got = self.taped_run(net, fused, img, weights, terms)
        want = self.taped_run(net, unfused_forward, img, weights, terms)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert set(got[2]) == set(want[2])
        for name in got[2]:
            np.testing.assert_array_equal(got[2][name], want[2][name], err_msg=name)
        assert np.abs(got[2]["bn_gamma"]).sum() > 0 and np.abs(got[2]["conv1_b"]).sum() > 0

    def test_tape_free_affine_and_relu_overwrite_the_conv1_output(self, monkeypatch):
        """Tape-free, the hidden map that conv2 reads is conv1's own product
        buffer; taped, conv1's output stays as it was, for bn_gamma's gradient."""
        net = varied_net(3)
        img = Tensor(np.random.default_rng(3).uniform(0, 1, (8, 16, 16)))
        calls = []

        def spy(x, kernel, bias):
            out = conv2d(x, kernel, bias)
            calls.append((x.data, out.data.copy(), out.data))
            return out

        monkeypatch.setattr(coarse, "conv2d", spy)
        coarse_forward(net, img)
        (_, _, conv1_out), (conv2_in, _, _) = calls
        assert np.shares_memory(conv1_out, conv2_in)

        calls.clear()
        tape = GradientTape()
        tape.watch(*[t for _, t in net.params()])
        coarse_forward(net, img)
        (_, before, conv1_out), (conv2_in, _, _) = calls
        assert not np.shares_memory(conv1_out, conv2_in)
        np.testing.assert_array_equal(conv1_out, before)

    def test_tape_free_peak_memory(self):
        """One tape-free forward of 8 images of 32×32 holds at most 2.4
        B×8×H×W buffers at once; 2.26 measured. Its peak is conv1's nine
        window planes (9/8) beside their product (1), or conv2's nine tap
        products (9/8) and their sum (1/8) beside the hidden map (1). An
        affine or ReLU result kept beside the hidden map, or conv2's tap
        sum through strided slices (numpy buffers each of those adds),
        exceeds it."""
        net = varied_net(5)
        img = Tensor(np.random.default_rng(5).uniform(0, 1, (8, 32, 32)))
        coarse_forward(net, img)          # caches the tap slices
        tracemalloc.start()
        try:
            coarse_forward(net, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 8 * net.channels * 32 * 32 * 8


class TestPooledMean:
    """_pooled_mean equals the mean of the map's pixel-major (H·W, B·C)
    copy, byte for byte."""

    @staticmethod
    def pixel_major_mean(m):
        b, c, height, width = m.shape
        n = height * width
        pixels = np.ascontiguousarray(m.transpose(0, 2, 3, 1).reshape(b, n, c).swapaxes(0, 1))
        return pixels.reshape(n, b * c).mean(axis=0).reshape(b, c)

    @pytest.mark.parametrize("channels", [1, 2, 8])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_equals_the_pixel_major_mean(self, batch, channels):
        """At one channel and B ≥ 2, a sum over each image's own pixels would
        be pairwise where the pixel-major one is sequential."""
        rng = np.random.default_rng(batch * 10 + channels)
        shape = (batch, 32, 32, channels)
        m = (rng.normal(0, 1, shape) * 10.0 ** rng.integers(-8, 8, shape)).transpose(0, 3, 1, 2)
        got = _pooled_mean(Tensor(m)).data
        assert got.tobytes() == self.pixel_major_mean(m).tobytes()

    def test_sums_a_c_contiguous_map_in_the_same_order(self):
        m = np.random.default_rng(2).lognormal(0, 6, (4, 3, 9, 7))
        assert _pooled_mean(Tensor(m)).data.tobytes() == self.pixel_major_mean(m).tobytes()


class TestAffineReluGrads:
    @pytest.mark.parametrize("shape", [(5, 6), (2, 6, 4, 3)])
    def test_x_gradient_is_the_scaled_input_buffer(self, shape):
        """The helper reads both channel sums from gm and then scales gm in
        place into x's gradient, bit for bit the out-of-place expressions."""
        rng = np.random.default_rng(len(shape))
        gm, xd = rng.normal(0, 1, shape), rng.normal(0, 1, shape)
        gamma = rng.normal(1, 0.5, 6)
        sd = (gamma / AFFINE_DIVISOR).reshape((6,) + (1,) * (len(shape) - 2))
        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        want = (gm * sd, (gm * xd).sum(axis=axes) / AFFINE_DIVISOR, gm.sum(axis=axes))
        buffer = gm
        got = affine_relu_grads(gm, xd, gamma)
        assert got[0] is buffer
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
