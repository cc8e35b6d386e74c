"""Joint pixel embedding and CLS token handling."""

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.embedding import Embedder, embed_pixels
from sparseattn.tensor import GradientTape, reduce_sum, mul


def px(x, y, v):
    return (x, y, v)


def make_embedder(seed=0, dim=4):
    return Embedder(np.random.default_rng(seed), dim=dim)


class TestEmbedPixels:
    def test_output_shape(self):
        out = embed_pixels(make_embedder(), [px(0.1, 0.2, 0.3)] * 3)
        assert out.data.shape == (4, 4)

    def test_zero_weights_give_bias_rows(self):
        emb = make_embedder()
        emb.w1.data = np.zeros_like(emb.w1.data)
        emb.w2.data = np.zeros_like(emb.w2.data)
        emb.b2.data = np.array([1.0, 2.0, 3.0, 4.0])
        out = embed_pixels(emb, [px(0.9, 0.1, 0.5), px(0.0, 0.0, 0.0)])
        np.testing.assert_array_equal(out.data[0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out.data[1], [1.0, 2.0, 3.0, 4.0])

    def test_identical_pixels_identical_rows(self):
        out = embed_pixels(make_embedder(3), [px(0.4, 0.6, 0.2), px(0.4, 0.6, 0.2)])
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_last_row_is_cls_token(self):
        emb = make_embedder(1)
        out = embed_pixels(emb, [px(0.5, 0.5, 0.5)])
        np.testing.assert_array_equal(out.data[-1], emb.cls_token.data)

    def test_empty_pixel_list_rejected(self):
        with pytest.raises(ValueError):
            embed_pixels(make_embedder(), np.zeros((0, 3)))

    def test_permuting_pixels_permutes_rows(self):
        emb = make_embedder(5)
        pixels = [px(0.1, 0.9, 0.3), px(0.7, 0.2, 0.8), px(0.5, 0.5, 0.1)]
        base = embed_pixels(emb, pixels).data
        perm = embed_pixels(emb, [pixels[2], pixels[0], pixels[1]]).data
        np.testing.assert_array_equal(perm[0], base[2])
        np.testing.assert_array_equal(perm[1], base[0])
        np.testing.assert_array_equal(perm[2], base[1])
        np.testing.assert_array_equal(perm[3], base[3])   # CLS row fixed

    def test_cls_token_receives_gradient(self):
        emb = make_embedder(7)
        tape = GradientTape()
        tape.watch(*[t for _, t in emb.params()])
        out = embed_pixels(emb, [px(0.2, 0.3, 0.4)])
        tape.backward(reduce_sum(mul(out, out)))
        assert np.abs(emb.cls_token.grad).sum() > 0


def test_joint_encoding_is_not_additive_after_training():
    """There is a triplet where f(x,y,v) != f(x,0,0)+f(0,y,0)+f(0,0,v)."""
    data = sa.generate(sa.SyntheticSpec(image_size=16, seed=5, samples_per_class=4))
    model = sa.build_model(seed=5, image_shape=(16, 16), class_count=3,
                           hidden=8, k_init=40, k_min=20)
    model, _ = sa.train(model, data, sa.TrainConfig(epochs=3, batch_size=6, seed=5))
    emb = model.embedder

    def f(x, y, v):
        return embed_pixels(emb, [px(x, y, v)]).data[0]

    witnesses = [(0.3, 0.7, 0.9), (0.8, 0.2, 0.4), (0.5, 0.5, 0.5)]
    gaps = [np.abs(f(x, y, v) - (f(x, 0, 0) + f(0, y, 0) + f(0, 0, v))).max()
            for x, y, v in witnesses]
    assert max(gaps) > 1e-6
