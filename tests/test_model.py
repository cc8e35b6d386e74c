"""Model assembly: fusion, forward contracts, prediction, checkpoints."""

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.model import (
    build_model,
    checkpoint_bytes,
    model_from_bytes,
    model_forward,
    predict,
    restore_model,
)
from sparseattn.tensor import GradientTape, Tensor, concat, reduce_sum, mul


def small_model(seed=0, shape=(12, 12), hidden=8, **kw):
    return build_model(seed=seed, image_shape=shape, class_count=3,
                       hidden=hidden, k_init=16, k_min=4, **kw)


def rand_image(shape=(12, 12), seed=0):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


class TestFuse:
    def test_concatenation_order_and_length(self):
        out = concat([Tensor([1.0, 2.0, 3.0, 4.0]), Tensor(np.arange(8.0))], axis=-1)
        assert out.data.shape == (12,)
        np.testing.assert_array_equal(out.data[:4], [1, 2, 3, 4])
        np.testing.assert_array_equal(out.data[4:], np.arange(8.0))

    def test_zero_fine_keeps_first_slots_zero(self):
        out = concat([Tensor(np.zeros(4)), Tensor(np.ones(8))], axis=-1)
        np.testing.assert_array_equal(out.data[:4], 0.0)

    def test_gradient_splits_by_slice(self):
        tape = GradientTape()
        zf = Tensor([1.0, 2.0])
        zc = Tensor([3.0, 4.0, 5.0])
        tape.watch(zf, zc)
        fused = concat([zf, zc], axis=-1)
        weights = Tensor([10.0, 20.0, 1.0, 2.0, 3.0])
        tape.backward(reduce_sum(mul(fused, weights)))
        np.testing.assert_array_equal(zf.grad, [10.0, 20.0])
        np.testing.assert_array_equal(zc.grad, [1.0, 2.0, 3.0])


class TestModelForward:
    def test_logit_length_is_class_count(self):
        m = small_model()
        logits, _ = model_forward(m, rand_image(), k=10)
        assert logits.data.shape == (3,)

    def test_zero_classifier_head_gives_bias_logits(self):
        m = small_model(1)
        m.classifier.w_out.data = np.zeros_like(m.classifier.w_out.data)
        m.classifier.b_out.data = np.array([0.5, -1.0, 2.0])
        for seed in range(3):
            logits, _ = model_forward(m, rand_image(seed=seed), k=8)
            np.testing.assert_array_equal(logits.data, [0.5, -1.0, 2.0])

    def test_deterministic_on_frozen_state(self):
        m = small_model(2)
        img = rand_image(seed=5)
        a, _ = model_forward(m, img, k=12)
        b, _ = model_forward(m, img, k=12)
        assert a.data.tobytes() == b.data.tobytes()

    def test_k_changes_values_never_shapes(self):
        m = small_model(3)
        img = rand_image(seed=7)
        small, _ = model_forward(m, img, k=4)
        full, _ = model_forward(m, img, k=144)
        assert small.data.shape == full.data.shape == (3,)

    def test_diagnostics_contents(self):
        m = small_model(4)
        logits, diag = model_forward(m, rand_image(seed=2), k=9)
        assert len(diag.pixels) == 9
        assert diag.coarse.attention_map.data.shape == (12, 12)
        assert diag.fine.pixel_importance.data.shape == (10,)


class TestPredict:
    def test_argmax(self):
        m = small_model(5)
        m.classifier.w_out.data = np.zeros_like(m.classifier.w_out.data)
        m.classifier.b_out.data = np.array([0.1, 0.9, 0.3])
        assert predict(m, rand_image(seed=1)) == 1

    def test_tie_goes_to_lowest_index(self):
        m = small_model(6)
        m.classifier.w_out.data = np.zeros_like(m.classifier.w_out.data)
        m.classifier.b_out.data = np.array([0.5, 0.5, 0.1])
        assert predict(m, rand_image(seed=2)) == 0

    def test_constant_bias_classifier_predicts_one_class(self):
        m = small_model(7)
        m.classifier.w_out.data = np.zeros_like(m.classifier.w_out.data)
        m.classifier.b_out.data = np.array([0.0, 0.0, 3.0])
        preds = {predict(m, rand_image(seed=s)) for s in range(5)}
        assert preds == {2}

    def test_argmax_invariant_to_constant_logit_shift(self):
        m = small_model(8)
        img = rand_image(seed=9)
        logits, _ = model_forward(m, img, m.controller.k)
        shifted = logits.data + 123.0
        assert int(np.argmax(shifted)) == predict(m, img)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        m = small_model(9, hidden=16)
        blob = checkpoint_bytes(m)
        again = checkpoint_bytes(model_from_bytes(blob))
        assert blob == again

    def test_round_trip_preserves_forward(self):
        m = small_model(10)
        img = rand_image(seed=3)
        want, _ = model_forward(m, img, m.controller.k)
        back = model_from_bytes(checkpoint_bytes(m))
        got, _ = model_forward(back, img, back.controller.k)
        assert want.data.tobytes() == got.data.tobytes()

    def test_controller_state_preserved(self):
        from sparseattn.selector import update_k
        m = small_model(11)
        update_k(m.controller, 1.0)
        update_k(m.controller, 0.5)
        back = model_from_bytes(checkpoint_bytes(m))
        assert back.controller == m.controller

    def test_restore_in_place(self):
        m = small_model(12)
        blob = checkpoint_bytes(m)
        m.classifier.b_out.data = m.classifier.b_out.data + 5.0
        restore_model(m, blob)
        assert checkpoint_bytes(m) == blob

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            model_from_bytes(b"JUNK" + b"\x00" * 32)

    def test_load_and_save_round_trip(self, tmp_path):
        m = small_model(13)
        sa.save_model(m, tmp_path / "m.satm")
        assert checkpoint_bytes(sa.load_model(tmp_path / "m.satm")) == checkpoint_bytes(m)

    def test_load_missing_checkpoint_is_a_data_error(self, tmp_path):
        with pytest.raises(sa.DatasetError, match="checkpoint not found"):
            sa.load_model(tmp_path / "none.satm")

    def test_load_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(sa.DatasetError, match=r"checkpoint unreadable \(Is a directory\)"):
            sa.load_model(tmp_path)


class TestEndToEndGradients:
    def test_full_model_grad_check_running_stats_mode(self):
        """Every parameter within 1e-4 of central differences on an 8x8
        image at k=4, with selection and the distillation target frozen."""
        from conftest import param_grad_errors
        from sparseattn.losses import LossConfig, distill_target
        from sparseattn.tensor import reshape

        m = build_model(seed=17, image_shape=(8, 8), class_count=3,
                        hidden=8, k_init=4, k_min=2)
        img = rand_image((8, 8), seed=11)
        cfg = LossConfig(gamma=2.0, lambda_contrast=0.1, lambda_distill=0.5)
        _, diag0 = model_forward(m, img, k=4)
        frozen_pixels = diag0.pixels
        frozen_target = distill_target(diag0.fine.pixel_importance, 4, cfg.emphasis)

        from sparseattn.coarse import coarse_forward
        from sparseattn.embedding import embed_pixels
        from sparseattn.fine import fine_forward
        from sparseattn.model import classifier_forward
        from sparseattn.losses import distill_loss, focal_loss
        from sparseattn.tensor import add, mul as tmul

        def loss():
            co = coarse_forward(m.coarse, img)
            tokens = embed_pixels(m.embedder, frozen_pixels.triplets)
            fo = fine_forward(m.fine, tokens)
            logits = classifier_forward(m.classifier, concat([fo.z_fine, co.z_coarse], axis=-1))
            f = focal_loss(reshape(logits, (1, 3)), [1], cfg)
            d = distill_loss(co.attention_map, fo.pixel_importance,
                             frozen_pixels, cfg, target=frozen_target)
            return add(f, tmul(d, cfg.lambda_distill))

        errors = param_grad_errors(m.params(), loss)
        for name, err in errors.items():
            assert err <= 1e-4, f"{name}: {err}"

    def test_parameters_finite_after_training_steps(self):
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=3,
                                            samples_per_class=4))
        m = build_model(seed=4, image_shape=(16, 16), class_count=3,
                        hidden=8, k_init=30, k_min=10)
        m, _ = sa.train(m, data, sa.TrainConfig(epochs=2, batch_size=6, seed=4))
        for name, t in m.params():
            assert np.all(np.isfinite(t.data)), name
