"""Model assembly: fusion, forward contracts, prediction, checkpoints."""

import re

import numpy as np
import pytest

import sparseattn as sa
import sparseattn.model as model_module
from sparseattn.coarse import AFFINE_DIVISOR, affine_relu, affine_relu_arrays
from sparseattn.model import (
    Classifier,
    build_model,
    checkpoint_bytes,
    classifier_forward,
    model_from_bytes,
    model_forward,
    predict,
    restore_model,
)
from sparseattn.tensor import (
    DimensionError,
    GradientTape,
    Tensor,
    add,
    concat,
    div,
    grad_check,
    matmul,
    mul,
    reduce_sum,
    relu,
    reshape,
)


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


def chained_classifier_forward(clf, fused):
    """classifier_forward with each block's affine and ReLU as the separate
    div, mul, add and relu ops: the oracle for the shared affine_relu."""
    lead = fused.data.shape[:-1]
    h = add(matmul(reshape(fused, (-1, clf.in_dim)), clf.w_in), clf.b_in)
    for blk in clf.block:
        t = add(matmul(h, blk.w1), blk.b1)
        r = relu(add(mul(t, div(blk.gamma, AFFINE_DIVISOR)), blk.beta))
        h = add(h, add(matmul(r, blk.w2), blk.b2))
    return reshape(add(matmul(h, clf.w_out), clf.b_out), lead + (clf.classes,))


def varied_classifier(seed, hidden, in_dim=12, classes=3):
    """A classifier whose biases, gains and shifts are all non-trivial, with
    some negative gains, so each block's ReLU mask differs from unit to unit."""
    clf = Classifier(np.random.default_rng(seed), in_dim=in_dim, hidden=hidden,
                     classes=classes)
    rng = np.random.default_rng(seed + 100)
    for blk in clf.block:
        blk.b1.data = rng.normal(0, 0.3, hidden)
        blk.gamma.data = rng.normal(0.8, 0.6, hidden)
        blk.beta.data = rng.normal(0, 0.3, hidden)
        blk.b2.data = rng.normal(0, 0.3, hidden)
    return clf


class TestClassifierAffineRelu:
    """Each classifier block runs the array code of the coarse net's
    affine_relu, and the classifier equals the div → mul → add → relu chain
    bit for bit, forward and backward."""

    @staticmethod
    def fused_input(batch, in_dim=12):
        """One fused vector for B = 1, the predict() case; a B×in_dim batch
        otherwise."""
        shape = (in_dim,) if batch == 1 else (batch, in_dim)
        return np.random.default_rng(batch).normal(0, 1, shape)

    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_tape_free_logits_equal_the_chain(self, batch, hidden):
        clf = varied_classifier(batch, hidden)
        x = self.fused_input(batch)
        got = classifier_forward(clf, Tensor(x)).data
        want = chained_classifier_forward(clf, Tensor(x)).data
        assert got.shape == x.shape[:-1] + (3,)
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def taped_run(clf, forward, x, weights):
        """Logits and the gradients of every parameter and of the input for
        a loss that weighs the logits by fixed random numbers."""
        tape = GradientTape()
        fused = Tensor(x)
        named = clf.params() + [("input", fused)]
        tape.watch(*[t for _, t in named])
        logits = forward(clf, fused)
        tape.backward(reduce_sum(mul(logits, weights)))
        grads = {name: t.grad for name, t in named}
        for _, t in named:
            t.grad = None
        return logits.data, grads

    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_taped_logits_and_gradients_equal_the_chain(self, batch, hidden):
        clf = varied_classifier(batch + 1, hidden)
        x = self.fused_input(batch)
        weights = np.random.default_rng(batch + 7).normal(0, 1, x.shape[:-1] + (3,))
        got = self.taped_run(clf, classifier_forward, x, weights)
        want = self.taped_run(clf, chained_classifier_forward, x, weights)
        np.testing.assert_array_equal(got[0], want[0])
        assert set(got[1]) == set(want[1])
        for name in got[1]:
            np.testing.assert_array_equal(got[1][name], want[1][name], err_msg=name)
        for i in range(Classifier.block_count):
            assert np.abs(got[1][f"block{i}.gamma"]).sum() > 0

    def test_matches_central_differences_on_a_matrix(self):
        """x, gamma and beta of a B×C input. x is fed as a fresh sum, as the
        classifier feeds it, because a tape-free call writes into x."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(0, 1, (5, 6)))
        gamma = Tensor(rng.normal(0.5, 0.8, 6))
        beta = Tensor(rng.normal(0, 0.5, 6))
        w = rng.normal(0, 1, (5, 6))

        def loss(x_, gamma_, beta_):
            return reduce_sum(mul(affine_relu(add(x_, 0.0), gamma_, beta_), w))

        pre = x.data * gamma.data / AFFINE_DIVISOR + beta.data
        assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3
        assert grad_check(lambda t: loss(t, gamma, beta), x) <= 1e-6
        assert grad_check(lambda t: loss(x, t, beta), gamma) <= 1e-6
        assert grad_check(lambda t: loss(x, gamma, t), beta) <= 1e-6

    def test_tape_free_call_overwrites_only_the_fresh_product(self, monkeypatch):
        """Tape-free, each block's ReLU output is its w1 product's own buffer,
        and neither a parameter nor the input changes; taped, the product
        stays as it was, for gamma's gradient."""
        clf = varied_classifier(4, 8)
        x = Tensor(self.fused_input(8))
        calls = []

        def spy(t, gamma, beta, keep_x):
            before = t.copy()
            out, mask = affine_relu_arrays(t, gamma, beta, keep_x)
            calls.append((t, before, out))
            return out, mask

        monkeypatch.setattr(model_module, "affine_relu_arrays", spy)
        params = {name: t.data.copy() for name, t in clf.params()}
        fused = x.data.copy()
        classifier_forward(clf, x)
        assert len(calls) == Classifier.block_count
        for product, _, out in calls:
            assert np.shares_memory(product, out)
        np.testing.assert_array_equal(x.data, fused)
        for name, t in clf.params():
            np.testing.assert_array_equal(t.data, params[name], err_msg=name)

        calls.clear()
        tape = GradientTape()
        tape.watch(*[t for _, t in clf.params()])
        classifier_forward(clf, x)
        assert len(calls) == Classifier.block_count
        for product, before, out in calls:
            assert not np.shares_memory(product, out)
            np.testing.assert_array_equal(product, before)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_a_call_records_one_tape_op(self, blocks):
        """The whole classifier, its input and output layers and every
        block, is one tape op."""
        clf = varied_classifier(5, 8)
        clf.block = (clf.block * 2)[:blocks]
        tape = GradientTape()
        tape.watch(*[t for _, t in clf.params()])
        classifier_forward(clf, Tensor(self.fused_input(8)))
        assert len(tape._ops) == 1

    @pytest.mark.parametrize("shape", [(3, 8), (4, 6), (8,), ()])
    def test_input_of_another_width_is_rejected(self, shape):
        """A fused input whose last axis is not in_dim is a DimensionError
        naming both shapes, not a silent re-cut into in_dim-wide rows."""
        clf = varied_classifier(6, 8)
        with pytest.raises(DimensionError, match=re.escape(f"{shape}") + ".*12"):
            classifier_forward(clf, Tensor(np.ones(shape)))


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


# the parameter order of each module: its SATM or SATB record order, its
# AdamW state order and its tape watch order
STAGE_PARAMS = {
    "coarse": ["conv1_w", "conv1_b", "bn_gamma", "bn_beta", "conv2_w", "conv2_b"],
    "embedder": ["w1", "b1", "w2", "b2", "cls_token"],
    "fine": ["w_v", "w_q", "w_k"],
    "classifier": ["w_in", "b_in"]
                  + [f"block{i}.{key}" for i in range(2)
                     for key in ("w1", "b1", "gamma", "beta", "w2", "b2")]
                  + ["w_out", "b_out"],
}


class TestParameterOrder:
    def test_each_stage(self):
        m = small_model()
        for stage, names in STAGE_PARAMS.items():
            assert [n for n, _ in getattr(m, stage).params()] == names

    def test_model_state_prefixes_stages_in_field_order(self):
        m = small_model()
        assert [n for n, _ in m.params()] == [
            f"{stage}.{n}" for stage, names in STAGE_PARAMS.items() for n in names]
        assert [t for _, t in m.params()] == [
            t for stage in STAGE_PARAMS for _, t in getattr(m, stage).params()]
        assert m.param_count() == sum(t.data.size for _, t in m.params())

    def test_baseline(self):
        net = sa.build_baseline(0, (8, 8), 3)
        assert [n for n, _ in net.params()] == [
            "conv1_w", "conv1_b", "conv2_w", "conv2_b", "head_w", "head_b"]
        assert net.param_count() == 16 * 9 + 16 + 32 * 16 * 9 + 32 + 32 * 4 * 3 + 3


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

    @pytest.mark.parametrize("damage", ["half", "prefix-10", "bad-magic"])
    def test_load_damaged_checkpoint_is_a_data_error(self, tmp_path, damage):
        """A SATM cut to half its length or to 10 bytes, or with another
        magic, raises DatasetError naming the file, as `sparseattn eval`
        reports it."""
        data = checkpoint_bytes(small_model(14))
        path = tmp_path / "m.satm"
        path.write_bytes({"half": data[:len(data) // 2], "prefix-10": data[:10],
                          "bad-magic": b"JUNK" + data[4:]}[damage])
        with pytest.raises(sa.DatasetError,
                           match=re.escape(f"{path}: corrupt or truncated checkpoint")):
            sa.load_model(path)


class TestEndToEndGradients:
    def test_full_model_grad_check_running_stats_mode(self):
        """Every parameter within 1e-4 of central differences on an 8x8
        image at k=4, with selection and the distillation target frozen."""
        from conftest import param_grad_errors
        from sparseattn.losses import LossConfig
        from sparseattn.tensor import reshape

        m = build_model(seed=17, image_shape=(8, 8), class_count=3,
                        hidden=8, k_init=4, k_min=2)
        img = rand_image((8, 8), seed=11)
        cfg = LossConfig(gamma=2.0, lambda_contrast=0.1, lambda_distill=0.5)
        _, diag0 = model_forward(m, img, k=4)
        frozen_pixels = diag0.pixels
        frozen_importance = Tensor(diag0.fine.pixel_importance.data.copy())

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
            d = distill_loss(co.attention_map, frozen_importance, frozen_pixels, cfg)
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
