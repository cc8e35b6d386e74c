"""Trainer: optimizer invariants, plateau schedule, metrics arithmetic,
overfit sanity, determinism, and the numeric-abort contract.
"""

import importlib

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.data import DatasetError, LabeledImage
from sparseattn.model import checkpoint_bytes
from sparseattn.tensor import NumericError, Tensor
from sparseattn.train import (
    AdamW,
    PlateauSchedule,
    TrainConfig,
    evaluate,
    metrics_from_confusion,
    train,
)


class TestAdamW:
    def test_decoupled_decay_with_zero_gradients(self):
        """One zero-gradient step shrinks p by exactly lr*wd*p."""
        p = Tensor(np.array([2.0, -3.0, 0.5]))
        opt = AdamW([("p", p)], learning_rate=1e-3, weight_decay=1e-4)
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_allclose(p.data, before - 1e-3 * 1e-4 * before,
                                   atol=1e-12)

    def test_none_gradient_treated_as_zero(self):
        p = Tensor(np.array([1.0]))
        opt = AdamW([("p", p)], learning_rate=1e-2, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_step_count_monotone_and_moments_nonnegative(self):
        p = Tensor(np.array([1.0, 2.0]))
        opt = AdamW([("p", p)], learning_rate=1e-3)
        for i in range(3):
            p.grad = np.array([0.1, -0.2])
            opt.step()
            assert opt.step_count == i + 1
            assert (opt._v["p"] >= 0).all()

    def test_deterministic_given_same_gradients(self):
        def run():
            p = Tensor(np.array([1.0, -1.0]))
            opt = AdamW([("p", p)], learning_rate=1e-3, weight_decay=1e-4)
            rng = np.random.default_rng(8)
            for _ in range(5):
                p.grad = rng.normal(0, 1, 2)
                opt.step()
            return p.data.tobytes()
        assert run() == run()


class TestPlateauSchedule:
    def test_two_triggers_give_factor_squared(self):
        sched = PlateauSchedule(1e-3)
        sched.observe(1.0)                 # sets best
        for _ in range(10):                # ten non-improving epochs
            lr, _ = sched.observe(1.0)
        assert lr == pytest.approx(1e-3 * 0.9 ** 2, rel=1e-12)
        assert lr == pytest.approx(8.1e-4)

    def test_improvement_resets_patience(self):
        sched = PlateauSchedule(1e-3)
        sched.observe(1.0)
        for _ in range(4):
            sched.observe(1.0)
        lr, improved = sched.observe(0.5)
        assert improved and lr == 1e-3
        for _ in range(4):
            lr, _ = sched.observe(0.5)
        assert lr == 1e-3                  # still within patience


class TestMetrics:
    def test_perfect_predictions(self):
        conf = np.diag([10, 20, 30])
        rep = metrics_from_confusion(conf, k_mean=100.0, k_percent=10.0)
        assert rep.accuracy == 1.0
        assert rep.precision == 1.0
        assert rep.recall == 1.0
        assert rep.f1 == 1.0

    def test_constant_predictor_on_balanced_classes(self):
        conf = np.zeros((3, 3), dtype=int)
        conf[:, 0] = 10
        rep = metrics_from_confusion(conf, 0.0, 0.0)
        assert rep.accuracy == pytest.approx(1 / 3)

    def test_hand_confusion_weighted_values(self):
        # rows are truth: [[5,0],[1,4]]
        rep = metrics_from_confusion(np.array([[5, 0], [1, 4]]), 0.0, 0.0)
        assert rep.accuracy == pytest.approx(0.9)
        assert rep.recall == pytest.approx(0.9)
        # support-weighted precision: 0.5*(5/6) + 0.5*1 = 11/12
        assert rep.precision == pytest.approx(11 / 12)

    def test_row_sums_are_supports(self):
        conf = np.array([[3, 1, 0], [0, 5, 1], [2, 0, 4]])
        rep = metrics_from_confusion(conf, 0.0, 0.0)
        assert [sum(row) for row in rep.confusion] == [4, 6, 6]
        assert sum(sum(row) for row in rep.confusion) == 16

    def test_empty_confusion_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_confusion(np.zeros((2, 2), dtype=int), 0.0, 0.0)


def tiny_dataset(per_class=4, size=16, seed=3):
    return sa.generate(sa.SyntheticSpec(image_size=size, seed=seed,
                                        samples_per_class=per_class))


def tiny_model(seed=3, size=16, **kw):
    defaults = dict(hidden=8, k_init=40, k_min=16)
    defaults.update(kw)
    return sa.build_model(seed=seed, image_shape=(size, size), class_count=3,
                          **defaults)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        data = tiny_dataset()
        model = tiny_model()
        before = {n: t.data.copy() for n, t in model.params()}
        model, _ = train(model, data, TrainConfig(
            epochs=3, batch_size=4, seed=1, learning_rate=0.0, weight_decay=0.0))
        for name, t in model.params():
            assert t.data.tobytes() == before[name].tobytes(), name

    def test_single_sample_per_class_overfits(self):
        """One image per class reaches train accuracy 1.0 within the budget."""
        data = tiny_dataset(per_class=1)
        model = tiny_model(seed=6)
        model, logs = train(model, data, TrainConfig(
            epochs=200, batch_size=3, seed=6, learning_rate=3e-3,
            val_fraction=0.0))
        correct = 0
        k = model.controller.k
        for s in data:
            logits, _ = sa.model_forward(model, s.pixels, k)
            correct += int(np.argmax(logits.data)) == s.label
        assert correct == 3

    def test_controller_updates_once_per_epoch(self):
        data = tiny_dataset()
        model = tiny_model(k_init=40, k_min=16)
        model.controller.step_down = 8
        model.controller.step_up = 8
        _, logs = train(model, data, TrainConfig(epochs=4, batch_size=4, seed=2))
        ks = [rec["k"] for rec in logs]
        assert ks[0] == 40                     # first epoch runs at k_init
        assert ks[1] == 40                     # first update only seeds the EMA
        diffs = [abs(a - b) for a, b in zip(ks[1:], ks[2:])]
        assert all(d <= 8 for d in diffs)      # one bounded move per epoch

    def test_deterministic_logs_and_checkpoint(self):
        def run():
            model = tiny_model(seed=9)
            model, logs = train(model, tiny_dataset(seed=9), TrainConfig(
                epochs=3, batch_size=4, seed=9))
            return logs, checkpoint_bytes(model)
        logs_a, ckpt_a = run()
        logs_b, ckpt_b = run()
        assert logs_a == logs_b
        assert ckpt_a == ckpt_b

    def test_nonfinite_loss_aborts_with_last_good_params(self):
        data = tiny_dataset()
        model = tiny_model(seed=5)
        with pytest.raises(NumericError):
            train(model, data, TrainConfig(epochs=5, batch_size=4, seed=5,
                                           learning_rate=1e25))
        for name, t in model.params():
            assert np.all(np.isfinite(t.data)), name

    def test_nonfinite_validation_loss_restores_the_last_epoch(self, monkeypatch):
        """A NumericError in the second epoch's tape-free validation pass
        leaves the parameters the first epoch ended with."""
        model = tiny_model(seed=5)
        first = {}

        def report(m, batch, k, cfg):
            if m.params()[0][1].tape is None:   # no tape: a validation batch
                params = {n: t.data.copy() for n, t in m.params()}
                if not first:
                    first.update(params)
                elif any(not np.array_equal(params[n], first[n]) for n in first):
                    raise NumericError("validation loss is not finite")
            return batch_report(m, batch, k, cfg)
        # the package's `train` attribute is the function, not the module
        module = importlib.import_module("sparseattn.train")
        batch_report = module._batch_report
        monkeypatch.setattr(module, "_batch_report", report)
        with pytest.raises(NumericError):
            train(model, tiny_dataset(), TrainConfig(epochs=3, batch_size=4, seed=5))
        for name, t in model.params():
            np.testing.assert_array_equal(t.data, first[name], err_msg=name)

    def test_class_weights_for_too_few_classes_are_rejected(self):
        with pytest.raises(ValueError, match="^1 class weights for 3 classes$"):
            train(tiny_model(), tiny_dataset(), TrainConfig(
                epochs=1, batch_size=4, loss=sa.LossConfig(alpha_per_class=[1.0])))

    def test_log_records_epoch_fields(self):
        model = tiny_model(seed=7)
        _, logs = train(model, tiny_dataset(seed=7),
                        TrainConfig(epochs=2, batch_size=4, seed=7))
        assert len(logs) == 2
        for key in ("epoch", "k", "lr", "train_loss", "focal", "contrastive",
                    "distill", "val_loss", "val_accuracy"):
            assert key in logs[0], key


class TestValFraction:
    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_config_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="val_fraction"):
            TrainConfig(val_fraction=fraction)

    def test_split_that_leaves_nothing_to_fit_is_rejected(self):
        # 4 images per class at 0.9: round(3.6) = 4 validate, none fit
        model = tiny_model()
        before = checkpoint_bytes(model)
        with pytest.raises(ValueError, match="no image to fit"):
            train(model, tiny_dataset(), TrainConfig(epochs=1, batch_size=4,
                                                     val_fraction=0.9))
        assert checkpoint_bytes(model) == before


class TestEvaluate:
    def test_reports_controller_k_and_percentage(self):
        data = tiny_dataset()
        model = tiny_model(seed=8)
        rep = evaluate(model, data)
        assert rep.k_mean == model.controller.k
        assert rep.k_percent == pytest.approx(100.0 * model.controller.k / 256)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(tiny_model(), [])

    def test_confusion_row_sums_match_supports(self):
        data = tiny_dataset(per_class=5)
        rep = evaluate(tiny_model(seed=2), data)
        assert [sum(row) for row in rep.confusion] == [5, 5, 5]


class TestNonFinitePixels:
    """An image with a NaN or infinite pixel is a data error at every entry
    point, never a prediction of class 0 or a NaN validation loss."""

    @staticmethod
    def damaged(value):
        data = tiny_dataset()
        pixels = data[5].pixels.data.copy()
        pixels[3, 7] = value
        data[5] = LabeledImage(Tensor(pixels), data[5].label, data[5].foreground_mask)
        return data

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_evaluate(self, value):
        with pytest.raises(DatasetError, match="non-finite"):
            evaluate(tiny_model(), self.damaged(value))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_predict(self, value):
        image = self.damaged(value)[5].pixels
        with pytest.raises(DatasetError, match="non-finite"):
            sa.predict(tiny_model(), image)

    def test_train(self):
        with pytest.raises(DatasetError, match="non-finite"):
            train(tiny_model(), self.damaged(np.nan), TrainConfig(epochs=1, batch_size=4))

    def test_baseline_train_and_evaluate(self):
        net = sa.build_baseline(0, (16, 16), 3)
        with pytest.raises(DatasetError, match="non-finite"):
            sa.evaluate_baseline(net, self.damaged(np.nan))
        with pytest.raises(DatasetError, match="non-finite"):
            sa.train_baseline(net, self.damaged(np.inf), TrainConfig(epochs=1, batch_size=4))


class TestLabelOutsideTheModel:
    """A label that is not one of the model's classes is a data error at
    every entry point that takes a labeled dataset, whatever its source."""

    ENTRY_POINTS = {
        "train": lambda data: train(tiny_model(), data, TrainConfig(epochs=1, batch_size=4)),
        "evaluate": lambda data: evaluate(tiny_model(), data),
        "train_baseline": lambda data: sa.train_baseline(
            sa.build_baseline(0, (16, 16), 3), data, TrainConfig(epochs=1, batch_size=4)),
        "evaluate_baseline": lambda data: sa.evaluate_baseline(
            sa.build_baseline(0, (16, 16), 3), data),
    }

    @pytest.mark.parametrize("label", [3, 5, -1])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected_and_named(self, entry, label):
        data = tiny_dataset()
        data[5] = LabeledImage(data[5].pixels, label, data[5].foreground_mask)
        with pytest.raises(DatasetError,
                           match=f"^label {label} is not one of the model's 3 classes$"):
            self.ENTRY_POINTS[entry](data)
