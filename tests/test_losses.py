"""Loss components: frozen hand-computed values, degenerate cases, the
one-directional distillation rule, and gradient checks.
"""

import math

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.losses import (
    LossConfig,
    class_weights,
    contrastive_loss,
    distill_loss,
    distill_target,
    focal_loss,
    total_loss,
)
from sparseattn.selector import Selection
from sparseattn.tensor import GradientTape, NumericError, Tensor, grad_check


def pixels_at(flat_indices, width):
    index = np.asarray(flat_indices, dtype=np.intp)
    return Selection(index=index, triplets=np.zeros(index.shape + (3,)), width=width)


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        cfg = LossConfig(gamma=0.0)
        logits = Tensor([[0.0, 0.0]])
        assert focal_loss(logits, [0], cfg).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value_gamma_two(self):
        # single sample with p_y = 0.9: -(0.1)^2 * ln(0.9)
        p = 0.9
        logit_gap = math.log(p / (1 - p))
        logits = Tensor([[logit_gap, 0.0]])
        cfg = LossConfig(gamma=2.0)
        expected = -((1 - p) ** 2) * math.log(p)
        assert focal_loss(logits, [0], cfg).item() == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1.0536e-3, rel=1e-3)

    def test_certain_prediction_contributes_zero(self):
        cfg = LossConfig(gamma=2.0)
        logits = Tensor([[800.0, 0.0, 0.0]])   # p_y saturates to 1.0
        assert focal_loss(logits, [0], cfg).item() == 0.0

    def test_saturated_fractional_gamma_gives_a_zero_gradient(self):
        """p_y = 1.0 exactly sends 0 into (1 - p_y)^0.5, whose slope there is
        infinite; the upstream gradient there is 0, so the logits' is too."""
        tape = GradientTape()
        logits = Tensor([[40.0, 0.0, 0.0]])
        tape.watch(logits)
        tape.backward(focal_loss(logits, [0], LossConfig(gamma=0.5)))
        np.testing.assert_array_equal(logits.grad, [[0.0, 0.0, 0.0]])

    def test_class_weights_scale_terms(self):
        cfg = LossConfig(gamma=0.0, alpha_per_class=[2.0, 1.0])
        logits = Tensor([[0.0, 0.0]])
        assert focal_loss(logits, [0], cfg).item() == pytest.approx(2 * math.log(2))

    def test_monotone_in_correct_probability(self):
        cfg = LossConfig(gamma=2.0)
        values = []
        for p in np.linspace(0.05, 0.95, 19):
            gap = math.log(p / (1 - p))
            values.append(focal_loss(Tensor([[gap, 0.0]]), [0], cfg).item())
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_batch_mean_reduction(self):
        cfg = LossConfig(gamma=0.0)
        one = focal_loss(Tensor([[0.0, 0.0]]), [0], cfg).item()
        two = focal_loss(Tensor([[0.0, 0.0], [0.0, 0.0]]), [0, 1], cfg).item()
        assert two == pytest.approx(one)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            focal_loss(Tensor([[0.0, 0.0]]), [2], LossConfig())

    def test_grad_check(self):
        rng = np.random.default_rng(1)
        cfg = LossConfig(gamma=2.0, alpha_per_class=[1.5, 0.75, 1.0])
        for _ in range(5):
            logits = Tensor(rng.normal(0, 1, (4, 3)))
            labels = rng.integers(0, 3, 4).tolist()
            assert grad_check(lambda t: focal_loss(t, labels, cfg), logits) <= 1e-4


class TestContrastiveLoss:
    def test_identical_same_class_pair_is_zero(self):
        cfg = LossConfig(tau=1.0)
        z = Tensor([[1.0, 0.0], [1.0, 0.0]])
        assert contrastive_loss(z, [0, 0], cfg).item() == pytest.approx(0.0, abs=1e-12)

    def test_no_positive_pairs_returns_zero(self):
        cfg = LossConfig(tau=1.0)
        z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert contrastive_loss(z, [0, 1], cfg).item() == 0.0

    def test_three_sample_hand_value(self):
        # z0 == z1 (class 0), z2 orthogonal (class 1), tau = 1:
        # each valid anchor contributes -log(e / (e + 1))
        cfg = LossConfig(tau=1.0)
        z = Tensor([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 1.0))
        got = contrastive_loss(z, [0, 0, 1], cfg).item()
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.3133, abs=1e-4)

    def test_positive_is_highest_index_same_class(self):
        cfg = LossConfig(tau=0.5)
        rng = np.random.default_rng(3)
        z = rng.normal(0, 1, (4, 3))
        got = contrastive_loss(Tensor(z), [0, 0, 0, 1], cfg).item()
        # recompute by hand with positives {0: 2, 1: 2, 2: 1}
        zn = z / np.linalg.norm(z, axis=1, keepdims=True)
        sims = np.exp(zn @ zn.T / 0.5)
        terms = []
        for i, pos in ((0, 2), (1, 2), (2, 1)):
            den = sims[i].sum() - sims[i, i]
            terms.append(-math.log(sims[i, pos] / den))
        assert got == pytest.approx(np.mean(terms), rel=1e-12)

    def test_pulling_positives_closer_lowers_loss(self):
        cfg = LossConfig(tau=0.5)
        far = Tensor([[1.0, 0.0], [0.6, 0.8], [-1.0, 0.0]])
        near = Tensor([[1.0, 0.0], [0.95, float(np.sqrt(1 - 0.95 ** 2))], [-1.0, 0.0]])
        labels = [0, 0, 1]
        assert contrastive_loss(near, labels, cfg).item() < \
            contrastive_loss(far, labels, cfg).item()

    def test_zero_norm_embedding_is_guarded(self):
        cfg = LossConfig(tau=1.0)
        z = Tensor([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        value = contrastive_loss(z, [0, 0, 1], cfg).item()
        assert np.isfinite(value)

    @pytest.mark.parametrize("tau", [0.002, 0.003])
    def test_degenerate_ratio_is_a_numeric_error_naming_tau(self, tau):
        """Opposite rows at a small tau: anchor 0's ratio underflows to 0 at
        0.002, and at 0.003 anchor 1's denominator, its row less its own
        score, cancels to 0."""
        z = Tensor([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match=f"tau {tau};") as err:
            contrastive_loss(z, [0, 0, 1], LossConfig(tau=tau))
        assert "\n" not in str(err.value)

    def test_same_rows_at_the_default_tau_keep_their_value(self):
        z = Tensor([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert contrastive_loss(z, [0, 0, 1], LossConfig(tau=0.07)).item() == 14.632321878938257

    def test_one_sample_gives_zero(self):
        tape = GradientTape()
        z = Tensor([[1.0, 0.0]])
        tape.watch(z)
        out = contrastive_loss(z, [0], LossConfig())
        assert out.item() == 0.0
        assert out.tape is None and not tape._ops

    def test_embeddings_must_be_b_by_d(self):
        with pytest.raises(ValueError):
            contrastive_loss(Tensor([1.0, 0.0]), [0], LossConfig())

    def test_grad_check(self):
        rng = np.random.default_rng(0)
        cfg = LossConfig(tau=0.07)
        for _ in range(5):
            z = Tensor(rng.normal(0, 1, (5, 4)))
            labels = rng.integers(0, 3, 5).tolist()
            assert grad_check(lambda t: contrastive_loss(t, labels, cfg), z) <= 1e-4

    @pytest.mark.parametrize("tau", [0.0025, 0.002, 0.0016])
    def test_grad_check_at_small_tau(self, tau):
        """Near-parallel rows at a small tau put exp(1/tau), about 1e217 at
        0.002, in the denominator: its square overflows, and the divisor's
        gradient must still be right."""
        rng = np.random.default_rng(0)
        z = Tensor(rng.normal(0, 1, 4) + 0.01 * rng.normal(0, 1, (6, 4)))
        cfg = LossConfig(tau=tau)
        labels = [0, 0, 1, 1, 2, 2]
        assert grad_check(lambda t: contrastive_loss(t, labels, cfg), z, eps=1e-7) <= 1e-4


class TestDistillLoss:
    def test_identical_distributions_give_zero(self):
        cfg = LossConfig(emphasis=1.0)
        coarse = Tensor(np.zeros((4, 4)))          # softmax over equal values
        importance = Tensor(np.full(5, 0.2))       # uniform target
        selected = pixels_at([0, 5, 10, 15], 4)
        assert distill_loss(coarse, importance, selected, cfg).item() == \
            pytest.approx(0.0, abs=1e-9)

    def test_hand_kl_value(self):
        cfg = LossConfig(emphasis=1.0)
        # coarse softmax over two equal map values -> [0.5, 0.5]
        coarse = Tensor(np.zeros((2, 2)))
        selected = pixels_at([0, 1], 2)
        # importance mass exactly 1 (CLS last), so the target is [0.25, 0.75] exactly
        importance = Tensor(np.array([0.25, 0.75, 0.0]))
        got = distill_loss(coarse, importance, selected, cfg).item()
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.14384, abs=1e-5)

    def test_nonnegative_on_random_cases(self):
        rng = np.random.default_rng(9)
        cfg = LossConfig(emphasis=2.0)
        for _ in range(100):
            h = w = int(rng.integers(3, 9))
            k = int(rng.integers(1, h * w))
            coarse = Tensor(rng.uniform(0, 1, (h, w)))
            importance = Tensor(rng.uniform(0.01, 1, k + 1))
            selected = pixels_at(rng.choice(h * w, size=k, replace=False), w)
            assert distill_loss(coarse, importance, selected, cfg).item() >= 0.0

    def test_emphasis_sharpens_target(self):
        imp = Tensor(np.array([0.4, 0.1, 0.5]))
        flat = distill_target(imp, 2, emphasis=1.0)
        sharp = distill_target(imp, 2, emphasis=2.0)
        assert sharp[0] > flat[0]          # dominant entry gains mass
        assert flat.sum() == pytest.approx(1.0)
        assert sharp.sum() == pytest.approx(1.0)

    def test_cls_row_excluded_from_target(self):
        imp = Tensor(np.array([0.5, 0.5, 99.0]))   # last row is CLS
        target = distill_target(imp, 2, emphasis=1.0)
        np.testing.assert_allclose(target, [0.5, 0.5])

    def test_zero_mass_uniform_and_nan_mass_propagates(self):
        imp = Tensor(np.array([[0.0, 0.0, 1.0], [np.nan, 0.2, 1.0], [0.3, 0.1, 1.0]]))
        target = distill_target(imp, 2, emphasis=1.0)
        np.testing.assert_allclose(target[0], [0.5, 0.5])
        assert not np.any(np.isfinite(target[1]))    # a NaN teacher is not hidden
        np.testing.assert_allclose(target[2], [0.75, 0.25])

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            distill_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros(1)),
                         pixels_at([], 2), LossConfig())

    def test_grad_check_wrt_coarse_map(self):
        rng = np.random.default_rng(13)
        cfg = LossConfig(emphasis=2.0)
        importance = Tensor(rng.uniform(0.05, 1, 7))
        selected = pixels_at(rng.choice(36, size=6, replace=False), 6)
        for _ in range(5):
            coarse = Tensor(rng.uniform(0, 1, (6, 6)))
            err = grad_check(
                lambda t: distill_loss(t, importance, selected, cfg), coarse)
            assert err <= 1e-4


class TestTotalLoss:
    def _batch(self, seed=0):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(0, 1, (3, 3)))
        labels = [0, 1, 0]
        z = Tensor(rng.normal(0, 1, (3, 4)))
        coarse = Tensor(rng.uniform(0, 1, (4, 4)))
        importance = Tensor(rng.uniform(0.05, 1, 4))
        selected = pixels_at([1, 5, 9], 4)
        return logits, labels, z, (coarse, importance, selected)

    def test_zero_weights_reduce_to_focal(self):
        logits, labels, z, d = self._batch()
        cfg = LossConfig(lambda_contrast=0.0, lambda_distill=0.0)
        report = total_loss(logits, labels, z, d, cfg)
        assert report.total == report.focal
        assert report.total == focal_loss(logits, labels, cfg).item()

    def test_weighted_sum_is_exact(self):
        logits, labels, z, d = self._batch(4)
        cfg = LossConfig(lambda_contrast=0.1, lambda_distill=0.02)
        report = total_loss(logits, labels, z, d, cfg)
        assert report.total == report.focal + 0.1 * report.contrastive \
            + 0.02 * report.distill

    def test_one_image_batch(self):
        """A single row: no contrastive anchor, so the total is the focal and
        distillation terms, summed in total_loss's own order, bit for bit."""
        logits, labels, z, d = self._batch(2)
        cfg = LossConfig(lambda_contrast=0.1, lambda_distill=0.02)
        report = total_loss(Tensor(logits.data[:1]), labels[:1], Tensor(z.data[:1]), d, cfg)
        assert report.contrastive == 0.0
        assert report.total == (report.focal + 0.0 * cfg.lambda_contrast) \
            + cfg.lambda_distill * report.distill
        assert report.focal > 0 and report.distill > 0

    def test_arithmetic_on_stated_weights(self):
        # focal 1, contrastive 2, distill 3 with weights (0.1, 0.02) -> 1.26
        assert 1.0 + 0.1 * 2.0 + 0.02 * 3.0 == pytest.approx(1.26)

    def test_default_weights_match_config(self):
        cfg = LossConfig()
        assert cfg.lambda_contrast == 0.1
        assert cfg.lambda_distill == 0.02
        assert cfg.tau == 0.07
        assert cfg.emphasis == 2.0
        assert cfg.gamma == 2.0


class TestDistillDirectionality:
    def test_step_on_distill_alone_freezes_fine_side(self):
        """Fine/embedder gradients exactly zero; some coarse gradient nonzero."""
        model = sa.build_model(seed=3, image_shape=(10, 10), class_count=3,
                               hidden=8, k_init=12, k_min=4)
        img = Tensor(np.random.default_rng(2).uniform(0, 1, (10, 10)))
        tape = GradientTape()
        tape.watch(*[t for _, t in model.params()])
        _, diag = sa.model_forward(model, img, k=12)
        loss = distill_loss(diag.coarse.attention_map,
                            diag.fine.pixel_importance, diag.pixels,
                            LossConfig())
        tape.backward(loss)
        for name, t in model.params():
            if name.startswith(("fine.", "embedder.", "classifier.")):
                np.testing.assert_array_equal(
                    t.grad, np.zeros_like(t.data), err_msg=name)
        coarse_mass = sum(np.abs(t.grad).sum() for n, t in model.params()
                          if n.startswith("coarse."))
        assert coarse_mass > 0


def test_class_weights_inverse_frequency_mean_one():
    weights = class_weights([0, 0, 0, 1, 2, 2], 3)
    assert np.mean(weights) == pytest.approx(1.0)
    assert weights[1] > weights[2] > weights[0]
    np.testing.assert_allclose(weights, class_weights([0, 0, 0, 1, 2, 2], 3))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError, match="tau must be at least 0.00140888, got 0.0014"):
        LossConfig(tau=0.0014)
    LossConfig(tau=0.00141)   # above the floor: exp(1/tau) itself is finite
    with pytest.raises(ValueError):
        LossConfig(alpha_per_class=[1.0, 0.0])
