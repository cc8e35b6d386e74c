"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. The end-to-end training criteria (9, 10, 11) share one seed-fixed
run provided by a module-scoped fixture: tools/fingerprint.py's training
fixture, judged by tools/seeds.py's criteria and hit rate, so the test
and the per-seed tool apply one definition.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import load_tool, param_grad_errors
from sparseattn.baseline import baseline_cost, build_baseline
from sparseattn.cli import main as cli_main
from sparseattn.coarse import coarse_forward
from sparseattn.cost import count_cost
from sparseattn.embedding import embed_pixels
from sparseattn.fine import FineAttention, fine_forward
from sparseattn.losses import (
    LossConfig,
    contrastive_loss,
    distill_loss,
    focal_loss,
)
from sparseattn.model import (
    build_model,
    checkpoint_bytes,
    classifier_forward,
    model_forward,
    model_from_bytes,
)
from sparseattn.selector import KController, select_top_k, update_k
from sparseattn.tensor import GradientTape, Tensor, add, concat, grad_check, mul, reshape
from sparseattn.train import evaluate, train

# the training fixture and criteria 9 and 11, as tools/seeds.py runs them on any seed
fingerprint = load_tool("fingerprint")
seeds = load_tool("seeds")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


# ---------------------------------------------------------------------------
# shared seed-fixed training run for criteria 9, 10, 11
# ---------------------------------------------------------------------------

TRAIN_SEED = 42


@pytest.fixture(scope="module")
def trained_run():
    """The fixture trained as tools/seeds.py trains a seed; the verdicts of
    criteria 9 and 11 are its seeds.criteria() at the final k."""
    start = time.monotonic()
    train_set, test_set, model, config = fingerprint.fixture(TRAIN_SEED)
    model, logs = train(model, train_set, config)
    elapsed = time.monotonic() - start
    accuracy = evaluate(model, test_set).accuracy
    k = model.controller.k
    h, w = model.image_shape
    hit_rate = seeds.hit_rate(model, test_set, k)
    return {
        "model": model,
        "logs": logs,
        "test_set": test_set,
        "elapsed": elapsed,
        "epochs": config.epochs,
        "accuracy": accuracy,
        "pixels": h * w,
        "hit_rate": hit_rate,
        **seeds.criteria(accuracy, k, h * w, config.epochs, elapsed, hit_rate),
    }


class TestCriterion1:
    def test_gradient_fidelity(self):
        """grad_check on every loss and the full model stays within 1e-4."""
        start = time.monotonic()
        rng = np.random.default_rng(5)
        worst = 0.0

        cfg = LossConfig(gamma=2.0)
        for _ in range(3):
            logits = Tensor(rng.normal(0, 1, (4, 3)))
            labels = rng.integers(0, 3, 4).tolist()
            worst = max(worst, grad_check(
                lambda t: focal_loss(t, labels, cfg), logits))

        # tau=0.5: the paper temperature 0.07 makes the oracle's truncation
        # error dominate near-zero components; tau only rescales the input
        # to the identical op chain, so correctness transfers
        ccfg = LossConfig(tau=0.5)
        for _ in range(3):
            z = Tensor(rng.normal(0, 1, (5, 4)))
            labels = rng.integers(0, 3, 5).tolist()
            worst = max(worst, grad_check(
                lambda t: contrastive_loss(t, labels, ccfg), z))

        dcfg = LossConfig(emphasis=2.0)
        importance = Tensor(rng.uniform(0.05, 1.0, 5))
        selected = select_top_k(Tensor(rng.uniform(0, 1, (8, 8))),
                                Tensor(rng.uniform(0, 1, (8, 8))), 4)
        for _ in range(3):
            coarse = Tensor(rng.uniform(0, 1, (8, 8)))
            worst = max(worst, grad_check(
                lambda t: distill_loss(t, importance, selected, dcfg), coarse))

        # full model: a 3-image batch of 8x8 images at k=4, D=4, H=2, C=3,
        # so the total loss runs all three terms (the same-class pair plus a
        # negative activates contrastive); selection and the distillation
        # targets are data-dependent constants of the step and are held
        # fixed for the probes
        m = build_model(seed=17, image_shape=(8, 8), class_count=3,
                        hidden=8, dim=4, heads=2, k_init=4, k_min=2)
        images = [Tensor(np.random.default_rng(19).uniform(0, 1, (8, 8))),
                  Tensor(np.random.default_rng(23).uniform(0, 1, (8, 8))),
                  Tensor(np.random.default_rng(29).uniform(0, 1, (8, 8)))]
        labels = [1, 1, 2]
        mcfg = LossConfig(gamma=2.0, lambda_contrast=0.1, lambda_distill=0.5,
                          tau=0.5)
        frozen = []
        for img in images:
            _, diag0 = model_forward(m, img, k=4)
            frozen.append((diag0.pixels,
                           Tensor(diag0.fine.pixel_importance.data.copy())))

        def loss():
            logit_rows, z_rows, d_sum = [], [], None
            for img, (pixels, teacher) in zip(images, frozen):
                co = coarse_forward(m.coarse, img)
                tokens = embed_pixels(m.embedder, pixels.triplets)
                fo = fine_forward(m.fine, tokens)
                logits = classifier_forward(m.classifier,
                                            concat([fo.z_fine, co.z_coarse], axis=-1))
                logit_rows.append(reshape(logits, (1, 3)))
                z_rows.append(reshape(fo.z_fine, (1, 4)))
                term = distill_loss(co.attention_map, teacher, pixels, mcfg)
                d_sum = term if d_sum is None else add(d_sum, term)
            f = focal_loss(concat(logit_rows, axis=0), labels, mcfg)
            c = contrastive_loss(concat(z_rows, axis=0), labels, mcfg)
            d = mul(d_sum, 1.0 / len(images))
            return add(add(f, mul(c, mcfg.lambda_contrast)),
                       mul(d, mcfg.lambda_distill))

        worst = max(worst, max(param_grad_errors(m.params(), loss).values()))
        elapsed = time.monotonic() - start
        report(1, "gradient fidelity <= 1e-4 in under 30 s",
               worst <= 1e-4 and elapsed < 30.0,
               f"max rel err {worst:.2e}, {elapsed:.1f} s")


class TestCriterion2:
    def test_attention_columns_normalized(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 17))
            fa = FineAttention(np.random.default_rng(int(rng.integers(1000))),
                               dim=4, heads=2)
            out = fine_forward(fa, Tensor(rng.normal(0, 1, (k + 1, 4))))
            for a in out.head_attn:
                worst = max(worst, np.abs(a.data.sum(axis=0) - 1.0).max())
        report(2, "attention columns sum to 1 within 1e-9 on 100 inputs",
               worst <= 1e-9, f"max deviation {worst:.2e}")


class TestCriterion3:
    def test_vectorized_matches_triple_loop(self):
        from test_fine import loop_oracle
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 17))
            fa = FineAttention(np.random.default_rng(int(rng.integers(1000))),
                               dim=4, heads=2)
            tokens = rng.normal(0, 1, (k + 1, 4))
            out = fine_forward(fa, Tensor(tokens))
            z, attn, imp = loop_oracle(fa, tokens)
            worst = max(worst, np.abs(out.z_fine.data - z).max())
            worst = max(worst, np.abs(out.pixel_importance.data - imp).max())
            for got, want in zip(out.head_attn, attn):
                worst = max(worst, np.abs(got.data - want).max())
        report(3, "vectorized attention matches the loop oracle within 1e-10",
               worst <= 1e-10, f"max deviation {worst:.2e}")


class TestCriterion4:
    def test_topk_matches_brute_force(self):
        from test_selector import brute_force_order
        rng = np.random.default_rng(8)
        ok = True
        for _ in range(200):
            h, w = int(rng.integers(2, 65)), int(rng.integers(2, 65))
            scores = rng.uniform(0, 1, (h, w))
            if rng.random() < 0.4:
                scores = np.round(scores, 1)       # force ties
            k = int(rng.integers(1, h * w + 1))
            picked = select_top_k(Tensor(scores), Tensor(scores), k)
            got = picked.index.tolist()
            ok = ok and got == brute_force_order(scores)[:k]
        report(4, "top-k matches full-sort brute force on 200 maps", ok)


class TestCriterion5:
    def test_distillation_directionality(self):
        model = build_model(seed=3, image_shape=(10, 10), class_count=3,
                            hidden=8, k_init=12, k_min=4)
        img = Tensor(np.random.default_rng(2).uniform(0, 1, (10, 10)))
        tape = GradientTape()
        tape.watch(*[t for _, t in model.params()])
        _, diag = model_forward(model, img, k=12)
        loss = distill_loss(diag.coarse.attention_map,
                            diag.fine.pixel_importance, diag.pixels,
                            LossConfig())
        tape.backward(loss)
        fine_mass = sum(np.abs(t.grad).sum() for n, t in model.params()
                        if n.startswith("fine."))
        coarse_mass = sum(np.abs(t.grad).sum() for n, t in model.params()
                          if n.startswith("coarse."))
        report(5, "distill step freezes fine attention, trains coarse",
               fine_mass == 0.0 and coarse_mass > 0.0,
               f"fine |g| {fine_mass}, coarse |g| {coarse_mass:.2e}")


class TestCriterion6:
    def test_kl_properties(self):
        rng = np.random.default_rng(9)
        cfg = LossConfig(emphasis=2.0)
        min_loss = np.inf
        for _ in range(100):
            h = w = int(rng.integers(3, 9))
            k = int(rng.integers(1, h * w))
            coarse = Tensor(rng.uniform(0, 1, (h, w)))
            importance = Tensor(rng.uniform(0.01, 1, k + 1))
            pixels = select_top_k(Tensor(rng.uniform(0, 1, (h, w))),
                                  coarse, k)
            min_loss = min(min_loss,
                           distill_loss(coarse, importance, pixels, cfg).item())

        # identical restricted distributions at emphasis 1
        flat_cfg = LossConfig(emphasis=1.0)
        coarse = Tensor(np.zeros((4, 4)))
        importance = Tensor(np.full(5, 0.2))
        pixels = select_top_k(Tensor(np.arange(16.0).reshape(4, 4)), coarse, 4)
        zero_case = distill_loss(coarse, importance, pixels, flat_cfg).item()
        report(6, "KL nonneg on 100 cases; zero for equal distributions",
               min_loss >= 0.0 and abs(zero_case) <= 1e-9,
               f"min {min_loss:.2e}, zero-case {zero_case:.2e}")


class TestCriterion7:
    def test_focal_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(10)
        cfg = LossConfig(gamma=0.0)
        worst = 0.0
        for _ in range(20):
            b = int(rng.integers(1, 9))
            logits = rng.normal(0, 2, (b, 3))
            labels = rng.integers(0, 3, b).tolist()
            got = focal_loss(Tensor(logits), labels, cfg).item()
            shifted = logits - logits.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            want = float(np.mean([-logp[i, y] for i, y in enumerate(labels)]))
            worst = max(worst, abs(got - want))
        report(7, "focal at gamma=0 equals mean cross-entropy within 1e-12",
               worst <= 1e-12, f"max gap {worst:.2e}")


class TestCriterion8:
    def test_controller_clamps_and_monotonicity(self):
        down = KController(k=8000, k_min=1500, k_max=18225)
        update_k(down, 50.0)
        ks = [update_k(down, 50.0 - 0.2 * i) for i in range(1, 300)]
        down_ok = (all(a >= b for a, b in zip(ks, ks[1:]))
                   and ks[-1] == 1500
                   and all(isinstance(k, int) and 1500 <= k <= 18225 for k in ks))

        up = KController(k=8000, k_min=1500, k_max=18225)
        update_k(up, 1.0)
        ks_up = [update_k(up, 1.0 + 0.2 * i) for i in range(1, 300)]
        up_ok = (all(a <= b for a, b in zip(ks_up, ks_up[1:]))
                 and ks_up[-1] == 18225
                 and all(isinstance(k, int) and 1500 <= k <= 18225 for k in ks_up))
        report(8, "controller monotone under trends, clamps at 1500 / k_max",
               down_ok and up_ok,
               f"down end {ks[-1]}, up end {ks_up[-1]}")


class TestCriterion9:
    def test_learning_with_sparse_budget(self, trained_run):
        k_final = trained_run["model"].controller.k
        report(9, "synthetic 3-class >= 90% accuracy with k <= 20% of pixels",
               trained_run["criterion_9"],
               f"acc {trained_run['accuracy']:.4f}, k {k_final} "
               f"({100 * k_final / trained_run['pixels']:.1f}%), "
               f"{trained_run['elapsed']:.0f} s / {trained_run['epochs']} epochs")


class TestCriterion10:
    def test_sparse_vs_dense_efficiency(self, trained_run):
        model = trained_run["model"]
        k_final = model.controller.k
        sparse = count_cost(model, model.image_shape, k_final)
        dense = baseline_cost(build_baseline(TRAIN_SEED, model.image_shape,
                                             model.class_count))
        ok = (sparse.total_flops < 0.5 * dense.total_flops
              and sparse.parameters < dense.parameters)
        report(10, "sparse FLOPs < 50% of dense baseline; fewer parameters",
               ok, f"flops {sparse.total_flops}/{dense.total_flops} "
                   f"({100 * sparse.total_flops / dense.total_flops:.1f}%), "
                   f"params {sparse.parameters}/{dense.parameters}")


class TestCriterion11:
    def test_attention_localization(self, trained_run):
        report(11, "at least 70% of selected pixels inside the foreground",
               trained_run["criterion_11"],
               f"mean hit rate {trained_run['hit_rate']:.3f} "
               f"at k={trained_run['model'].controller.k}")


class TestCriterion12:
    def test_train_determinism(self, tmp_path):
        args = ["--synthetic", "--seed", "7", "--epochs", "3",
                "--samples-per-class", "8", "--image-size", "16",
                "--hidden", "8", "--k-init", "64", "--k-min", "16",
                "--batch", "8"]
        for name in ("a", "b"):
            assert cli_main(["train", "--out", str(tmp_path / name), *args]) == 0
        logs_equal = (tmp_path / "a/metrics.jsonl").read_bytes() == \
            (tmp_path / "b/metrics.jsonl").read_bytes()
        ckpt_equal = (tmp_path / "a/checkpoint.satm").read_bytes() == \
            (tmp_path / "b/checkpoint.satm").read_bytes()
        report(12, "repeated seeded runs emit byte-identical logs/checkpoints",
               logs_equal and ckpt_equal)


class TestCriterion13:
    def test_checkpoint_round_trip(self, trained_run):
        model = trained_run["model"]
        test_set = trained_run["test_set"]
        before = evaluate(model, test_set)
        restored = model_from_bytes(checkpoint_bytes(model))
        after = evaluate(restored, test_set)
        ok = (before.to_dict() == after.to_dict())
        report(13, "save/load/evaluate reproduces identical metrics", ok,
               f"accuracy {before.accuracy:.4f} == {after.accuracy:.4f}")
