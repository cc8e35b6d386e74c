"""The batched pipeline against the per-image path.

One B×H×W forward and one batched loss must give every sample the logits
that B=1 calls of the same stages give it, the loss that plain-numpy
per-sample references give, and the parameter gradients of the per-image
composition of the loss, all to 1e-12 relative error. The dense baseline's
batched forward and chunked evaluation are held to the same oracle.
"""

import functools
import gc
import importlib

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.baseline import baseline_forward, build_baseline
from sparseattn.coarse import coarse_forward
from sparseattn.data import DatasetError
from sparseattn.embedding import embed_pixels
from sparseattn.fine import fine_forward
from sparseattn.losses import LossConfig, distill_loss, distill_target, focal_loss
from sparseattn.model import classifier_forward, model_forward
from sparseattn.selector import select_top_k
from sparseattn.tensor import GradientTape, NumericError, Tensor, add, concat, mul, reshape

train_module = importlib.import_module("sparseattn.train")
baseline_module = importlib.import_module("sparseattn.baseline")

SHAPE = (10, 10)
K = 8
LABELS = [0, 1, 0, 2, 1, 1]     # label 2 has no positive: its contrastive anchor is masked
CFG = LossConfig(gamma=2.0, alpha_per_class=[0.8, 1.1, 1.3], lambda_contrast=0.1,
                 lambda_distill=0.5, tau=0.5)


def small_model(seed=11):
    return sa.build_model(seed=seed, image_shape=SHAPE, class_count=3, hidden=8,
                          dim=4, heads=2, k_init=K, k_min=2)


def images():
    rng = np.random.default_rng(5)
    return [rng.uniform(0, 1, SHAPE) for _ in LABELS]


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return diff / scale if scale > 0 else diff


# ---------------------------------------------------------------------------
# plain-numpy per-sample references of the three loss terms
# ---------------------------------------------------------------------------

def focal_ref(logits, labels, cfg):
    terms = []
    for row, y in zip(logits, labels):
        e = np.exp(row - row.max())
        p = max(e[y] / e.sum(), 1e-12)
        terms.append(cfg.alpha_per_class[y] * (1 - p) ** cfg.gamma * -np.log(p))
    return float(np.mean(terms))


def contrastive_ref(z, labels, cfg):
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    scores = np.exp(z @ z.T / cfg.tau)
    terms = []
    for i, y in enumerate(labels):
        positives = [j for j, l in enumerate(labels) if j != i and l == y]
        if positives:
            denom = scores[i].sum() - scores[i, i]
            terms.append(-np.log(scores[i, max(positives)] / denom))
    return float(np.mean(terms)) if terms else 0.0


def kl_ref(coarse_map, index, target):
    vals = coarse_map.ravel()[index]
    p = np.exp(vals - vals.max())
    p /= p.sum()
    return float(np.sum(p * (np.log(p) - np.log(target))))


# ---------------------------------------------------------------------------

class TestBatchedMatchesPerImage:
    def run_batched(self, m, imgs):
        tape = GradientTape()
        tape.watch(*[t for _, t in m.params()])
        logits, diag = model_forward(m, Tensor(np.stack(imgs)), K)
        report = sa.total_loss(logits, LABELS, diag.fine.z_fine,
                               (diag.coarse.attention_map, diag.fine.pixel_importance,
                                diag.pixels), CFG)
        tape.backward(report.total_tensor)
        grads = {name: t.grad for name, t in m.params()}
        for _, t in m.params():
            t.grad = None
        return logits.data, diag, report, grads

    def run_per_image(self, m, imgs):
        """B=1 calls of every stage; focal and distillation per sample, the
        contrastive term on the per-image embeddings stacked."""
        tape = GradientTape()
        tape.watch(*[t for _, t in m.params()])
        rows, z_rows, focal_terms, kl_terms, outputs = [], [], [], [], []
        for img, y in zip(imgs, LABELS):
            logits, diag = model_forward(m, Tensor(img), K)
            rows.append(logits.data)
            z_rows.append(reshape(diag.fine.z_fine, (1, 4)))
            focal_terms.append(focal_loss(reshape(logits, (1, 3)), [y], CFG))
            kl_terms.append(distill_loss(diag.coarse.attention_map,
                                         diag.fine.pixel_importance, diag.pixels, CFG))
            outputs.append(diag)
        n = len(imgs)
        focal = mul(functools.reduce(add, focal_terms), 1.0 / n)
        contr = sa.contrastive_loss(concat(z_rows, axis=0), LABELS, CFG)
        dist = mul(functools.reduce(add, kl_terms), 1.0 / n)
        total = add(add(focal, mul(contr, CFG.lambda_contrast)),
                    mul(dist, CFG.lambda_distill))
        tape.backward(total)
        grads = {name: t.grad for name, t in m.params()}
        for _, t in m.params():
            t.grad = None
        return np.stack(rows), outputs, grads

    def test_logits_losses_and_gradients_match(self):
        m, imgs = small_model(), images()
        b_logits, b_diag, report, b_grads = self.run_batched(m, imgs)
        p_logits, p_diags, p_grads = self.run_per_image(m, imgs)

        assert b_logits.shape == (len(imgs), 3)
        assert rel_err(b_logits, p_logits) <= 1e-12
        for i, d in enumerate(p_diags):
            np.testing.assert_array_equal(b_diag.pixels.index[i], d.pixels.index)
            assert rel_err(b_diag.fine.pixel_importance.data[i],
                           d.fine.pixel_importance.data) <= 1e-12

        z = np.stack([d.fine.z_fine.data for d in p_diags])
        kl = [kl_ref(d.coarse.attention_map.data, d.pixels.index,
                     distill_target(d.fine.pixel_importance, K, CFG.emphasis))
              for d in p_diags]
        assert rel_err(report.focal, focal_ref(p_logits, LABELS, CFG)) <= 1e-12
        assert rel_err(report.contrastive, contrastive_ref(z, LABELS, CFG)) <= 1e-12
        assert rel_err(report.distill, np.mean(kl)) <= 1e-12

        for name, g in p_grads.items():
            assert np.abs(g).max() > 0, f"{name} gets no gradient; the check would be vacuous"
            assert rel_err(b_grads[name], g) <= 1e-12, name

    def test_single_image_is_the_batch_free_case(self):
        m, imgs = small_model(3), images()
        logits, diag = model_forward(m, Tensor(imgs[2]), K)
        assert logits.data.shape == (3,)
        assert diag.pixels.index.shape == (K,)
        assert diag.fine.z_fine.data.shape == (4,)
        batch, _ = model_forward(m, Tensor(np.stack(imgs[2:4])), K)
        assert rel_err(batch.data[0], logits.data) <= 1e-12

    def test_evaluate_chunks_agree_with_predict(self, monkeypatch):
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=4, samples_per_class=4))
        m = sa.build_model(seed=4, image_shape=(16, 16), class_count=3, hidden=8,
                           k_init=20, k_min=10)
        monkeypatch.setattr(train_module, "EVAL_CHUNK", 5)   # 12 images: a ragged last chunk
        conf = np.asarray(sa.evaluate(m, data).confusion)
        want = np.zeros((3, 3), dtype=np.int64)
        for s in data:
            want[s.label, sa.predict(m, s.pixels)] += 1
        np.testing.assert_array_equal(conf, want)


class TestEveryStageTakesABatch:
    """Each stage takes its per-item input with or without one leading
    batch axis: a B-item call gives item i what a call on item i alone
    gives, within 1e-12."""

    def check(self, stage, *inputs):
        """stage(*arrays) -> tuple of arrays; inputs are per-item lists."""
        batched = stage(*[np.stack(items) for items in inputs])
        for i in range(len(inputs[0])):
            single = stage(*[items[i] for items in inputs])
            for got, want in zip(batched, single, strict=True):
                assert got[i].shape == want.shape
                assert rel_err(got[i], want) <= 1e-12

    def test_coarse_forward(self):
        m = small_model()
        def stage(x):
            co = coarse_forward(m.coarse, Tensor(x))
            return co.attention_map.data, co.z_coarse.data
        self.check(stage, images())

    def test_fine_forward(self):
        m, rng = small_model(), np.random.default_rng(7)
        def stage(tokens):
            fo = fine_forward(m.fine, Tensor(tokens))
            return (fo.z_fine.data, fo.pixel_importance.data,
                    *[a.data for a in fo.head_attn])
        self.check(stage, [rng.normal(0, 1, (K + 1, 4)) for _ in LABELS])

    def test_embed_pixels(self):
        m, rng = small_model(), np.random.default_rng(8)
        self.check(lambda t: (embed_pixels(m.embedder, t).data,),
                   [rng.uniform(0, 1, (K, 3)) for _ in LABELS])

    def test_select_top_k(self):
        rng = np.random.default_rng(9)
        maps = [rng.uniform(0, 1, SHAPE).round(1) for _ in LABELS]   # rounded: ties
        def stage(scores, imgs):
            sel = select_top_k(Tensor(scores), Tensor(imgs), K)
            return sel.index, sel.triplets
        self.check(stage, maps, images())

    def test_classifier_forward(self):
        m, rng = small_model(), np.random.default_rng(10)
        self.check(lambda z: (classifier_forward(m.classifier, Tensor(z)).data,),
                   [rng.normal(0, 1, m.classifier.in_dim) for _ in LABELS])


class TestDenseBaseline:
    def test_batched_forward_matches_single_images(self):
        net = build_baseline(3, (16, 16), 3)
        imgs = [np.random.default_rng(i).uniform(0, 1, (16, 16)) for i in range(5)]
        batch = baseline_forward(net, Tensor(np.stack(imgs))).data
        single = np.stack([baseline_forward(net, Tensor(img)).data for img in imgs])
        assert batch.shape == single.shape == (5, 3)
        assert rel_err(batch, single) <= 1e-12

    def test_evaluate_chunks_agree_with_per_image_argmax(self, monkeypatch):
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=4, samples_per_class=4))
        net = build_baseline(4, (16, 16), 3)
        monkeypatch.setattr(train_module, "EVAL_CHUNK", 5)   # 12 images: a ragged last chunk
        conf = np.asarray(sa.evaluate_baseline(net, data).confusion)
        want = np.zeros((3, 3), dtype=np.int64)
        for s in data:
            want[s.label, int(np.argmax(baseline_forward(net, s.pixels).data))] += 1
        np.testing.assert_array_equal(conf, want)

    def test_numeric_abort_restores_the_last_completed_epoch(self, monkeypatch):
        """12 images: 9 fit in 3 steps and 3 validate in 1 batch per epoch, so
        the 6th loss is the second step of epoch 1; it is made NaN."""
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=6, samples_per_class=4))
        config = sa.TrainConfig(epochs=1, batch_size=4, seed=6, learning_rate=3e-3)
        one_epoch, _ = sa.train_baseline(build_baseline(6, (16, 16), 3), data, config)

        calls = []

        def poisoned(logits, labels, cfg):
            calls.append(len(calls))
            loss = focal_loss(logits, labels, cfg)
            return mul(loss, np.nan) if len(calls) == 6 else loss

        monkeypatch.setattr(baseline_module, "focal_loss", poisoned)
        net = build_baseline(6, (16, 16), 3)
        config.epochs = 3
        with pytest.raises(NumericError):
            sa.train_baseline(net, data, config)
        assert len(calls) == 6
        for (name, got), (_, want) in zip(net.params(), one_epoch.params()):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)


class TestTapeCost:
    def step_ops(self, m, batch):
        cfg = sa.TrainConfig().loss
        tape = GradientTape()
        tape.watch(*[t for _, t in m.params()])
        report, _ = train_module._batch_report(m, batch, K, cfg)
        ops = len(tape._ops)
        tape.backward(report.total_tensor)
        for _, t in m.params():
            t.grad = None
        return ops

    def test_ops_per_step_do_not_grow_with_the_batch(self):
        """A sparse step records the same 85 ops at any batch size, so an op
        added to the step fails here."""
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=2, samples_per_class=4))
        m = sa.build_model(seed=2, image_shape=(16, 16), class_count=3, hidden=8,
                           k_init=K, k_min=2)
        small, large = self.step_ops(m, data[::2]), self.step_ops(m, data)
        assert small == large
        assert large == 85

    def test_a_finished_step_leaves_no_reference_cycle(self):
        """Backward closures hold arrays, not tensors, so a spent tape and
        everything it recorded are freed by reference counting alone."""
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=2, samples_per_class=2))
        m = sa.build_model(seed=2, image_shape=(16, 16), class_count=3, hidden=8,
                           k_init=K, k_min=2)
        gc.collect()
        gc.disable()
        try:
            self.step_ops(m, data)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestShapeContract:
    def test_model_forward_rejects_other_shapes(self):
        m = small_model()
        with pytest.raises(DatasetError):
            model_forward(m, Tensor(np.zeros((12, 12))), K)
        with pytest.raises(DatasetError):
            model_forward(m, Tensor(np.zeros((2, 12, 10))), K)

    def test_evaluate_and_train_reject_other_shapes(self):
        m = sa.build_model(seed=1, image_shape=(16, 16), class_count=3, hidden=8,
                           k_init=20, k_min=10)
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=1, samples_per_class=2))
        odd = sa.generate(sa.SyntheticSpec(image_size=20, seed=1, samples_per_class=1))
        before = [t.data.copy() for _, t in m.params()]
        with pytest.raises(DatasetError):
            sa.evaluate(m, data + odd)
        with pytest.raises(DatasetError):
            sa.train(m, data + odd, sa.TrainConfig(epochs=1, batch_size=4))
        for (name, t), b in zip(m.params(), before):
            np.testing.assert_array_equal(t.data, b, err_msg=name)
