"""Multiply-accumulate accounting: conv formula, stage sums, token-linear
fine stage, sparse-vs-dense scaling behavior, and each stage's count
against the multiplies a forward pass executes.
"""

import importlib

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.baseline import baseline_cost, build_baseline
from sparseattn.cost import conv_flops, count_cost
from sparseattn.tensor import Tensor


def model_at(shape=(32, 32), hidden=32, dim=4):
    return sa.build_model(seed=0, image_shape=shape, class_count=3,
                          hidden=hidden, dim=dim, k_init=100, k_min=10)


class TestConvFormula:
    def test_stated_example(self):
        # H=W=4, C_in=1, K=3, C_out=8 -> 4*4*1*9*8 = 1152
        assert conv_flops(4, 4, 1, 3, 8) == 1152


class TestCountCost:
    def test_stage_flops_sum_to_total(self):
        report = count_cost(model_at(), (32, 32), k=150)
        assert report.total_flops == sum(report.stage_flops.values())
        assert set(report.stage_flops) == {"coarse", "embedding", "fine",
                                           "classifier"}

    def test_fine_stage_linear_in_token_count(self):
        """Doubling the token count (pixels + CLS) exactly doubles the fine
        stage; per-token projections are linear."""
        m = model_at()
        k = 63                       # 64 tokens with CLS
        small = count_cost(m, (32, 32), k).stage_flops["fine"]
        big = count_cost(m, (32, 32), 2 * k + 1).stage_flops["fine"]
        assert big == 2 * small

    def test_fifteen_percent_budget_scales_by_token_ratio(self):
        m = model_at()
        n = 32 * 32
        k_sparse = int(0.15 * n)
        sparse_fine = count_cost(m, (32, 32), k_sparse).stage_flops["fine"]
        full_fine = count_cost(m, (32, 32), n).stage_flops["fine"]
        assert sparse_fine < full_fine
        assert sparse_fine * (n + 1) == full_fine * (k_sparse + 1)

    def test_k_zero_keeps_cls_row_cost(self):
        report = count_cost(model_at(), (32, 32), k=0)
        assert report.stage_flops["fine"] > 0
        assert report.stage_flops["embedding"] == 0
        assert report.stage_flops["coarse"] == \
            count_cost(model_at(), (32, 32), k=50).stage_flops["coarse"]

    def test_pixel_percentage(self):
        # 2734 of 135*135 = 18225 pixels ≈ 15.0%
        report = count_cost(model_at(), (135, 135), k=2734)
        assert report.pixel_percent == pytest.approx(100 * 2734 / 18225)
        assert report.pixel_percent == pytest.approx(15.0, abs=0.01)
        full = count_cost(model_at(), (16, 16), k=256)
        assert full.pixel_percent == 100.0

    def test_default_model_parameter_count_is_desk_scale(self):
        m = sa.build_model(seed=0, image_shape=(32, 32), class_count=3,
                           k_init=100, k_min=10)    # hidden=64 default
        report = count_cost(m, (32, 32), k=100)
        assert report.parameters == m.param_count()
        assert report.parameters < 10 ** 5

    def test_coarse_stage_uses_conv_formula(self):
        report = count_cost(model_at(), (32, 32), k=10)
        assert report.stage_flops["coarse"] == \
            conv_flops(32, 32, 1, 3, 8) + conv_flops(32, 32, 8, 3, 1)


class TestSparseVsDense:
    def test_sparse_cheaper_than_dense_at_sparse_budget(self):
        m = model_at(hidden=32)
        sparse = count_cost(m, (32, 32), k=160)
        dense = baseline_cost(build_baseline(0, (32, 32), 3))
        assert sparse.total_flops < 0.5 * dense.total_flops
        assert sparse.parameters < dense.parameters

    def test_baseline_grows_with_area_fine_grows_with_k(self):
        m = model_at()
        fine_by_k = [count_cost(m, (32, 32), k).stage_flops["fine"]
                     for k in (50, 100, 200, 400)]
        assert all(b > a for a, b in zip(fine_by_k, fine_by_k[1:]))

        dense_by_area = [baseline_cost(build_baseline(0, (s, s), 3)).total_flops
                         for s in (16, 32, 64)]
        assert all(b > a for a, b in zip(dense_by_area, dense_by_area[1:]))
        # area quadruples between sizes; conv stages should track it
        assert dense_by_area[1] / dense_by_area[0] > 3.0

    def test_fine_stage_constant_in_image_area(self):
        m = model_at()
        a = count_cost(m, (32, 32), 100).stage_flops["fine"]
        b = count_cost(m, (64, 64), 100).stage_flops["fine"]
        assert a == b

    def test_report_dict_round_trip(self):
        report = count_cost(model_at(), (32, 32), 100)
        d = report.to_dict()
        assert d["total_flops"] == report.total_flops
        assert d["stage_flops"]["fine"] == report.stage_flops["fine"]


def conv_multiplies(x, kernel):
    b, c_in, h, w = x
    c_out, _, k, _ = kernel
    return b * h * w * c_in * k * k * c_out


def matmul_multiplies(a, b):
    """A (..., m, n) @ (..., n, p) product, leading batch axes included."""
    return int(np.prod(a[:-1])) * a[-1] * b[-1]


class CountedProducts(np.ndarray):
    """A parameter's array that adds to `executed[stage]` the multiplies of
    every matmul that it, or any array computed from it, takes part in, so a
    stage's products are counted however its code spells them. Subclasses
    set `stage` and `executed`."""

    stage: str
    executed: dict

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, np.ndarray) else a
        args = [plain(a) for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*args, **kwargs)
        if ufunc is np.matmul:
            self.executed[self.stage] += matmul_multiplies(args[0].shape, args[1].shape)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(type(self)) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("size,k,dim,heads,hidden,channels", [
    (16, 10, 4, 2, 8, 8), (16, 40, 8, 4, 32, 4), (12, 144, 6, 3, 16, 2)])
def test_count_cost_counts_the_executed_multiplies(monkeypatch, size, k, dim, heads,
                                                   hidden, channels):
    """Each stage of count_cost equals the multiplies one tape-free forward
    runs per image: in the coarse net's conv2d calls, and in every product
    that the embedding's, fine attention's and classifier's parameters feed;
    the fine stage adds its (k+1)·D attention normalization divides. No
    stage counts its per-channel affine."""
    executed = dict.fromkeys(("coarse", "embedding", "fine", "classifier"), 0)

    def counted_conv(fn):
        def wrapper(*args):
            executed["coarse"] += conv_multiplies(*[a.data.shape for a in args[:2]])
            return fn(*args)
        return wrapper

    coarse = importlib.import_module("sparseattn.coarse")
    monkeypatch.setattr(coarse, "conv2d", counted_conv(coarse.conv2d))
    m = sa.build_model(seed=3, image_shape=(size, size), class_count=3, dim=dim,
                       heads=heads, hidden=hidden, coarse_channels=channels,
                       k_init=k, k_min=1)
    for stage, module in (("embedding", m.embedder), ("fine", m.fine),
                          ("classifier", m.classifier)):
        counted = type(f"{stage}_products", (CountedProducts,),
                       {"stage": stage, "executed": executed})
        for _, t in module.params():
            t.data = t.data.view(counted)
    batch = 2
    images = Tensor(np.random.default_rng(3).uniform(0, 1, (batch, size, size)))
    logits, diag = sa.model_forward(m, images, k)
    assert logits.data.shape == (batch, 3) and diag.pixels.triplets.shape == (batch, k, 3)
    stages = count_cost(m, (size, size), k).stage_flops
    divides = {"fine": (k + 1) * dim}
    assert {stage: n + batch * divides.get(stage, 0) for stage, n in executed.items()} == \
        {stage: batch * n for stage, n in stages.items()}
