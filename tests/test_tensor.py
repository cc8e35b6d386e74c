"""Numeric core: op semantics, backward rules against finite differences,
tape discipline, and the binary serialization round trip.
"""

import ctypes
import inspect
import os
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import sparseattn.tensor as T
from sparseattn.coarse import _pooled_mean, affine_relu
from sparseattn.embedding import Embedder, embed_pixels
from sparseattn.fine import FineAttention, fine_forward
from sparseattn.model import Classifier, classifier_forward
from sparseattn.selector import KController
from sparseattn.tensor import (
    DimensionError,
    DomainError,
    GradientTape,
    Module,
    NumericError,
    TapeError,
    Tensor,
    grad_check,
)
from sparseattn.train import AdamW


def scalar(fn):
    """Wrap an elementwise/tensor fn into a scalar function for grad_check."""
    return lambda x: T.reduce_sum(fn(x))


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(eye, m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_square_backward(self):
        tape = GradientTape()
        x = Tensor([[3.0]])
        tape.watch(x)
        tape.backward(T.reduce_sum(T.matmul(x, x)))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Tensor(rng.normal(0, 1, (4, 5)))
            b = Tensor(rng.normal(0, 1, (5, 6)))
            c = Tensor(rng.normal(0, 1, (6, 3)))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            denom = np.maximum(np.abs(left), 1.0)
            assert np.max(np.abs(left - right) / denom) < 1e-9


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_equals_the_two_branch_formula_bit_for_bit(self):
        """One exp(-|x|) gives the bits of exp(-x) where x >= 0 and of exp(x)
        elsewhere, at signed zeros, subnormal-scale, overflowing and infinite
        inputs and NaN, with no warning (pytest turns warnings into errors)."""
        rng = np.random.default_rng(98)
        x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, np.inf, -np.inf,
                             np.nan], rng.normal(0, 20, 200)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        got = T.sigmoid(Tensor(x)).data
        np.testing.assert_array_equal(got, want)
        finite = ~np.isnan(x)
        np.testing.assert_array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
        assert np.isnan(got[8])

    def test_sigmoid_one_quotient_equals_two_quotients_bit_for_bit(self):
        """Dividing the branch's numerator once by 1 + e gives the bits of
        the two quotients it replaced, NaN's included."""
        rng = np.random.default_rng(99)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0],
                            rng.normal(0, 1, 8192)])
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = T.sigmoid(Tensor(x)).data
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_relu_definition(self):
        assert T.relu(Tensor(-2.5)).item() == 0.0
        assert T.relu(Tensor(3.0)).item() == 3.0

    def test_relu_gradient_of_a_channel_minor_input_is_exact(self):
        """The coarse conv1 output is a channel-minor view; relu's backward on
        it equals g * (x > 0) bit for bit, zeros and negative zeros included."""
        rng = np.random.default_rng(97)
        data = rng.normal(0, 1, (2, 5, 4, 8))
        data[0, 0, 0, :3] = [0.0, -0.0, 1e-300]
        x = Tensor(data.transpose(0, 3, 1, 2))
        assert not x.data.flags["C_CONTIGUOUS"]
        g = rng.normal(0, 1, x.data.shape)
        tape = GradientTape()
        tape.watch(x)
        out = T.relu(x)
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0.0))
        tape.backward(T.reduce_sum(T.mul(out, g)))
        np.testing.assert_array_equal(x.grad, g * (x.data > 0))

    def test_sigmoid_backward_at_zero(self):
        tape = GradientTape()
        x = Tensor(0.0)
        tape.watch(x)
        tape.backward(T.sigmoid(x))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, -1.0]))

    def test_numpy_broadcasting(self):
        out = T.add(Tensor([1.0, 2.0]), 3.0)
        np.testing.assert_array_equal(out.data, [4.0, 5.0])
        out = T.add(Tensor(np.ones((2, 2))), Tensor([1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [2.0, 3.0]])
        with pytest.raises(DimensionError, match=r"\(2, 3\) and \(2,\) do not broadcast"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))

    def test_power_zero_exponent_is_exact_ones(self):
        out = T.power(Tensor([0.3, 0.0, 2.0]), 0.0)
        np.testing.assert_array_equal(out.data, [1.0, 1.0, 1.0])

    def test_power_below_one_at_zero_passes_a_zero_gradient(self):
        """The slope of x^0.5 at 0 is infinite: a zero upstream gradient
        stays 0 there, a non-zero one still gives a non-finite gradient."""
        tape = GradientTape()
        x = Tensor([0.0, 4.0])
        tape.watch(x)
        tape.backward(T.reduce_sum(T.mul(T.power(x, 0.5), [0.0, 1.0])))
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])
        tape = GradientTape()
        x = Tensor([0.0, 4.0])
        tape.watch(x)
        with pytest.raises(NumericError):
            tape.backward(T.reduce_sum(T.power(x, 0.5)))


class TestReduce:
    def test_sum(self):
        assert T.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_axis0(self):
        out = T.reduce_mean(Tensor([[1.0, 3.0], [3.0, 5.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [2.0, 4.0])

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            T.reduce_sum(Tensor([1.0]), axis=1)


def wide_range(rng, shape):
    """Values whose sums depend on the order of their adds: magnitudes over
    32 decades, both signs, signed zeros and a run of ±1e16."""
    a = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-16, 16, shape)
    flat = a.reshape(-1)
    flat[::5] = -0.0
    flat[1::7] = 0.0
    flat[2:40:3] = 1e16
    flat[3:40:3] = -1e16
    return a


class TestOuterAxisSums:
    """_sum_middle is a.sum(axis=1) byte for byte, and _unbroadcast routes
    through it only for one contiguous run of summed axes of a C-contiguous
    gradient."""

    @pytest.mark.parametrize("shape", [(3, 1024, 1), (3, 7, 1), (3, 1, 1), (1, 1024, 1),
                                       (5, 1, 4), (1, 1, 16), (1, 4096, 16), (1, 4096, 4),
                                       (32, 513, 4), (8, 1024, 8), (2, 9, 2), (4, 6, 3)])
    def test_sum_middle_is_numpys_sum(self, shape):
        a = wide_range(np.random.default_rng(sum(shape)), shape)
        assert T._sum_middle(a).tobytes() == a.sum(axis=1).tobytes()

    def test_sum_middle_of_signed_zeros_is_positive_zero(self):
        for shape in [(2, 1, 3), (2, 5, 3), (2, 9, 1)]:
            a = np.full(shape, -0.0)
            assert T._sum_middle(a).tobytes() == a.sum(axis=1).tobytes()
            assert not np.signbit(T._sum_middle(a)).any()

    @pytest.mark.parametrize("g_shape,shape,axes", [
        ((4096, 16), (16,), (0,)),               # the embedding's b1
        ((2048, 4), (4,), (0,)),                 # the embedding's b2
        ((32, 3), (3,), (0,)),                   # a classifier bias
        ((8, 161, 4), (8, 1, 4), (1,)),          # the fine stage's column-sum divisor
        ((6, 5, 7, 3), (7, 3), (0, 1)),          # two leading axes
        ((1, 9, 4), (1, 1, 4), (1,)),            # a size-1 axis beside the summed run
        ((33, 2), (33, 1), (1,)),                # a kept width of 1
        ((5, 6), (), (0, 1)),                    # every axis
    ])
    def test_unbroadcast_of_one_run_takes_sum_middle(self, g_shape, shape, axes, monkeypatch):
        g = wide_range(np.random.default_rng(len(g_shape)), g_shape)
        want = g.sum(axis=axes).reshape(shape)
        calls = []
        monkeypatch.setattr(T, "_sum_middle", lambda a: calls.append(a.shape) or a.sum(axis=1))
        T._unbroadcast(g, shape)
        assert len(calls) == 1
        monkeypatch.undo()
        assert T._unbroadcast(g, shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["cls-row", "channel-axes"])
    def test_other_reductions_stay_on_sum(self, case, monkeypatch):
        """The CLS row g[..., k:, :] of a batch is not contiguous, and
        affine_relu's per-channel sums run over axes (0, 2, 3)."""
        rng = np.random.default_rng(7)
        if case == "cls-row":
            g, shape, axes = wide_range(rng, (8, 161, 4))[:, 160:, :], (4,), (0, 1)
        else:
            g, shape, axes = wide_range(rng, (8, 8, 32, 32)), (8, 1, 1), (0, 2, 3)
        monkeypatch.setattr(T, "_sum_middle", lambda a: pytest.fail("took _sum_middle"))
        got = T._unbroadcast(g, shape)
        assert got.tobytes() == g.sum(axis=axes).tobytes()


class TestConv2d:
    def test_zero_input_passes_bias(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor([0.7, -0.2])
        out = T.conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, 0], 0.7)
        np.testing.assert_allclose(out.data[0, 1], -0.2)

    def test_ones_center_element(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, Tensor([0.0]))
        assert out.data[0, 0, 1, 1] == 9.0

    def test_same_padding_shape(self):
        x = Tensor(np.random.default_rng(0).normal(0, 1, (1, 1, 32, 32)))
        w = Tensor(np.random.default_rng(1).normal(0, 1, (4, 1, 3, 3)))
        out = T.conv2d(x, w, Tensor(np.zeros(4)))
        assert out.data.shape == (1, 4, 32, 32)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channels"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))), Tensor([0.0]))

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError, match="odd"):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                     Tensor(np.zeros((1, 1, 2, 2))), Tensor([0.0]))

    def test_non_square_kernel_rejected(self):
        for c_out in (1, 4):   # both window strategies
            with pytest.raises(DimensionError, match="square"):
                T.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((c_out, 2, 3, 1))),
                         Tensor(np.zeros(c_out)))

    def test_bias_shape_rejected(self):
        for c_out in (1, 4):   # both window strategies
            with pytest.raises(DimensionError, match="bias"):
                T.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((c_out, 2, 3, 3))),
                         Tensor(np.zeros(c_out + 1)))

    def test_unbatched_input_rejected(self):
        with pytest.raises(DimensionError, match="B×C×H×W"):
            T.conv2d(Tensor(np.zeros((1, 4, 4))),
                     Tensor(np.zeros((1, 1, 3, 3))), Tensor([0.0]))


class TestGradCheck:
    def test_polynomial_is_exact(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(0, 1, (3, 2)))
        err = grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x)
        assert err < 1e-6

    def test_every_op_at_random_points(self):
        """Each differentiable op stays within 1e-4 of central differences."""
        rng = np.random.default_rng(23)
        probes = {
            "relu": scalar(T.relu),
            "sigmoid": scalar(T.sigmoid),
            "exp": scalar(T.exp),
            "power2.7": scalar(lambda x: T.power(x, 2.7)),
            "clamp": scalar(lambda x: T.clamp_min(x, 0.1)),
            "sum": lambda x: T.reduce_sum(x),
            "mean0": lambda x: T.reduce_sum(T.reduce_mean(x, axis=0)),
            "transpose": lambda x: T.reduce_sum(T.mul(T.transpose(x), T.transpose(x))),
            "reshape": lambda x: T.reduce_sum(T.exp(T.reshape(x, (6,)))),
            "take": lambda x: T.reduce_sum(T.take(x, [[1, 0, 1], [2, 2, 0]])),
        }
        for name, f in probes.items():
            for _ in range(10):
                point = Tensor(rng.uniform(0.3, 2.0, (2, 3)))
                err = grad_check(f, point, eps=1e-5)
                assert err <= 1e-4, f"{name}: {err}"

    def test_binary_ops_both_sides(self):
        rng = np.random.default_rng(31)
        other = Tensor(rng.uniform(0.5, 1.5, (2, 3)))
        vec = Tensor(rng.uniform(0.5, 1.5, 3))
        col = Tensor(rng.uniform(0.5, 1.5, (2, 1)))
        probes = [
            lambda x: T.reduce_sum(T.mul(T.add(x, other), T.sub(x, other))),
            lambda x: T.reduce_sum(T.div(x, other)),
            lambda x: T.reduce_sum(T.div(other, x)),
            lambda x: T.reduce_sum(T.mul(T.add(x, vec), x)),
            lambda x: T.reduce_sum(T.mul(x, vec)),
            lambda x: T.reduce_sum(T.div(x, vec)),
            lambda x: T.reduce_sum(T.div(x, col)),
            lambda x: T.reduce_sum(T.log(x)),
            lambda x: T.reduce_sum(T.concat([x, T.mul(x, 2.0)], axis=0)),
        ]
        for _ in range(10):
            point = Tensor(rng.uniform(0.3, 2.0, (2, 3)))
            for f in probes:
                assert grad_check(f, point, eps=1e-5) <= 1e-4

    def test_rowvec_ops_through_vector_side(self):
        rng = np.random.default_rng(37)
        mat = Tensor(rng.uniform(0.5, 1.5, (4, 3)))
        for f in (lambda v: T.reduce_sum(T.add(mat, v)),
                  lambda v: T.reduce_sum(T.mul(mat, v)),
                  lambda v: T.reduce_sum(T.div(mat, v)),
                  lambda v: T.reduce_sum(T.sub(v, mat))):
            point = Tensor(rng.uniform(0.5, 1.5, 3))
            assert grad_check(f, point, eps=1e-5) <= 1e-4
        per_channel = lambda v: T.reshape(v, (3, 1, 1))
        f = lambda v: T.reduce_sum(T.add(T.mul(T.reshape(mat, (3, 2, 2)), per_channel(v)),
                                         per_channel(T.mul(v, 0.5))))
        assert grad_check(f, Tensor(rng.uniform(0.5, 1.5, 3)), eps=1e-5) <= 1e-4

    def test_conv2d_all_arguments(self):
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(0, 1, (1, 2, 5, 5)))
        w = Tensor(rng.normal(0, 0.5, (3, 2, 3, 3)))
        b = Tensor(rng.normal(0, 0.5, 3))

        def loss_from(x_, w_, b_):
            out = T.conv2d(x_, w_, b_)
            return T.reduce_sum(T.mul(out, out))

        assert grad_check(lambda t: loss_from(t, w, b), x) <= 1e-4
        assert grad_check(lambda t: loss_from(x, t, b), w) <= 1e-4
        assert grad_check(lambda t: loss_from(x, w, t), b) <= 1e-4

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: T.reduce_sum(x), Tensor([1.0]), eps=1e-2)


# op name -> (the op as a function of its tensor operands, one operand array each)
MULTI_OPERAND = {
    "add": (T.add, (np.ones(2), np.ones(2))),
    "sub": (T.sub, (np.ones(2), np.ones(2))),
    "mul": (T.mul, (np.ones(2), np.ones(2))),
    "div": (T.div, (np.ones(2), np.full(2, 2.0))),
    "matmul": (T.matmul, (np.ones((2, 3)), np.ones((3, 2)))),
    "concat": (lambda *parts: T.concat(parts), (np.ones(2), np.ones(3), np.ones(1))),
    "conv2d": (T.conv2d, (np.ones((1, 1, 4, 4)), np.ones((2, 1, 3, 3)), np.ones(2))),
}
SINGLE_OPERAND = {
    "relu": (T.relu, (np.ones(2),)),
    "sigmoid": (T.sigmoid, (np.ones(2),)),
    "exp": (T.exp, (np.ones(2),)),
    "log": (T.log, (np.ones(2),)),
    "power": (lambda a: T.power(a, 2.0), (np.ones(2),)),
    "clamp_min": (lambda a: T.clamp_min(a, 0.5), (np.ones(2),)),
    "transpose": (T.transpose, (np.ones((2, 3)),)),
    "reshape": (lambda a: T.reshape(a, (6,)), (np.ones((2, 3)),)),
    "take": (lambda a: T.take(a, [[1, 0], [2, 2]]), (np.ones((2, 3)),)),
    "softmax": (T.softmax, (np.ones((2, 3)),)),
    "reduce_sum": (T.reduce_sum, (np.ones((2, 3)),)),
    "reduce_mean": (lambda a: T.reduce_mean(a, axis=0), (np.ones((2, 3)),)),
    "avg_pool2": (T.avg_pool2, (np.ones((1, 1, 2, 2)),)),
}
ALL_OPS = {**MULTI_OPERAND, **SINGLE_OPERAND}


def _fused_stages():
    """The model's fused stages, name -> (the stage as a function of nothing,
    its parents in the order it records them)."""
    rng = np.random.default_rng(12)
    emb, fa = Embedder(rng), FineAttention(rng)
    clf = Classifier(rng, in_dim=6, hidden=5, classes=3)
    x, gamma, beta = (Tensor(rng.normal(0, 1, shape)) for shape in ((3, 4), (4,), (4,)))
    tokens, fused = Tensor(rng.normal(0, 1, (2, 5, 4))), Tensor(rng.normal(0, 1, (2, 6)))
    fmap = Tensor(rng.normal(0, 1, (2, 3, 4, 4)))
    triplets = rng.uniform(0, 1, (2, 4, 3))
    params = lambda m: [t for _, t in m.params()]
    return {
        "affine_relu": (lambda: affine_relu(x, gamma, beta), [x, gamma, beta]),
        "embed_pixels": (lambda: embed_pixels(emb, triplets), params(emb)),
        "fine_forward": (lambda: fine_forward(fa, tokens).z_fine, [tokens] + params(fa)),
        "classifier_forward": (lambda: classifier_forward(clf, fused), [fused] + params(clf)),
        "_pooled_mean": (lambda: _pooled_mean(fmap), [fmap]),
    }


class TestTape:
    def test_disconnected_parameter_grad_is_exactly_zero(self):
        tape = GradientTape()
        used = Tensor([1.0, 2.0])
        unused = Tensor([[5.0]])
        tape.watch(used, unused)
        tape.backward(T.reduce_sum(T.mul(used, used)))
        np.testing.assert_array_equal(unused.grad, [[0.0]])

    def test_single_use(self):
        tape = GradientTape()
        x = Tensor([1.0])
        tape.watch(x)
        y = T.reduce_sum(x)
        tape.backward(y)
        with pytest.raises(TapeError):
            tape.backward(y)

    def test_a_replayed_tape_holds_no_ops_and_stays_single_use(self):
        tape = GradientTape()
        x = Tensor(np.arange(6.0).reshape(2, 3))
        tape.watch(x)
        y = T.reduce_sum(T.mul(T.relu(x), x))
        assert len(tape._ops) == 3
        backward = weakref.ref(tape._ops[-1][2])
        tape.backward(y)
        assert tape._ops == []
        assert backward() is None   # nothing else keeps the replayed closures
        np.testing.assert_array_equal(x.grad, 2 * np.arange(6.0).reshape(2, 3))
        with pytest.raises(TapeError, match="single-use"):
            tape.backward(y)

    def test_non_scalar_root_rejected(self):
        tape = GradientTape()
        x = Tensor([1.0, 2.0])
        tape.watch(x)
        with pytest.raises(TapeError):
            tape.backward(T.mul(x, 2.0))

    def test_nonfinite_root_raises(self):
        tape = GradientTape()
        x = Tensor([1e308])
        tape.watch(x)
        y = T.reduce_sum(T.mul(x, Tensor([1e308])))
        with pytest.raises(NumericError):
            tape.backward(y)

    def test_forward_only_records_nothing(self):
        x = Tensor([1.0, 2.0])
        y = T.mul(T.add(x, 1.0), x)
        assert y.tape is None and y.tape_id is None

    def test_grad_accumulates_over_shared_use(self):
        tape = GradientTape()
        x = Tensor([2.0])
        tape.watch(x)
        tape.backward(T.reduce_sum(T.add(T.mul(x, 3.0), T.mul(x, 4.0))))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reshape_to_its_own_shape_is_free(self):
        tape = GradientTape()
        t = Tensor(np.ones((2, 3)))
        tape.watch(t)
        assert T.reshape(t, t.data.shape) is t
        assert T.reshape(t, (-1, 3)) is t
        assert len(tape._ops) == 0
        flat = T.reshape(t, (6,))
        assert len(tape._ops) == 1
        tape.backward(T.reduce_sum(T.mul(T.reshape(flat, (6,)), 2.0)))
        np.testing.assert_array_equal(t.grad, np.full((2, 3), 2.0))

    @pytest.mark.parametrize("name", sorted(MULTI_OPERAND))
    def test_cross_tape_operands_rejected(self, name):
        """The first operand on one tape and any other on a second."""
        op, arrays = MULTI_OPERAND[name]
        for i in range(1, len(arrays)):
            operands = [Tensor(a) for a in arrays]
            GradientTape().watch(operands[0])
            GradientTape().watch(operands[i])
            with pytest.raises(TapeError, match="different tapes"):
                op(*operands)

    @pytest.mark.parametrize("name", sorted(ALL_OPS) + sorted(_fused_stages()))
    def test_op_on_constants_returns_a_constant_and_records_nothing(self, name):
        if name in ALL_OPS:
            op, arrays = ALL_OPS[name]
            run = lambda: op(*[Tensor(a) for a in arrays])
        else:
            run = _fused_stages()[name][0]
        tape = GradientTape()
        tape.watch(Tensor([1.0]))
        out = run()
        assert out.tape is None and out.tape_id is None
        assert tape._ops == []

    def test_op_tables_cover_every_op(self):
        ops = {name for name, f in vars(T).items() if inspect.isfunction(f)
               and not name.startswith("_") and f.__annotations__.get("return") == "Tensor"}
        assert set(ALL_OPS) == ops
        assert len(ALL_OPS) == len(MULTI_OPERAND) + len(SINGLE_OPERAND)


class TestOneBackward:
    """_record's one rule: an op makes its output with one
    _record(tape, data, parents, backward) call; on a tape, the backward
    maps the output gradient to one gradient per parent, and the tape adds
    each to its parent in order."""

    @staticmethod
    def product(a, b, log):
        """a * b as a toy op whose backward logs the gradient it receives."""
        ad, bd = a.data, b.data

        def backward(g):
            log.append(g)
            return g * bd, g * ad
        return T._record(T._common_tape(a, b), ad * bd, (a, b), backward)

    def test_backward_runs_once_on_the_output_gradient(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        tape = GradientTape()
        tape.watch(a, b)
        log = []
        tape.backward(T.reduce_sum(T.mul(self.product(a, b, log), [7.0, 11.0])))
        assert len(log) == 1
        np.testing.assert_array_equal(log[0], [7.0, 11.0])
        np.testing.assert_array_equal(a.grad, [21.0, 55.0])
        np.testing.assert_array_equal(b.grad, [7.0, 22.0])

    def test_backward_skipped_when_the_output_gets_no_gradient(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        tape = GradientTape()
        tape.watch(a, b)
        log = []
        self.product(a, b, log)            # recorded, but the root does not read it
        tape.backward(T.reduce_sum(T.mul(a, b)))
        assert log == []
        np.testing.assert_array_equal(a.grad, [3.0, 5.0])

    def test_a_parent_listed_twice_gets_both_gradients(self):
        x = Tensor([3.0, 5.0])
        tape = GradientTape()
        tape.watch(x)
        tape.backward(T.reduce_sum(T.mul(T.mul(x, x), [1.0, 2.0])))
        np.testing.assert_array_equal(x.grad, [6.0, 20.0])

    def test_a_backward_one_gradient_short_raises(self):
        a, b = Tensor([1.0]), Tensor([2.0])
        tape = GradientTape()
        tape.watch(a, b)
        bd = b.data
        out = T._record(tape, a.data * bd, (a, b), lambda g: (g * bd,))
        with pytest.raises(ValueError, match="shorter"):
            tape.backward(T.reduce_sum(out))

    def test_a_tape_free_record_is_a_constant_that_keeps_no_backward(self):
        """Tape-free, _record drops the backward, and with it every array
        the backward captured."""
        backward = lambda g: (g,)
        ref = weakref.ref(backward)
        out = T._record(None, np.ones(2), (Tensor(np.ones(2)),), backward)
        assert out.tape is None and out.tape_id is None
        np.testing.assert_array_equal(out.data, np.ones(2))
        del backward
        assert ref() is None

    @pytest.mark.parametrize("name", sorted(ALL_OPS) + sorted(_fused_stages()))
    def test_an_op_records_one_backward_with_a_gradient_per_parent(self, name):
        """Every operand watched: one tape entry (out_id, parent_ids,
        backward), and backward returns one array per parent, parent order,
        each shaped like its parent."""
        if name in ALL_OPS:
            op, arrays = ALL_OPS[name]
            parents = [Tensor(a) for a in arrays]
            run = lambda: op(*parents)
        else:
            run, parents = _fused_stages()[name]
        tape = GradientTape()
        tape.watch(*parents)
        out = run()
        assert len(tape._ops) == 1
        out_id, parent_ids, backward = tape._ops[0]
        assert out_id == out.tape_id
        assert parent_ids == tuple(p.tape_id for p in parents)
        grads = backward(np.random.default_rng(4).normal(0, 1, out.data.shape))
        assert len(grads) == len(parents)
        for g, p in zip(grads, parents):
            assert isinstance(g, np.ndarray) and g.shape == p.data.shape


@pytest.mark.parametrize("c_in,c_out", [(2, 3), (3, 2)], ids=["im2col", "tap"])
class TestConvInputGradient:
    """conv2d computes its input's gradient only when the input is on the
    tape: the image that the coarse and the baseline conv1 read is not."""

    @staticmethod
    def backward_of(c_in, c_out, watch_input, monkeypatch):
        """conv2d's recorded backward, on a 2×C_in×5×6 batch with the kernel
        and bias watched and the input too if watch_input, applied to an
        upstream gradient g. Returns its gradients, the signs at which it
        called _shifted_sum, and the arrays x, kernel, bias and g."""
        rng = np.random.default_rng(10 * c_in + c_out)
        arrays = (rng.normal(0, 1, (2, c_in, 5, 6)), rng.normal(0, 1, (c_out, c_in, 3, 3)),
                  rng.normal(0, 1, c_out))
        x, kernel, bias = (Tensor(a) for a in arrays)
        tape = GradientTape()
        tape.watch(kernel, bias, *([x] if watch_input else []))
        T.conv2d(x, kernel, bias)
        _, parent_ids, backward = tape._ops[-1]
        assert (parent_ids[0] is not None) == watch_input
        signs, shifted_sum = [], T._shifted_sum
        monkeypatch.setattr(T, "_shifted_sum",
                            lambda taps, sign: signs.append(sign) or shifted_sum(taps, sign))
        g = rng.normal(0, 1, (2, c_out, 5, 6))
        return backward(g), signs, arrays + (g,)

    def test_a_constant_input_gets_none(self, c_in, c_out, monkeypatch):
        (dx, dw, db), signs, _ = self.backward_of(c_in, c_out, False, monkeypatch)
        assert dx is None and dw.shape == (c_out, c_in, 3, 3) and db.shape == (c_out,)
        assert -1 not in signs

    def test_a_watched_input_gets_its_gradient(self, c_in, c_out, monkeypatch):
        (dx, _, _), signs, (x0, w0, b0, g) = self.backward_of(c_in, c_out, True, monkeypatch)
        assert (-1 in signs) == (c_in <= c_out)   # the im2col path's col2im
        x = Tensor(x0)
        tape = GradientTape()
        tape.watch(x)
        tape.backward(T.reduce_sum(T.mul(T.conv2d(x, Tensor(w0), Tensor(b0)), g)))
        assert dx.tobytes() == x.grad.tobytes()


class TestSerialization:
    def test_binary_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        named = [("a", Tensor(rng.normal(0, 1, (3, 4, 2)))), ("scalar", Tensor(-2.5))]
        meta, arrays = T.unpack(T.pack(b"TEST", 7, {"n": 1}, named), b"TEST", 7)
        assert meta == {"n": 1} and list(arrays) == ["a", "scalar"]
        for name, t in named:
            assert arrays[name].shape == t.data.shape
            assert arrays[name].tobytes() == t.data.tobytes()

    def test_magic_and_layout(self):
        """Header, metadata and record count, then the name, then the first
        record: SATN, u32 rank, u32 extents, little-endian f64 data."""
        raw = T.pack(b"TEST", 7, {}, [("w", Tensor([[1.0, 2.0]]))])
        record = 4 + 8 + len(b"{}") + 4 + 2 + len(b"w")
        assert raw[record - 3:record] == b"\x01\x00w"
        assert raw[record:record + 4] == b"SATN"
        assert int.from_bytes(raw[record + 4:record + 8], "little") == 2    # rank
        assert int.from_bytes(raw[record + 8:record + 12], "little") == 1   # extents
        assert int.from_bytes(raw[record + 12:record + 16], "little") == 2
        assert np.frombuffer(raw[record + 16:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_bad_magic_rejected(self):
        raw = bytearray(T.pack(b"TEST", 7, {}, [("w", Tensor([1.0]))]))
        record = raw.index(b"SATN")
        raw[record:record + 4] = b"XXXX"
        with pytest.raises(ValueError, match="bad tensor magic b'XXXX'"):
            T.unpack(bytes(raw), b"TEST", 7)

    def test_trailing_bytes_counted(self):
        raw = T.pack(b"TEST", 7, {}, [("w", Tensor([1.0, 2.0]))])
        with pytest.raises(ValueError, match="^3 trailing bytes after the last record$"):
            T.unpack(raw + b"\x00" * 3, b"TEST", 7)


class _Inner(Module):
    def __init__(self):
        self.a = Tensor(np.ones((2, 3)))
        self.deeper = _Leaf()


class _Leaf(Module):
    def __init__(self):
        self.x = Tensor(np.ones(1))


class _Toy(Module):
    """An int, a Tensor, a sub-Module and a non-Module object, then a
    Tensor assigned last."""

    def __init__(self):
        self.size = 3
        self.w = Tensor(np.full(4, 2.0))
        self.inner = _Inner()
        self.controller = KController()
        self.late = Tensor(np.full(3, 5.0))


class TestModule:
    """Module.params: the Tensor attributes in assignment order, a
    sub-Module's under its attribute name, nothing else."""

    def test_names_in_init_order(self):
        toy = _Toy()
        assert [name for name, _ in toy.params()] == [
            "w", "inner.a", "inner.deeper.x", "late"]
        assert [t for _, t in toy.params()] == [toy.w, toy.inner.a, toy.inner.deeper.x, toy.late]
        assert toy.param_count() == 4 + 6 + 1 + 3

    def test_module_without_tensors_has_none(self):
        assert Module().params() == [] and Module().param_count() == 0

    def test_last_tensor_is_stepped_and_packed(self):
        """A tensor added at the end of __init__ needs no list: AdamW steps
        it and pack writes it, as the last record."""
        toy = _Toy()
        tape = GradientTape()
        tape.watch(*(t for _, t in toy.params()))
        tape.backward(T.reduce_sum(T.mul(toy.late, [1.0, -1.0, 2.0])))
        AdamW(toy.params(), learning_rate=0.1, weight_decay=0.0).step()
        np.testing.assert_allclose(toy.late.data, [4.9, 5.1, 4.9])
        np.testing.assert_array_equal(toy.w.data, np.full(4, 2.0))
        _, arrays = T.unpack(T.pack(b"TEST", 1, {}, toy.params()), b"TEST", 1)
        assert list(arrays)[-1] == "late"
        assert arrays["late"].tobytes() == toy.late.data.tobytes()


class TestBatchedOps:
    """Ops that carry a leading batch axis: each is checked against finite
    differences and, where it has one, against its per-item 2-D form."""

    @staticmethod
    def readout(shape, seed):
        """A fixed random weighting, so no gradient entry is trivially equal."""
        return Tensor(np.random.default_rng(seed).uniform(0.5, 1.5, shape))

    def weighted(self, fn, shape, seed=0):
        w = self.readout(shape, seed)
        return lambda x: T.reduce_sum(T.mul(fn(x), w))

    def test_matmul_batched_both_operands(self):
        rng = np.random.default_rng(51)
        a = Tensor(rng.normal(0, 1, (3, 4, 5)))
        b = Tensor(rng.normal(0, 1, (3, 5, 2)))
        assert grad_check(self.weighted(lambda t: T.matmul(t, b), (3, 4, 2)), a) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.matmul(a, t), (3, 4, 2)), b) <= 1e-6
        out = T.matmul(a, b).data
        for i in range(3):
            np.testing.assert_array_equal(out[i], T.matmul(Tensor(a.data[i]),
                                                           Tensor(b.data[i])).data)

    def test_matmul_batch_with_shared_matrix(self):
        rng = np.random.default_rng(52)
        a = Tensor(rng.normal(0, 1, (3, 4, 5)))
        w = Tensor(rng.normal(0, 1, (5, 2)))
        assert grad_check(self.weighted(lambda t: T.matmul(t, w), (3, 4, 2)), a) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.matmul(a, t), (3, 4, 2)), w) <= 1e-6
        out = T.matmul(a, w).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a.data[i] @ w.data, rtol=1e-14, atol=0)

    def test_matmul_batch_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((3, 4, 5))), Tensor(np.ones((2, 5, 2))))
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((4, 5))), Tensor(np.ones((3, 5, 2))))

    def test_transpose_batched(self):
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(0, 1, (2, 3, 4)))
        assert T.transpose(x).data.shape == (2, 4, 3)
        assert grad_check(self.weighted(T.transpose, (2, 4, 3)), x) <= 1e-6

    def test_rowvec_ops_per_item(self):
        rng = np.random.default_rng(54)
        m = Tensor(rng.uniform(0.5, 1.5, (2, 4, 3)))
        v = Tensor(rng.uniform(0.5, 1.5, (2, 1, 3)))      # one row vector per item
        r = Tensor(rng.uniform(0.5, 1.5, (4, 1)))         # one value per row
        for op in (T.add, T.mul, T.div):
            for other in (v, r):
                out = op(m, other).data
                for i in range(2):
                    item = other.data[i] if other is v else other.data
                    np.testing.assert_array_equal(
                        out[i], op(Tensor(m.data[i]), Tensor(item)).data)
                assert grad_check(self.weighted(lambda t: op(t, other), (2, 4, 3)),
                                  m) <= 1e-6
                assert grad_check(self.weighted(lambda t: op(m, t), (2, 4, 3)),
                                  other) <= 1e-6
        with pytest.raises(DimensionError):
            T.add(m, Tensor(np.ones(4)))

    def test_take_several_per_row(self):
        rng = np.random.default_rng(57)
        a = Tensor(rng.normal(0, 1, (3, 6)))
        idx = np.array([[5, 0], [2, 2], [1, 4]])        # a repeated index accumulates
        out = T.take(a, idx)
        np.testing.assert_array_equal(out.data, np.take_along_axis(a.data, idx, axis=1))
        assert grad_check(self.weighted(lambda t: T.take(t, idx), (3, 2)), a) <= 1e-6
        tape = GradientTape()
        tape.watch(a)
        tape.backward(T.reduce_sum(T.take(a, idx)))
        assert a.grad[1, 2] == 2.0 and a.grad[1, 0] == 0.0

    def test_take_one_per_row(self):
        rng = np.random.default_rng(58)
        a = Tensor(rng.normal(0, 1, (2, 3, 4)))
        idx = np.array([[0, 3, 1], [2, 2, 0]])
        out = T.take(a, idx)
        assert out.data.shape == (2, 3)
        assert out.data[1, 0] == a.data[1, 0, 2]
        assert grad_check(self.weighted(lambda t: T.take(t, idx), (2, 3)), a) <= 1e-6

    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 6)])
    def test_take_equals_take_along_axis_bit_for_bit(self, shape):
        rng = np.random.default_rng(60)
        data = rng.normal(0, 1, shape)
        several = rng.integers(0, shape[-1], shape[:-1] + (2 * shape[-1],))   # with repeats
        one = rng.integers(0, shape[-1], shape[:-1])
        last_axis_major = np.moveaxis(np.moveaxis(data, -1, 0).copy(), 0, -1)
        for a in (data, last_axis_major):
            np.testing.assert_array_equal(T.take(Tensor(a), several).data,
                                          np.take_along_axis(a, several, axis=-1))
            np.testing.assert_array_equal(T.take(Tensor(a), one).data,
                                          np.take_along_axis(a, one[..., None], axis=-1)[..., 0])

    def test_take_rejects_bad_indices(self):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            T.take(a, [[0], [3]])
        with pytest.raises(DimensionError):
            T.take(a, [[0, 1]])

    def test_softmax_rows(self):
        rng = np.random.default_rng(59)
        x = Tensor(rng.normal(0, 2, (3, 5)))
        p = T.softmax(x).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-15)
        e = np.exp(x.data[1] - x.data[1].max())
        np.testing.assert_array_equal(p[1], e / e.sum())
        assert grad_check(self.weighted(T.softmax, (3, 5)), x) <= 1e-6
        big = T.softmax(Tensor([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(big)) and big[0, 0] == 1.0

    @pytest.mark.parametrize("c_in,c_out", [(1, 3), (3, 2), (2, 2)])
    def test_conv2d_batch_matches_per_image(self, c_in, c_out):
        """Both window strategies (c_in <= c_out shifts the input, c_in >
        c_out the output) against the per-image call and finite differences."""
        rng = np.random.default_rng(60 + c_in)
        x = Tensor(rng.normal(0, 1, (3, c_in, 5, 6)))
        w = Tensor(rng.normal(0, 0.5, (c_out, c_in, 3, 3)))
        b = Tensor(rng.normal(0, 0.5, c_out))
        out = T.conv2d(x, w, b)
        assert out.data.shape == (3, c_out, 5, 6)
        for i in range(3):
            single = T.conv2d(Tensor(x.data[i:i + 1]), w, b).data[0]
            np.testing.assert_allclose(out.data[i], single, rtol=1e-14, atol=1e-15)
        shape = out.data.shape
        assert grad_check(self.weighted(lambda t: T.conv2d(t, w, b), shape), x) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.conv2d(x, t, b), shape), w) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.conv2d(x, w, t), shape), b) <= 1e-6

    def test_conv2d_tap_path_backward(self):
        """The output-side path (C_in > C_out) against finite differences."""
        rng = np.random.default_rng(91)
        x = Tensor(rng.normal(0, 1, (2, 3, 5, 4)))
        w = Tensor(rng.normal(0, 0.5, (1, 3, 3, 3)))
        b = Tensor(rng.normal(0, 0.5, 1))
        shape = T.conv2d(x, w, b).data.shape
        assert grad_check(self.weighted(lambda t: T.conv2d(t, w, b), shape), x) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.conv2d(x, t, b), shape), w) <= 1e-6
        assert grad_check(self.weighted(lambda t: T.conv2d(x, w, t), shape), b) <= 1e-6

    @pytest.mark.parametrize("c_in,c_out,k", [(1, 2, 3), (3, 1, 3), (1, 2, 5), (3, 1, 5)])
    def test_conv2d_against_direct_sum(self, c_in, c_out, k):
        """Every output pixel as the literal sum over channels and window of
        the input zero-padded by (K-1)/2; the output keeps the input's H×W."""
        rng = np.random.default_rng(70 + k)
        x = rng.normal(0, 1, (2, c_in, 5, 4))
        w = rng.normal(0, 1, (c_out, c_in, k, k))
        b = rng.normal(0, 1, c_out)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (2, c_out, 5, 4)
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        for n in range(2):
            for o in range(c_out):
                for y in range(out.shape[2]):
                    for z in range(out.shape[3]):
                        want = b[o] + (w[o] * xp[n, :, y:y + k, z:z + k]).sum()
                        assert out[n, o, y, z] == pytest.approx(want, rel=1e-12, abs=1e-12)


def padded_tap_sum(taps):
    """The tap sum over explicitly zero-padded products, tap by tap in
    (i, j) order: the reference that _shifted_sum must equal bit for bit."""
    k, (h, w) = taps.shape[2], taps.shape[4:]
    p = k // 2
    tp = np.pad(taps, ((0, 0),) * 4 + ((p, p), (p, p)))
    out = np.zeros(taps.shape[:2] + (h, w))
    for i in range(k):
        for j in range(k):
            out += tp[:, :, i, j, i:i + h, j:j + w]
    return out


class TestTapPath:
    """conv2d's output-side window path (C_in > C_out), which the coarse
    conv2 (8 -> 1 channels) runs: the shifted tap sum onto the output and,
    in backward, the tap-plane gather onto the input."""

    @pytest.mark.parametrize("k,h,w", [(1, 6, 5), (3, 6, 5), (5, 6, 5), (5, 1, 2), (3, 7, 11),
                                       (3, 32, 32), (3, 1, 1), (3, 2, 3), (5, 3, 4), (5, 7, 1)])
    def test_sum_matches_the_padded_sum_and_spread_is_its_adjoint(self, k, h, w):
        """<sum(T), G> = <T, spread(G)>, and the sum equals the zero-padded
        loop exactly, across the edges between the batch's images; on an
        input narrower than the kernel some taps meet no pixel."""
        rng = np.random.default_rng(80 + 10 * k + k // 2 + h)
        taps = rng.normal(0, 1, (2, 3, k, k, h, w))
        g = rng.normal(0, 1, (2, 3, h, w))
        tap_major = np.ascontiguousarray(taps.transpose(1, 2, 3, 0, 4, 5))
        summed = T._shifted_sum(tap_major, 1).swapaxes(0, 1)   # overwrites its own copy
        np.testing.assert_array_equal(summed, padded_tap_sum(taps))
        spread = T._tap_gather(g, k, -1)
        assert spread.shape == taps.shape and spread.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(spread, padded_gather(g, k, -1))
        assert np.vdot(summed, g) == pytest.approx(np.vdot(taps, spread), rel=1e-12)

    def test_shared_spread_gives_the_separate_gradients(self):
        """With input and kernel both on the tape, backward builds one spread
        for both; each gradient equals the one taken with only its own
        argument watched, bit for bit."""
        rng = np.random.default_rng(95)
        x0, w0 = rng.normal(0, 1, (2, 4, 6, 5)), rng.normal(0, 1, (2, 4, 3, 3))
        b0 = rng.normal(0, 1, 2)
        weights = rng.normal(0, 1, (2, 2, 6, 5))

        def grads(watch_x, watch_w):
            tape = GradientTape()
            x, w = Tensor(x0), Tensor(w0)
            tape.watch(*[t for t, on in ((x, watch_x), (w, watch_w)) if on])
            tape.backward(T.reduce_sum(T.mul(T.conv2d(x, w, Tensor(b0)), weights)))
            return x.grad, w.grad

        both_x, both_w = grads(True, True)
        np.testing.assert_array_equal(both_x, grads(True, False)[0])
        np.testing.assert_array_equal(both_w, grads(False, True)[1])


def padded_im2col(xd, k):
    """Every K×K window of the input zero-padded by (K-1)/2, through a
    sliding-window view, as C-order rows: B×(H*W)×(C*K*K), one row per
    output pixel, the pixel-major layout that conv2d's window columns had."""
    b, c, h, w = xd.shape
    p = k // 2
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * k * k)


def padded_col2im(dcols, c, k, h, w):
    """Pixel-major window columns added tap by tap in (i, j) order into a
    buffer zero-padded by (K-1)/2, then cropped."""
    b, p = dcols.shape[0], k // 2
    dc = dcols.reshape(b, h, w, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + h, j:j + w] += dc[..., i, j]
    return dxp[:, :, p:p + h, p:p + w]


def tap_major(rows, c, k, h, w):
    """B×(H*W)×(C*K*K) pixel-major rows as B×C×K×K×H×W tap planes."""
    return rows.reshape(-1, h, w, c, k, k).transpose(0, 3, 4, 5, 1, 2)


def padded_gather(x, k, sign):
    """x's zero-padded windows as B×C×K×K×H×W tap planes; at sign -1 each
    window is read flipped, tap (i, j) at the opposite offset."""
    planes = tap_major(padded_im2col(x, k), x.shape[1], k, *x.shape[2:])
    return planes if sign == 1 else planes[:, :, ::-1, ::-1]


def padded_shifted_sum(taps, sign):
    """M×K×K×N×H×W taps summed in (i, j) order by a padded reference: the
    padded tap sum at sign 1, the padded scatter-add (col2im) at sign -1."""
    m, k, _, n, h, w = taps.shape
    if sign == 1:
        return padded_tap_sum(taps.transpose(3, 0, 1, 2, 4, 5)).swapaxes(0, 1)
    rows = taps.transpose(3, 4, 5, 0, 1, 2).reshape(n, h * w, m * k * k)
    return padded_col2im(rows, m, k, h, w).swapaxes(0, 1)


def pixel_major_conv(x0, w0, b0, g0):
    """conv2d's input-side path computed from the padded windows as C-order
    rows: the output rows @ wmat.T read as a channel-minor view plus the
    bias, the input gradient by the padded scatter-add of g @ wmat, the
    kernel gradient from the rows and the bias gradient as a sum. Returns
    (output, input, kernel and bias gradients) for upstream gradient g0."""
    b, c_in, h, w = x0.shape
    c_out, _, k, _ = w0.shape
    rows = padded_im2col(x0, k)
    wmat = w0.reshape(c_out, c_in * k * k)
    flat = (rows.reshape(-1, c_in * k * k) @ wmat.T).reshape(b, h * w, c_out).swapaxes(1, 2)
    flat += b0[:, None]
    g = g0.reshape(b, c_out, h * w)
    dx = padded_col2im(g.swapaxes(1, 2) @ wmat, c_in, k, h, w)
    dw = (g @ rows).sum(axis=0).reshape(w0.shape)
    return flat.reshape(b, c_out, h, w), dx, dw, g.sum(axis=(0, 2))


class TestFlatShifts:
    """The one window mechanism both conv2d paths share: _tap_gather copies
    and _shifted_sum adds each tap as a shifted pass along flat pixels, at
    sign 1 (each pixel's window) or sign -1 (its adjoint)."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k,h,w", [(1, 4, 3), (3, 6, 5), (5, 3, 4), (3, 1, 1),
                                       (5, 7, 1), (7, 2, 3), (3, 32, 32)])
    def test_sum_matches_the_padded_reference(self, sign, n, k, h, w):
        """Across the edges between the N images as well as inside each."""
        rng = np.random.default_rng(160 + 10 * k + h + n)
        taps = rng.normal(0, 1, (3, k, k, n, h, w))
        got = T._shifted_sum(taps.copy(), sign)
        np.testing.assert_array_equal(got, padded_shifted_sum(taps, sign))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k,h,w", [(1, 4, 3), (3, 6, 5), (5, 3, 4), (3, 1, 1), (7, 2, 3)])
    def test_gather_matches_the_padded_reference(self, sign, k, h, w):
        rng = np.random.default_rng(170 + 10 * k + h)
        x = rng.normal(0, 1, (2, 3, h, w))
        np.testing.assert_array_equal(T._tap_gather(x, k, sign), padded_gather(x, k, sign))

    def test_signs_and_lengths_back_to_back(self):
        """The cached shift table is keyed by sign and flat length as well as
        by window and row width: on one H×W, both signs, and one image then
        two, each equal their reference when run one after the other."""
        rng = np.random.default_rng(181)
        k, h, w = 3, 5, 4
        x = rng.normal(0, 1, (2, 3, h, w))
        for sign in (1, -1, 1):
            np.testing.assert_array_equal(T._tap_gather(x, k, sign), padded_gather(x, k, sign))
        for n, sign in ((1, 1), (1, -1), (2, -1), (2, 1)):
            taps = rng.normal(0, 1, (3, k, k, n, h, w))
            got = T._shifted_sum(taps.copy(), sign)
            np.testing.assert_array_equal(got, padded_shifted_sum(taps, sign))


class TestWindowPath:
    """conv2d's input-side window path (C_in <= C_out), which the coarse
    conv1 and both baseline convolutions run: the tap-plane gather onto the
    output (im2col) and, in backward, the tap-plane sum onto the input; and
    the baseline's pool."""

    @pytest.mark.parametrize("k,h,w", [(1, 6, 5), (3, 6, 5), (5, 6, 5), (5, 1, 2), (3, 7, 11),
                                       (3, 1, 1), (3, 2, 3), (5, 3, 4), (5, 7, 1)])
    def test_columns_match_the_padded_windows_and_col2im_is_their_adjoint(self, k, h, w):
        """im2col, the gather onto the output, gives the sliding windows of
        the padded input exactly, C-contiguous and tap-major; col2im, the sum
        onto the input, equals the padded scatter-add exactly, and
        <im2col(x), G> = <x, col2im(G)>. On an input narrower than the kernel
        some taps meet no pixel."""
        rng = np.random.default_rng(120 + 10 * k + k // 2 + h)
        x = rng.normal(0, 1, (2, 3, h, w))
        g = rng.normal(0, 1, (2, 3, k, k, h, w))
        planes = T._tap_gather(x, k, 1)
        assert planes.shape == g.shape and planes.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(planes, tap_major(padded_im2col(x, k), 3, k, h, w))
        # _shifted_sum overwrites its argument, so it gets a copy of g
        back = T._shifted_sum(g.reshape(6, k, k, 1, h, w).copy(), -1).reshape(2, 3, h, w)
        rows = g.transpose(0, 4, 5, 1, 2, 3).reshape(2, h * w, 3 * k * k)
        np.testing.assert_array_equal(back, padded_col2im(rows, 3, k, h, w))
        assert np.vdot(planes, g) == pytest.approx(np.vdot(x, back), rel=1e-12)

    def test_columns_of_a_channel_minor_input(self):
        """The conv output that the second conv reads is a channel-minor view;
        its windows are the same as those of a C-order copy."""
        rng = np.random.default_rng(131)
        x = rng.normal(0, 1, (2, 6, 5, 4)).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(T._tap_gather(x, 3, 1),
                                      tap_major(padded_im2col(x, 3), 4, 3, 6, 5))

    @pytest.mark.parametrize("c_in,c_out,size,batch", [
        (1, 8, 32, 1), (1, 8, 32, 8), (1, 8, 32, 32), (1, 16, 32, 1), (1, 16, 32, 8),
        (16, 32, 16, 1), (16, 32, 16, 8)])
    def test_conv2d_equals_the_pixel_major_rows_bit_for_bit(self, c_in, c_out, size, batch):
        """At the models' channel counts and image sizes (padding 1), the
        output, with its channel-minor strides, and all three gradients equal
        the pixel-major computation bit for bit. The 16-channel input is
        channel-minor, as the baseline's second conv reads it."""
        rng = np.random.default_rng(150 + c_in + c_out + batch)
        x0 = rng.normal(0, 1, (batch, c_in, size, size))
        if c_in > 1:
            x0 = np.ascontiguousarray(x0.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w0, b0 = rng.normal(0, 0.3, (c_out, c_in, 3, 3)), rng.normal(0, 1, c_out)
        g0 = rng.normal(0, 1, (batch, c_out, size, size))
        tape = GradientTape()
        x, w, b = Tensor(x0), Tensor(w0), Tensor(b0)
        tape.watch(x, w, b)
        out = T.conv2d(x, w, b)
        tape.backward(T.reduce_sum(T.mul(out, g0)))
        want = pixel_major_conv(x0, w0, b0, g0)
        assert out.data.strides == want[0].strides
        for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
            np.testing.assert_array_equal(got, ref)

    @staticmethod
    def pooled_by_means(x0, g0):
        """Output and input gradient of the reshape and two size-2 means
        that avg_pool2 replaces."""
        b, c, h, w = x0.shape
        tape = GradientTape()
        x = Tensor(x0)
        tape.watch(x)
        y = T.reshape(x, (b, c, h // 2, 2, w // 2, 2))
        out = T.reduce_mean(T.reduce_mean(y, axis=5), axis=3)
        tape.backward(T.reduce_sum(T.mul(out, g0)))
        return out.data, x.grad

    @pytest.mark.parametrize("layout", ["C", "channel-minor"])
    def test_pool_matches_two_means_bit_for_bit(self, layout):
        rng = np.random.default_rng(140)
        x0 = rng.normal(0, 1, (3, 4, 6, 8))
        if layout != "C":
            x0 = np.ascontiguousarray(x0.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        g0 = rng.normal(0, 1, (3, 4, 3, 4))
        tape = GradientTape()
        x = Tensor(x0)
        tape.watch(x)
        out = T.avg_pool2(x)
        root = T.reduce_sum(T.mul(out, g0))
        assert len(tape._ops) == 3   # pool, mul, sum
        tape.backward(root)
        want_out, want_grad = self.pooled_by_means(x0, g0)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x.grad, want_grad)

    def test_pool_grad_check(self):
        rng = np.random.default_rng(141)
        weights = rng.normal(0, 1, (2, 3, 2, 3))
        f = lambda t: T.reduce_sum(T.mul(T.avg_pool2(t), weights))
        assert grad_check(f, Tensor(rng.normal(0, 1, (2, 3, 4, 6)))) <= 1e-6

    @pytest.mark.parametrize("shape", [(1, 1, 3, 4), (1, 1, 4, 5), (4, 4), (1, 4, 4)])
    def test_pool_needs_even_extents_of_a_batch(self, shape):
        with pytest.raises(DimensionError):
            T.avg_pool2(Tensor(np.zeros(shape)))


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestKeepFreedHeap:
    """tensor's import-time allocator setting: glibc keeps freed heap in
    the process, so a tape-free evaluate stops faulting its pages in again
    for every chunk."""

    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
    def test_a_second_k512_evaluate_pass_makes_almost_no_page_faults(self):
        # 96 images in 12 chunks: without the setting the second pass
        # makes about 20 minor faults per image (about 2,000)
        script = textwrap.dedent("""
            import resource
            import sparseattn as sa
            images = sa.generate(sa.SyntheticSpec(image_size=32, seed=7, samples_per_class=32))
            model = sa.build_model(seed=7, image_shape=(32, 32))
            model.controller.k = 512
            sa.evaluate(model, images)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sa.evaluate(model, images)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        path = [str(Path(T.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
        assert int(out.stdout) < 50

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []
        mallopt = lambda param, value: calls.append((param, value))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        T._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("libc", ["raises", "no mallopt"])
    def test_without_mallopt_nothing_happens(self, monkeypatch, libc):
        def cdll(name):
            if libc == "raises":
                raise OSError("no C library")
            return types.SimpleNamespace()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert T._keep_freed_heap() is None
