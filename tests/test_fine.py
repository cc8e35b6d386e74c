"""Fine attention: column stochasticity, the scalar worked example, the
vectorized-vs-triple-loop oracle, normalization invariance, and the
readout computed on read: bit-exact with the eager expressions, and never
computed by tape-free inference.
"""

import itertools

import numpy as np
import pytest

import sparseattn as sa
from sparseattn.fine import FineAttention, FineOutput, _add_across, fine_forward
from sparseattn.tensor import (
    DimensionError,
    GradientTape,
    Tensor,
    add,
    div,
    matmul,
    mul,
    reduce_sum,
    relu,
    reshape,
)
from sparseattn.train import _batch_report


def make_attention(seed=0, dim=4, heads=2, epsilon=1e-6):
    fa = FineAttention(np.random.default_rng(seed), dim=dim, heads=heads)
    fa.epsilon = epsilon
    return fa


def loop_oracle(fa: FineAttention, tokens: np.ndarray):
    """Plain-Python re-derivation of fine_forward, element by element."""
    n, d = tokens.shape
    d_h = fa.head_dim
    v = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            v[i, j] = sum(tokens[i, m] * fa.w_v.data[m, j] for m in range(d))

    z = np.zeros(d)
    attn = []
    importance = np.zeros(n)
    for h in range(fa.heads):
        w_q = fa.w_q.data[:, h * d_h:(h + 1) * d_h]
        w_k = fa.w_k.data[:, h * d_h:(h + 1) * d_h]
        q = np.zeros((n, d_h))
        k = np.zeros((n, d_h))
        for i in range(n):
            for c in range(d_h):
                q[i, c] = sum(tokens[i, m] * w_q[m, c] for m in range(d))
                k[i, c] = sum(tokens[i, m] * w_k[m, c] for m in range(d))
        kp = np.maximum(k, 0.0) + fa.epsilon
        a = np.zeros((n, d_h))
        for c in range(d_h):
            mass = sum(kp[j, c] for j in range(n))
            for i in range(n):
                a[i, c] = kp[i, c] / mass
        ctx = np.zeros((d_h, d))
        for c in range(d_h):
            for j in range(d):
                ctx[c, j] = sum(a[i, c] * v[i, j] for i in range(n))
        out_cls = np.zeros(d)
        for j in range(d):
            out_cls[j] = sum(q[n - 1, c] * ctx[c, j] for c in range(d_h))
        z += out_cls / fa.heads
        for i in range(n):
            flow = sum(q[n - 1, c] * a[i, c] for c in range(d_h))
            importance[i] += abs(flow) / fa.heads
        attn.append(a)
    return z, attn, importance


class TestFineForward:
    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(4)
        fa = make_attention(1)
        out = fine_forward(fa, Tensor(rng.normal(0, 1, (9, 4))))
        for a in out.head_attn:
            np.testing.assert_allclose(a.data.sum(axis=0), 1.0, atol=1e-9)

    def test_single_head_cls_row_is_z_fine(self):
        rng = np.random.default_rng(5)
        fa = make_attention(2, dim=4, heads=1)
        tokens = Tensor(rng.normal(0, 1, (6, 4)))
        out = fine_forward(fa, tokens)
        # recompute the head output at the CLS row directly
        q = tokens.data @ fa.w_q.data
        kp = np.maximum(tokens.data @ fa.w_k.data, 0.0) + fa.epsilon
        a = kp / kp.sum(axis=0)
        o = q @ (a.T @ (tokens.data @ fa.w_v.data))
        np.testing.assert_allclose(out.z_fine.data, o[-1], atol=1e-12)

    def test_scalar_worked_example(self):
        """k=1, D=1, H=1 with hand-picked projections."""
        fa = make_attention(0, dim=1, heads=1, epsilon=1e-6)
        fa.w_q.data = np.array([[1.0]])
        fa.w_k.data = np.array([[1.0]])
        fa.w_v.data = np.array([[1.0]])
        tokens = Tensor([[2.0], [-3.0]])   # K = [2, -3], ε → A ≈ [1, 5e-7]
        out = fine_forward(fa, tokens)
        a = out.head_attn[0].data[:, 0]
        eps = 1e-6
        np.testing.assert_allclose(a, [(2 + eps) / (2 + 2 * eps), eps / (2 + 2 * eps)],
                                   rtol=1e-12)
        assert a[0] == pytest.approx(1.0, abs=1e-6)
        assert a[1] == pytest.approx(5e-7, abs=1e-7)
        # V = tokens, Q = tokens: C = A^T V ≈ 2*(1) + (-3)*5e-7; O = Q*C
        c = a[0] * 2.0 + a[1] * (-3.0)
        np.testing.assert_allclose(out.z_fine.data, [-3.0 * c], rtol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(1, 17))
            fa = make_attention(int(rng.integers(0, 1000)), dim=4, heads=2)
            tokens = rng.normal(0, 1, (k + 1, 4))
            out = fine_forward(fa, Tensor(tokens))
            z, attn, imp = loop_oracle(fa, tokens)
            np.testing.assert_allclose(out.z_fine.data, z, atol=1e-10)
            np.testing.assert_allclose(out.pixel_importance.data, imp, atol=1e-10)
            for got, want in zip(out.head_attn, attn):
                np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_key_scaling_invariance(self):
        """Scaling key columns by a positive constant leaves A unchanged."""
        rng = np.random.default_rng(12)
        fa = make_attention(3, epsilon=1e-12)
        tokens = Tensor(rng.normal(0, 1, (8, 4)))
        base = [a.data.copy() for a in fine_forward(fa, tokens).head_attn]
        fa.w_k.data = fa.w_k.data * 7.5
        scaled = [a.data for a in fine_forward(fa, tokens).head_attn]
        for b, s in zip(base, scaled):
            np.testing.assert_allclose(s, b, atol=1e-9)

    def test_importance_nonnegative_and_covers_all_tokens(self):
        rng = np.random.default_rng(14)
        out = fine_forward(make_attention(5), Tensor(rng.normal(0, 1, (10, 4))))
        assert out.pixel_importance.data.shape == (10,)
        assert (out.pixel_importance.data >= 0).all()

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            fine_forward(make_attention(), Tensor(np.zeros((1, 4))))

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            fine_forward(make_attention(), Tensor(np.zeros((5, 3))))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            make_attention(dim=4, heads=3)

    def test_grad_check_on_all_parameters(self):
        from conftest import param_grad_errors
        rng = np.random.default_rng(20)
        fa = make_attention(6)
        tokens = Tensor(rng.normal(0, 1, (5, 4)))
        readout = Tensor(rng.normal(0, 1, 4))

        def loss():
            out = fine_forward(fa, tokens)
            return reduce_sum(mul(out.z_fine, readout))

        errors = param_grad_errors(fa.params(), loss)
        for name, err in errors.items():
            assert err <= 1e-4, f"{name}: {err}"


def eager_readout(fa: FineAttention, tokens: np.ndarray):
    """The readout as fine_forward computed it on every call before it moved
    into FineOutput's properties: the forward's own ops up to the attention
    `a` and the queries, then the same expressions."""
    lead = tokens.shape[:-2]
    n_tokens = tokens.shape[-2]
    x = reshape(Tensor(tokens), (-1,) + tokens.shape[-2:])
    b = x.data.shape[0]
    q = matmul(x, fa.w_q)
    keys = add(relu(matmul(x, fa.w_k)), fa.epsilon)
    a = div(keys, reshape(reduce_sum(keys, axis=1), (b, 1, -1)))
    q_cls = q.data[:, -1, :]
    flow = (a.data * q_cls[:, None, :]).reshape(b, n_tokens, fa.heads, fa.head_dim).sum(axis=-1)
    importance = np.abs(flow).mean(axis=-1).reshape(lead + (n_tokens,))
    by_head = a.data.reshape(lead + (n_tokens, fa.heads, fa.head_dim))
    return importance, [by_head[..., h, :] for h in range(fa.heads)]


class TestReadoutOnRead:
    @pytest.mark.parametrize("heads,head_dim", itertools.product((1, 2, 4, 8), (1, 2, 3, 8)))
    def test_bit_exact_with_the_eager_expressions(self, heads, head_dim):
        dim = heads * head_dim
        rng = np.random.default_rng(100 * heads + head_dim)
        fa = FineAttention(rng, dim=dim, heads=heads)
        for shape in ((13, dim), (5, 13, dim)):
            tokens = rng.normal(0, 1, shape)
            out = fine_forward(fa, Tensor(tokens))
            importance, attn = eager_readout(fa, tokens)
            assert out.pixel_importance.data.shape == shape[:-1]
            assert np.array_equal(out.pixel_importance.data, importance)
            assert len(out.head_attn) == heads
            for got, want in zip(out.head_attn, attn):
                assert got.data.shape == shape[:-1] + (head_dim,)
                assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("dim,heads", [(4, 2), (8, 4), (6, 3)])
    def test_importance_equals_the_reduction_expressions(self, dim, heads):
        """At B=32, k=512 and with signed zeros in the attention, the slice
        adds give the bits of `.reshape(...).sum(axis=-1)` and
        `np.abs(...).mean(axis=-1)` over the head and head-dim axes."""
        rng = np.random.default_rng(dim)
        b, n = 32, 513
        a = rng.uniform(0, 1, (b, n, dim)) * rng.choice([1.0, -1.0, 0.0, -0.0], (b, n, dim))
        q_cls = rng.normal(0, 1, (b, dim))
        out = FineOutput(z_fine=Tensor(np.zeros((b, dim))), a=a, q_cls=q_cls, heads=heads)
        flow = (a * q_cls[:, None, :]).reshape(b, n, heads, -1).sum(axis=-1)
        want = np.abs(flow).mean(axis=-1)
        assert out.pixel_importance.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 12))
    def test_add_across_is_numpys_sum(self, n):
        rng = np.random.default_rng(n)
        parts = rng.normal(0, 1, (7, 5, n)) * 10.0 ** rng.integers(-12, 12, (7, 5, n))
        parts[0] = -0.0
        parts[1, :, 0] = 1e16
        assert _add_across(parts).tobytes() == parts.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("shape", [(9, 4), (3, 9, 4)])
    def test_kept_cls_query_owns_its_data(self, shape):
        out = fine_forward(make_attention(7), Tensor(np.random.default_rng(7).normal(0, 1, shape)))
        assert out.q_cls.base is None
        assert out.q_cls.shape == (int(np.prod(shape[:-2])), 4)


@pytest.fixture
def reads(monkeypatch):
    """Counts the computations of each readout property."""
    counts = {"pixel_importance": 0, "head_attn": 0}
    for name in counts:
        def counted(self, _get=getattr(FineOutput, name).fget, _name=name):
            counts[_name] += 1
            return _get(self)
        monkeypatch.setattr(FineOutput, name, property(counted))
    return counts


class TestInferenceSkipsTheReadout:
    def model_and_data(self):
        data = sa.generate(sa.SyntheticSpec(image_size=16, seed=3, samples_per_class=4))
        model = sa.build_model(seed=3, image_shape=(16, 16), class_count=3, hidden=8,
                               k_init=40, k_min=16)
        return model, data

    def test_evaluate_and_predict_never_compute_it(self, reads):
        model, data = self.model_and_data()
        sa.evaluate(model, data)
        for s in data[:3]:
            sa.predict(model, s.pixels)
        assert reads == {"pixel_importance": 0, "head_attn": 0}

    @pytest.mark.parametrize("taped", [True, False])
    def test_a_batch_report_reads_importance_once(self, reads, taped):
        model, data = self.model_and_data()
        cfg = sa.TrainConfig().loss
        if taped:
            tape = GradientTape()
            tape.watch(*[t for _, t in model.params()])
        _batch_report(model, data[:6], 40, cfg)
        assert reads == {"pixel_importance": 1, "head_attn": 0}
