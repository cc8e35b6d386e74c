"""Fine attention: column stochasticity, the scalar worked example, the
vectorized-vs-triple-loop oracle, and normalization invariance.
"""

import numpy as np
import pytest

from sparseattn.fine import FineAttention, fine_forward
from sparseattn.tensor import DimensionError, Tensor, mul, reduce_sum


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
