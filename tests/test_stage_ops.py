"""Embedding, fine attention and the classifier are one tape op each. Their
composite forms, the chains of tensor ops each stage ran as before it was
one op, are the oracle here: outputs, the attention, the CLS query rows and
every parameter and input gradient equal bit for bit, tape-free and taped,
one stage at a time and chained as model_forward chains them.
"""

import itertools

import numpy as np
import pytest

from sparseattn.coarse import affine_relu
from sparseattn.embedding import Embedder, embed_pixels
from sparseattn.fine import FineAttention, FineOutput, fine_forward
from sparseattn.model import Classifier, classifier_forward
from sparseattn.tensor import (
    GradientTape,
    Tensor,
    add,
    concat,
    div,
    matmul,
    mul,
    reduce_sum,
    relu,
    reshape,
    take,
    transpose,
)

DIM, HIDDEN, CHANNELS, CLASSES = 4, 8, 3, 3


def composite_embed(emb, triplets):
    t = np.asarray(triplets, dtype=np.float64)
    lead, k = t.shape[:-2], t.shape[-2]
    h = relu(add(matmul(Tensor(t.reshape(-1, 3)), emb.w1), emb.b1))
    rows = reshape(add(matmul(h, emb.w2), emb.b2), lead + (k, emb.dim))
    # the CLS rows as the removed broadcast_to made them: copies of the token
    # whose gradient is the copies' gradient summed back in one sum call
    cls_rows = add(np.zeros(lead + (1, emb.dim)), emb.cls_token)
    return concat([rows, cls_rows], axis=-2)


def composite_fine(fa, tokens):
    td = tokens.data
    n_tokens, lead = td.shape[-2], td.shape[:-2]
    x = reshape(tokens, (-1,) + td.shape[-2:])
    b = x.data.shape[0]
    values = matmul(x, fa.w_v)
    q = matmul(x, fa.w_q)
    keys = add(relu(matmul(x, fa.w_k)), fa.epsilon)
    a = div(keys, reshape(reduce_sum(keys, axis=1), (b, 1, -1)))
    context = matmul(transpose(a), values)
    out = matmul(q, context)
    cls_cols = np.broadcast_to((n_tokens - 1) * fa.dim + np.arange(fa.dim), (b, fa.dim))
    z_fine = div(take(reshape(out, (b, n_tokens * fa.dim)), cls_cols), float(fa.heads))
    return FineOutput(z_fine=reshape(z_fine, lead + (fa.dim,)), a=a.data,
                      q_cls=q.data[:, -1, :].copy(), heads=fa.heads)


def composite_classifier(clf, fused):
    lead = fused.data.shape[:-1]
    h = add(matmul(reshape(fused, (-1, clf.in_dim)), clf.w_in), clf.b_in)
    for blk in clf.block:
        t = add(matmul(h, blk.w1), blk.b1)
        r = affine_relu(t, blk.gamma, blk.beta)
        h = add(h, add(matmul(r, blk.w2), blk.b2))
    return reshape(add(matmul(h, clf.w_out), clf.b_out), lead + (clf.classes,))


ONE_OP = (embed_pixels, fine_forward, classifier_forward)
COMPOSITE = (composite_embed, composite_fine, composite_classifier)


def modules(heads, seed=0):
    """The three stages with non-zero biases and some negative gains, so
    every ReLU mask is mixed."""
    rng = np.random.default_rng(seed)
    emb = Embedder(rng, dim=DIM)
    fa = FineAttention(rng, dim=DIM, heads=heads)
    clf = Classifier(rng, in_dim=DIM + CHANNELS, hidden=HIDDEN, classes=CLASSES)
    emb.b1.data = rng.normal(0, 0.3, emb.b1.data.shape)
    emb.b2.data = rng.normal(0, 0.3, emb.b2.data.shape)
    clf.b_in.data = rng.normal(0, 0.3, HIDDEN)
    clf.b_out.data = rng.normal(0, 0.3, CLASSES)
    for blk in clf.block:
        blk.b1.data = rng.normal(0, 0.3, HIDDEN)
        blk.gamma.data = rng.normal(0.8, 0.6, HIDDEN)
        blk.beta.data = rng.normal(0, 0.3, HIDDEN)
        blk.b2.data = rng.normal(0, 0.3, HIDDEN)
    return emb, fa, clf


def inputs(lead, k, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0, 1, lead + (k, 3)), rng.normal(0, 1, lead + (k + 1, DIM)),
            rng.normal(0, 1, lead + (DIM + CHANNELS,)))


def assert_same(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, value in want.items():
        np.testing.assert_array_equal(got[name], value, err_msg=name)
        assert got[name].shape == value.shape and got[name].tobytes() == value.tobytes(), name


def outputs(result) -> dict:
    if isinstance(result, FineOutput):
        return {"z_fine": result.z_fine.data, "a": result.a, "q_cls": result.q_cls}
    return {"out": result.data}


def loss_of(result, seed=2):
    """A sum of every output weighed by fixed random numbers; the fine
    stage's output counts twice, as the training loss reads it twice."""
    out = result.z_fine if isinstance(result, FineOutput) else result
    w = np.random.default_rng(seed).normal(0, 1, out.data.shape)
    total = reduce_sum(mul(out, w))
    if isinstance(result, FineOutput):
        total = add(total, reduce_sum(mul(out, out)))
    return total


def taped_run(forward, module, inp) -> dict:
    """Outputs, and the gradient of loss_of for each parameter and for the
    input when it is a Tensor."""
    tape = GradientTape()
    named = module.params() + ([("input", inp)] if isinstance(inp, Tensor) else [])
    tape.watch(*[t for _, t in named])
    result = forward(module, inp)
    tape.backward(loss_of(result))
    got = outputs(result)
    for name, t in named:
        got[f"grad {name}"] = t.grad
        t.grad = None
    return got


CASES = list(itertools.product([(), (1,), (3,)], [1, 5], [1, 2]))


@pytest.mark.parametrize("lead,k,heads", CASES)
@pytest.mark.parametrize("stage", [0, 1, 2], ids=["embedding", "fine", "classifier"])
class TestEachStage:
    @staticmethod
    def args(stage, lead, k, heads):
        module = modules(heads)[stage]
        inp = inputs(lead, k)[stage]
        return module, (inp if stage == 0 else Tensor(inp))

    def test_tape_free_equals_the_composite(self, stage, lead, k, heads):
        module, inp = self.args(stage, lead, k, heads)
        assert_same(outputs(ONE_OP[stage](module, inp)), outputs(COMPOSITE[stage](module, inp)))

    def test_taped_outputs_and_gradients_equal_the_composite(self, stage, lead, k, heads):
        module, inp = self.args(stage, lead, k, heads)
        got = taped_run(ONE_OP[stage], module, inp)
        want = taped_run(COMPOSITE[stage], module, inp)
        assert_same(got, want)
        assert all(np.abs(got[name]).sum() > 0 for name in got if name.startswith("grad"))

    def test_one_tape_op(self, stage, lead, k, heads):
        module, inp = self.args(stage, lead, k, heads)
        tape = GradientTape()
        tape.watch(*[t for _, t in module.params()])
        ONE_OP[stage](module, inp)
        assert len(tape._ops) == 1

    @pytest.mark.parametrize("taped", [False, True])
    def test_inputs_stay_and_outputs_own_their_memory(self, stage, lead, k, heads, taped):
        """Neither the input nor a parameter changes, and no returned array
        shares memory with either."""
        module, inp = self.args(stage, lead, k, heads)
        held = [t.data for _, t in module.params()] + [inp.data if stage else inp]
        before = [h.copy() for h in held]
        if taped:
            GradientTape().watch(*[t for _, t in module.params()])
        result = ONE_OP[stage](module, inp)
        for h, b in zip(held, before):
            np.testing.assert_array_equal(h, b)
        for name, out in outputs(result).items():
            assert not any(np.shares_memory(out, h) for h in held), name


@pytest.mark.parametrize("lead,k,heads", CASES)
def test_chained_stages_equal_the_composite_chain(lead, k, heads):
    """The three stages as model_forward chains them, the fine output also
    read by the loss as the training loss reads it: every parameter
    gradient, and that of the coarse features, equals the composite chain's."""
    triplets, _, fused = inputs(lead, k)

    def run(stages):
        emb, fa, clf = modules(heads)
        z_coarse = Tensor(fused[..., DIM:])
        named = ([(f"embedder.{n}", t) for n, t in emb.params()]
                 + [(f"fine.{n}", t) for n, t in fa.params()]
                 + [(f"classifier.{n}", t) for n, t in clf.params()] + [("z_coarse", z_coarse)])
        tape = GradientTape()
        tape.watch(*[t for _, t in named])
        tokens = stages[0](emb, triplets)
        fo = stages[1](fa, tokens)
        logits = stages[2](clf, concat([fo.z_fine, z_coarse], axis=-1))
        tape.backward(add(loss_of(logits), loss_of(fo)))
        got = {"tokens": tokens.data, "logits": logits.data, **outputs(fo)}
        got.update({f"grad {name}": t.grad for name, t in named})
        return got

    assert_same(run(ONE_OP), run(COMPOSITE))
