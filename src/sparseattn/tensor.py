"""Dense float64 tensors with explicit-tape reverse-mode differentiation.

A GradientTape records operations in execution order and replays them in
exact reverse on backward(). Tapes are single-use. Tensors created without
a tape are constants, so the same forward code runs tape-free for cheap
inference. Every op, a tensor op here or a fused stage of the model,
makes its output with _record, the one code that tells taped from
constant: on a tape it stores the parents and one backward that maps
the output's gradient to one gradient per parent. add, sub, mul
and div broadcast their operands the way numpy does (a bias row, a
per-channel scale, a per-row normalizer), and one rule, _unbroadcast,
sums each gradient back to its operand's shape. matmul, transpose and
take also accept a leading batch axis; conv2d and avg_pool2 take batches
only.
"""

from __future__ import annotations

import ctypes
import functools
import io
import json
import math
import struct

import numpy as np


def _keep_freed_heap() -> None:
    """Keep up to 64 MiB of freed heap in the process, for every array under
    32 MiB: the ceilings glibc's own dynamic thresholds climb to on 64-bit.
    By default glibc maps such an array on its own or trims the heap under
    it once freed, so each 8-image chunk of a k=512 evaluate faulted
    conv1's window planes in again: about 3,000 minor faults on a second
    pass over 180 32×32 images, none with this setting. Pinning one
    threshold switches off glibc's adjustment of the other, so both are
    set. Where there is no mallopt (not glibc), nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_keep_freed_heap()


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain."""


class NumericError(ArithmeticError):
    """A non-finite value surfaced where a finite one is required."""


class TapeError(RuntimeError):
    """Tape misuse: double backward, cross-tape operands, non-scalar root."""


class Tensor:
    """Row-major float64 array, optionally recorded on a GradientTape.

    Immutable after creation except for gradient accumulation; the
    optimizer swaps in fresh data arrays between tapes rather than
    mutating in place.
    """

    __slots__ = ("data", "grad", "tape", "tape_id")

    def __init__(self, data, tape: "GradientTape | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.tape_id = tape._register() if tape is not None else None

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        taped = "" if self.tape is None else ", taped"
        return f"Tensor(shape={self.data.shape}{taped})"


class Module:
    """A learnable stage whose parameters are its Tensor attributes.

    params() names them in the order they were first assigned, so the
    order __init__ draws them in is also the checkpoint record order, the
    optimizer's and the tape's watch order. An attribute that is itself a
    Module adds its params() under "<attribute>.", and the i-th item of a
    list attribute, a Module too, under "<attribute><i>."; anything else is
    not a parameter.
    """

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, Module):
                out += [(f"{name}.{sub}", t) for sub, t in value.params()]
            elif isinstance(value, list):
                out += [(f"{name}{i}.{sub}", t) for i, item in enumerate(value)
                        for sub, t in item.params()]
        return out

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.params())


class GradientTape:
    """Append-only record of operations, replayed once in reverse and then
    dropped.

    Each op is one (out_id, parent_ids, backward) entry, a parent off this
    tape having id None. backward(g) returns one gradient per parent, which
    the replay adds to that parent's in parent order; it may return None
    for a parent off the tape. watch() marks leaves whose gradients the
    caller wants; backward() accumulates into their .grad and releases
    their tape reference so the same parameter tensors can be watched by
    the next step's tape.
    """

    __slots__ = ("_ops", "_leaves", "_count", "_spent")

    def __init__(self):
        self._ops: list[tuple] = []
        self._leaves: list[Tensor] = []
        self._count = 0
        self._spent = False

    def _register(self) -> int:
        i = self._count
        self._count = i + 1
        return i

    def watch(self, *tensors: Tensor) -> None:
        for t in tensors:
            if t.tape is None:
                t.tape = self
                t.tape_id = self._register()
            elif t.tape is not self:
                raise TapeError("tensor is already attached to a different tape")
            self._leaves.append(t)

    def backward(self, root: Tensor) -> None:
        """Replay recorded ops in reverse, seeding d(root)/d(root)=1.

        Finiteness is enforced at flush: a non-finite root value or leaf
        gradient raises NumericError.
        """
        if self._spent:
            raise TapeError("a tape is single-use; backward already ran")
        self._spent = True
        if root.tape is not self:
            raise TapeError("backward root was not recorded on this tape")
        if root.data.size != 1:
            raise TapeError(f"backward root must be scalar, got shape {root.data.shape}")
        if not np.isfinite(root.data.reshape(())):
            raise NumericError("backward root is not finite")

        grads: dict[int, np.ndarray] = {root.tape_id: np.ones_like(root.data)}
        for out_id, parent_ids, backward in reversed(self._ops):
            g = grads.pop(out_id, None)
            if g is None:
                continue
            # strict: a backward that returns one gradient too few raises
            for pid, contrib in zip(parent_ids, backward(g), strict=True):
                if pid is not None:
                    acc = grads.get(pid)
                    grads[pid] = contrib if acc is None else acc + contrib
        self._ops = []   # a spent tape keeps no backward, nor the arrays it holds

        for t in self._leaves:
            g = grads.get(t.tape_id)
            if g is None:
                g = np.zeros_like(t.data)
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient reached a watched leaf")
            t.grad = g if t.grad is None else t.grad + g
            t.tape = None
            t.tape_id = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _common_tape(*ts: Tensor):
    tape = None
    for t in ts:
        if tape is None:
            tape = t.tape
        elif t.tape is not tape and t.tape is not None:
            raise TapeError("operands were recorded on different tapes")
    return tape


def _record(tape: GradientTape | None, data, parents, backward) -> Tensor:
    """The output data of an op of parents, as a Tensor on tape. On a tape
    the op is recorded too: backward(g) maps the output's gradient g to one
    gradient per parent, in parent order, and captures arrays and shapes
    only, since a captured Tensor would tie its tape into a reference cycle
    that outlives the step. Tape-free, backward is dropped."""
    out = Tensor(data, tape)
    if tape is not None:
        tape._ops.append((out.tape_id, tuple(p.tape_id if p.tape is tape else None
                                             for p in parents), backward))
    return out


def _sum_middle(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) bit for bit, for a C-contiguous P×N×M array a. Both
    add the N slices in order into a P×M result that starts at +0, but
    the reduce makes one inner-loop call per M-wide row, which costs more
    than the adds while M is narrow; einsum makes all of them in one pass.
    At M = 1 numpy merges the summed axis into a pairwise sum, so that
    case stays on the reduce."""
    return np.einsum("inj->ij", a) if a.shape[2] >= 2 else a.sum(axis=1)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an upstream gradient over the axes that broadcasting added or
    stretched, back to the operand's shape. When those axes are one run of
    a C-contiguous g, g is a P×N×M array summed over its N rows by
    _sum_middle; otherwise it is one sum call over the axes."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    first, last = axes[0], axes[-1] + 1
    if not g.flags.c_contiguous or last - first != len(axes):
        return g.sum(axis=axes).reshape(shape)
    outer, run, inner = (math.prod(g.shape[i:j]) for i, j in
                         ((0, first), (first, last), (last, g.ndim)))
    return _sum_middle(g.reshape(outer, run, inner)).reshape(shape)


def _binary(ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """ufunc(a, b) with numpy broadcasting; shapes that do not broadcast
    raise DimensionError naming both."""
    try:
        return ufunc(a.data, b.data)
    except ValueError as err:
        raise DimensionError(f"{ufunc.__name__}: shapes {a.data.shape} and "
                             f"{b.data.shape} do not broadcast") from err


# ---------------------------------------------------------------------------
# elementwise ops (numpy broadcasting)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    ash, bsh = a.data.shape, b.data.shape
    return _record(tape, _binary(np.add, a, b), (a, b),
                   lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    ash, bsh = a.data.shape, b.data.shape
    with np.errstate(invalid="ignore", over="ignore"):
        return _record(tape, _binary(np.subtract, a, b), (a, b),
                       lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    ad, bd = a.data, b.data
    with np.errstate(over="ignore"):
        return _record(tape, _binary(np.multiply, a, b), (a, b),
                       lambda g: (_unbroadcast(g * bd, ad.shape),
                                  _unbroadcast(g * ad, bd.shape)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        return _record(tape, _binary(np.divide, a, b), (a, b),
                       lambda g: (_unbroadcast(g / bd, ad.shape),
                                  _divisor_grad(g, ad, bd)))


def _divisor_grad(g: np.ndarray, ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """The gradient of ad / bd with respect to bd, for upstream g."""
    # negate after the sum: -g would be a fresh array whose layout
    # changes the order in which the sum adds up g * ad
    num = -_unbroadcast(g * ad, bd.shape)
    with np.errstate(over="ignore"):
        sq = bd * bd
    finite = np.isfinite(sq)
    if finite.all():
        return num / sq
    # where b*b overflows, num / (b*b) reads 0 but num / b / b need not
    return np.where(finite, num / sq, num / bd / bd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    # a C-order mask whatever a's layout: the gradient arrives C-ordered,
    # and a bool mask in another layout sends g * mask through numpy's
    # slow buffered path (the baseline's conv outputs are channel-minor)
    mask = np.greater(a.data, 0, order="C") if a.tape is not None else None
    return _record(a.tape, np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))             # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    s = np.where(x >= 0, 1.0, e) / (1.0 + e)   # 1/(1+e) or e/(1+e): one quotient
    return _record(a.tape, s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    return _record(a.tape, e, (a,), lambda g: (g * e,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    if np.any(ad <= 0):
        raise DomainError("log of a non-positive value")
    return _record(a.tape, np.log(ad), (a,), lambda g: (g / ad,))


def power(a, exponent: float) -> Tensor:
    """a**exponent for a fixed float exponent; exponent 0 gives exact ones."""
    a = _as_tensor(a)
    ad, p = a.data, float(exponent)
    if p == 0.0:
        return _record(a.tape, np.ones_like(ad), (a,), lambda g: (np.zeros_like(ad),))
    with np.errstate(invalid="ignore", divide="ignore"):
        data = ad ** p
    def back(g):
        with np.errstate(invalid="ignore", divide="ignore"):
            d = g * p * ad ** (p - 1.0)
        # a zero gradient times an infinite slope (a below-1 power at 0) stays 0
        return (np.where((g == 0) & np.isnan(d), 0.0, d),)
    return _record(a.tape, data, (a,), back)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes where a was not clamped."""
    a = _as_tensor(a)
    mask = a.data >= floor if a.tape is not None else None
    return _record(a.tape, np.maximum(a.data, floor), (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product of 2-D operands, or batched over a leading axis:
    B×m×n @ B×n×p item by item, or B×m×n @ n×p with one shared matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    batched = ad.ndim == 3 and (bd.ndim == 2 or (bd.ndim == 3 and bd.shape[0] == ad.shape[0]))
    if not (batched or (ad.ndim == 2 and bd.ndim == 2)) or ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
    tape = _common_tape(a, b)
    shared = ad.ndim == 3 and bd.ndim == 2
    with np.errstate(over="ignore", invalid="ignore"):
        if shared:   # one product over every item's rows
            data = (ad.reshape(-1, ad.shape[-1]) @ bd).reshape(ad.shape[:-1] + bd.shape[-1:])
        else:
            data = ad @ bd
    n, p = bd.shape[-2:]
    return _record(tape, data, (a, b), lambda g: (
        g @ bd.swapaxes(-1, -2),
        ad.reshape(-1, n).T @ g.reshape(-1, p) if shared else ad.swapaxes(-1, -2) @ g))


def transpose(a) -> Tensor:
    """Swap the last two axes (a matrix, or each matrix of a batch)."""
    a = _as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise DimensionError(f"transpose expects a 2-D or 3-D tensor, got shape {a.data.shape}")
    return _record(a.tape, a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def reshape(a, shape) -> Tensor:
    """a with a new shape; reshaping to its own shape returns a itself and
    records nothing, so flattening a batch that is already flat is free."""
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    if data.shape == a.data.shape:
        return a
    orig = a.data.shape
    return _record(a.tape, data, (a,), lambda g: (g.reshape(orig),))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat of an empty sequence")
    tape = _common_tape(*parts)
    cuts = np.cumsum([p.data.shape[axis] for p in parts[:-1]]) if tape is not None else None
    return _record(tape, np.concatenate([p.data for p in parts], axis=axis), parts,
                   lambda g: np.split(g, cuts, axis=axis))


def take(a, indices) -> Tensor:
    """Per-row gather along the last axis: out[..., j] = a[..., indices[..., j]].

    indices has a's leading shape plus one trailing axis (several elements
    per row), or a's leading shape alone (one element per row, which drops
    the last axis). Backward scatter-adds, so repeated indices accumulate.
    """
    a = _as_tensor(a)
    if a.data.ndim < 1:
        raise DimensionError("take needs at least a 1-D tensor")
    idx = np.asarray(indices, dtype=np.intp)
    shape, size = a.data.shape, a.data.size
    lead, n = shape[:-1], shape[-1]
    one = idx.shape == lead
    picks = idx[..., None] if one else idx
    if picks.shape[:-1] != lead:
        raise DimensionError(
            f"take: indices {idx.shape} do not match the leading shape of {shape}"
        )
    if picks.size and (picks.min() < 0 or picks.max() >= n):
        raise DimensionError(f"take index out of range for last extent {n}")
    # a flat gather from the raveled array: each pick plus its row's start
    flat = picks + np.arange(math.prod(lead)).reshape(lead + (1,)) * n
    data = a.data.ravel()[flat]
    return _record(a.tape, data[..., 0] if one else data, (a,), lambda g: (np.bincount(
        flat.ravel(), weights=np.ravel(g), minlength=size).reshape(shape),))


def softmax(a) -> Tensor:
    """Softmax along the last axis (each row of a batch), shifted by the row
    maximum so large logits do not overflow."""
    a = _as_tensor(a)
    if a.data.ndim < 1:
        raise DimensionError("softmax needs at least a 1-D tensor")
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return _record(a.tape, p, (a,), lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(a: Tensor, axis) -> None:
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise DimensionError(f"axis {axis} out of range for rank {a.data.ndim}")


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    shape = a.data.shape
    def back(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)
    return _record(a.tape, a.data.sum(axis=axis), (a,), back)


def reduce_mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]
    def back(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape),)
    return _record(a.tape, a.data.mean(axis=axis), (a,), back)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias) -> Tensor:
    """Cross-correlation of a B×C_in×H×W batch with a C_out×C_in×K×K kernel.

    Stride 1 and same padding: (K-1)/2 zeros on every side, so the output
    is B×C_out×H×W; K must be odd. The K*K window shifts are taken on the
    narrower side of the kernel, so no transient holds more than
    K*K*min(C_in, C_out) values per pixel: on the input (im2col as one
    contiguous plane per tap, then one product) when C_in <= C_out,
    otherwise on the output (one product per pixel that yields every tap,
    then K*K shifted sums). Every tap moves one way, as one shifted pass
    along the flat pixels: _tap_gather copies it into its own plane and
    _shifted_sum adds it up, sign 1 reading each pixel's window and sign -1
    its adjoint, so each path's backward runs the other helper at the other
    sign. Neither pads a copy of the input.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d: input {x.data.shape} must be B×C×H×W and kernel "
            f"{kernel.data.shape} must be C_out×C_in×K×K"
        )
    c_out, c_in, k, k2 = kernel.data.shape
    if k != k2:
        raise DimensionError(f"conv2d: kernel window must be square, got {k}×{k2}")
    if k % 2 != 1:
        raise DimensionError(f"conv2d: kernel window must be odd, got {k}")
    b, channels, h, w = x.data.shape
    if channels != c_in:
        raise DimensionError(
            f"conv2d: input channels {channels} do not match kernel "
            f"input channels {c_in} (input {x.data.shape}, kernel {kernel.data.shape})"
        )
    if bias.data.shape != (c_out,):
        raise DimensionError(f"conv2d: bias shape {bias.data.shape} must be ({c_out},)")
    tape = _common_tape(x, kernel, bias)
    # the input gradient only for an input on the tape: the image that
    # conv1 reads is not
    x_taped = x.tape is tape

    if c_in <= c_out:
        wmat = kernel.data.reshape(c_out, c_in * k * k)
        cols = _tap_gather(x.data, k, 1).reshape(b, c_in * k * k, h * w)
        prod = cols.swapaxes(1, 2) @ wmat.T                        # B, H*W, C_out
        rows = prod.reshape(b * h, w * c_out)     # a view: the product is a fresh array
        rows += _tiled(bias.data, w)              # so the bias goes in place, row by row
        flat = prod.swapaxes(1, 2)                                 # channel-minor view
        data = flat.reshape(b, c_out, h, w)
        def backward(g):
            g = g.reshape(b, c_out, h * w)
            # the window gradients wmat.T @ g (B×C_in*K*K×H*W) are freed
            # before the kernel gradient copies the rows: held through it,
            # they made the baseline conv2's backward 5-10% slower at B=4
            dx = _shifted_sum((wmat.T @ g).reshape(-1, k, k, 1, h, w),
                              -1).reshape(b, c_in, h, w) if x_taped else None
            # pixel-major rows: with the planes' transposed view as its
            # operand, BLAS adds this sum over every output pixel in
            # another order
            rows = np.ascontiguousarray(cols.swapaxes(1, 2))
            return dx, (g @ rows).sum(axis=0).reshape(c_out, c_in, k, k), g.sum(axis=(0, 2))
    else:
        wmat = kernel.data.transpose(0, 2, 3, 1).reshape(c_out * k * k, c_in)
        flat_x = x.data.reshape(b, c_in, h * w)
        # one product over the batch's pixels, tap-major: a view of a
        # channel-minor input (the coarse conv2's) is its operand as it is;
        # unnamed, so the taps are freed before the bias makes the output
        sums = _shifted_sum((wmat @ x.data.swapaxes(0, 1).reshape(c_in, b * h * w))
                            .reshape(c_out, k, k, b, h, w), 1)
        data = sums.swapaxes(0, 1) + bias.data[:, None, None]
        def backward(g):
            spread = _tap_gather(g, k, -1).reshape(b, c_out * k * k, h * w)
            dw = (spread @ flat_x.swapaxes(1, 2)).sum(axis=0)
            return ((wmat.T @ spread).reshape(b, c_in, h, w) if x_taped else None,
                    dw.reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2),
                    g.reshape(b, c_out, h * w).sum(axis=(0, 2)))
    return _record(tape, data, (x, kernel, bias), backward)


def _tiled(vec: np.ndarray, n: int) -> np.ndarray:
    """vec repeated n times end to end: a per-channel vector laid along a
    row of n channel-minor pixels, so that a per-channel step over that
    memory is one long contiguous pass rather than a loop of C-long ones."""
    row = np.empty((n, vec.size))
    row[:] = vec
    return row.reshape(-1)


def _edge(d: int, n: int) -> slice:
    """Where on a length-n axis a read at offset d (y reads y + d) arrives
    only from across an end: the first d if d > 0, else the last -d."""
    return slice(max(0, n + d), n) if d < 0 else slice(0, d)


@functools.lru_cache(maxsize=64)
def _shifts(k: int, w: int, n: int, sign: int) -> tuple:
    """(destination, source) slices of each K×K tap, in (i, j) order, over
    n flat pixels in rows w wide, where tap (i, j) reads at offset
    sign·((i - p)·w + j - p), p = (K-1)/2, and both ends lie inside. Cached:
    a model uses few shapes, and the slices cost more than a small copy."""
    p = k // 2
    table = []
    for t in range(k * k):
        off = sign * ((t // k - p) * w + t % k - p)
        lo = min(n, max(0, -off))           # a shift past all n pixels moves nothing
        hi = max(lo, n - max(0, off))
        table.append((slice(lo, hi), slice(lo + off, hi + off)))
    return tuple(table)


def _tap_gather(a: np.ndarray, k: int, sign: int) -> np.ndarray:
    """B×C×H×W -> B×C×K×K×H×W, C-contiguous: plane (i, j) holds pixel
    (y + s(i - p), x + s(j - p)) of `a` at (y, x), s = sign, p = (K-1)/2,
    or zero outside `a`. Sign 1 gives an input's padded windows (im2col);
    sign -1 spreads an output gradient onto the input pixels the taps read.
    Each tap is one shifted copy along each image's flat pixels; the
    columns it carried across a row end are then zeroed."""
    b, c, h, w = a.shape
    planes = np.zeros((b, c, k, k, h, w))
    flat, src = planes.reshape(b, c, k * k, h * w), a.reshape(b, c, h * w)
    for t, (dst, sl) in enumerate(_shifts(k, w, h * w, sign)):
        flat[:, :, t, dst] = src[:, :, sl]
    for j in range(k):
        planes[:, :, :, j, :, _edge(sign * (k // 2 - j), w)] = 0.0
    return planes


def _shifted_sum(taps: np.ndarray, sign: int) -> np.ndarray:
    """M×K×K×N×H×W products of each tap with each pixel of N images ->
    M×N×H×W: pixel (y, x) sums tap (i, j) of pixel (y + s(i - p),
    x + s(j - p)), s = sign, p = (K-1)/2, in (i, j) order, bit for bit as a
    sum over zero-padded planes. Sign 1 sums each output pixel's window;
    sign -1, im2col's adjoint, adds each window entry onto the input pixel
    it read. Each tap adds in one contiguous pass over the flat pixels, once
    the rows and columns its shift carries across an image's edge, where the
    padded sum reads zeros, are zeroed. Overwrites `taps`."""
    m, k, _, b, h, w = taps.shape
    for t in range(k):
        d = sign * (t - k // 2)
        taps[:, t, :, :, _edge(d, h), :] = 0.0
        taps[:, :, t, :, :, _edge(d, w)] = 0.0
    n = b * h * w
    flat = taps.reshape(m, k * k, n)
    out = np.zeros((m, n))
    for t, (dst, src) in enumerate(_shifts(k, w, n, sign)):
        out[:, dst] += flat[:, t, src]
    return out.reshape(m, b, h, w)


def avg_pool2(x) -> Tensor:
    """Mean of each 2×2 block of a B×C×H×W tensor with even H and W, as
    ((x00 + x01)/2 + (x10 + x11)/2)/2: the bits of a mean over the column
    pair, then over the row pair. Backward writes (g/2)/2 to all four."""
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4 or xd.shape[2] % 2 or xd.shape[3] % 2:
        raise DimensionError(f"avg_pool2 needs B×C×H×W with even H and W, got {xd.shape}")
    def back(g, shape=xd.shape):
        dx = np.empty(shape)
        dx[:, :, 0::2, 0::2] = dx[:, :, 0::2, 1::2] = dx[:, :, 1::2, 0::2] \
            = dx[:, :, 1::2, 1::2] = g / 2 / 2
        return (dx,)
    return _record(x.tape, ((xd[:, :, 0::2, 0::2] + xd[:, :, 0::2, 1::2]) / 2
                            + (xd[:, :, 1::2, 0::2] + xd[:, :, 1::2, 1::2]) / 2) / 2, (x,), back)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, point: Tensor, eps: float = 1e-5) -> float:
    """Worst relative error between taped and central-difference gradients;
    f must map a Tensor at `point` to a scalar Tensor and be deterministic."""
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    tape = GradientTape()
    probe = Tensor(point.data.copy())
    tape.watch(probe)
    tape.backward(f(probe))
    values = point.data.ravel().copy()
    shape = point.data.shape
    return central_difference_error(
        probe.grad, values, lambda: f(Tensor(values.reshape(shape))).item(), eps)


def central_difference_error(analytic, values: np.ndarray, evaluate,
                             eps: float) -> float:
    """Worst relative error of `analytic` against central differences of
    evaluate() as each entry of the flat array `values` moves to ±eps
    around its value in place (and back). The relative error denominator
    is max(|analytic|, |numeric|, 1e-8)."""
    analytic = np.asarray(analytic).ravel()
    worst = 0.0
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + eps
        plus = evaluate()
        values[i] = orig - eps
        minus = evaluate()
        values[i] = orig
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericError(f"non-finite value while probing coordinate {i}")
        numeric = (plus - minus) / (2.0 * eps)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_RECORD_MAGIC = b"SATN"


def pack(magic: bytes, version: int, meta: dict, named) -> bytes:
    """Checkpoint container: 4-byte magic, u32 version, u32 length plus
    sorted-key JSON metadata, u32 record count, then per record a u16
    length plus UTF-8 name and one SATN tensor record: the magic SATN,
    u32 rank, u32 extents and the little-endian f64 data."""
    blob = json.dumps(meta, sort_keys=True).encode()
    parts = [magic, struct.pack("<II", version, len(blob)), blob, struct.pack("<I", len(named))]
    for name, t in named:
        raw, shape = name.encode(), t.data.shape
        parts += [struct.pack(f"<H{len(raw)}s4sI{len(shape)}I", len(raw), raw,
                              _RECORD_MAGIC, len(shape), *shape),
                  np.ascontiguousarray(t.data, dtype="<f8").tobytes()]
    return b"".join(parts)


def unpack(data: bytes, magic: bytes, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """(metadata, name -> array) of a pack() byte string. Another magic or
    version, a repeated name or bytes after the last record raise
    ValueError; a truncated string raises ValueError or struct.error."""
    buf = io.BytesIO(data)
    if buf.read(4) != magic:
        raise ValueError(f"not a {magic.decode()} checkpoint (bad magic)")
    found, meta_len = struct.unpack("<II", buf.read(8))
    if found != version:
        raise ValueError(f"unsupported {magic.decode()} checkpoint version {found}")
    meta = json.loads(buf.read(meta_len).decode())
    (count,) = struct.unpack("<I", buf.read(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", buf.read(2))
        name = buf.read(name_len).decode()
        if name in arrays:
            raise ValueError(f"checkpoint repeats tensor {name}")
        record = buf.read(4)
        if record != _RECORD_MAGIC:
            raise ValueError(f"bad tensor magic {record!r}, expected {_RECORD_MAGIC!r}")
        (rank,) = struct.unpack("<I", buf.read(4))
        shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(rank))
        values = np.frombuffer(buf.read(8 * math.prod(shape)), dtype="<f8")
        arrays[name] = values.astype(np.float64).reshape(shape)
    if buf.read(1):
        raise ValueError(f"{len(data) - buf.tell() + 1} trailing bytes after the last record")
    return meta, arrays


def assign_params(named, arrays: dict[str, np.ndarray]) -> None:
    """Set each named parameter to the array of its name; ValueError, and no
    assignment, unless the names match exactly, every shape fits and every
    value is finite."""
    names = {name for name, _ in named}
    if names != set(arrays):
        raise ValueError(f"checkpoint lacks tensors {sorted(names - set(arrays))} "
                         f"and has unknown tensors {sorted(set(arrays) - names)}")
    for name, t in named:
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                             f"expected {t.data.shape}")
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"checkpoint tensor {name} has a non-finite value")
    for name, t in named:
        t.data = arrays[name]


def check_sizes(arrays: dict[str, np.ndarray], sizes) -> None:
    """ValueError unless, for each (name, axis, size), that axis of the
    named array has that extent. Run before a model is built, it bounds
    every size in checkpoint metadata by the records already read."""
    for name, axis, size in sizes:
        extent = arrays[name].shape[axis:axis + 1]
        if extent != (size,):
            raise ValueError(f"checkpoint metadata gives size {size!r} where tensor "
                             f"{name} has shape {arrays[name].shape}")
