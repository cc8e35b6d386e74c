"""Dense float64 tensors with explicit-tape reverse-mode differentiation.

A GradientTape records operations in execution order and replays them in
exact reverse on backward(). Tapes are single-use. Tensors created without
a tape are constants, so the same forward code runs tape-free for cheap
inference. add, sub, mul, div and affine broadcast their operands the way
numpy does (a bias row, a per-channel scale, a per-row normalizer), and
one rule, _unbroadcast, sums each gradient back to its operand's shape.
The structural ops that a batched model needs (matmul, transpose, take,
conv2d) also accept a leading batch axis.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Constant view of this tensor: same data, no tape."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.tape = None
        out.tape_id = None
        return out

    def __repr__(self):
        taped = "" if self.tape is None else ", taped"
        return f"Tensor(shape={self.data.shape}{taped})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


class GradientTape:
    """Append-only record of operations, replayed once in reverse.

    watch() marks leaves whose gradients the caller wants; backward()
    accumulates into their .grad and releases their tape reference so the
    same parameter tensors can be watched by the next step's tape.
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
        for out_id, parent_ids, fns in reversed(self._ops):
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for pid, fn in zip(parent_ids, fns):
                if pid is None:
                    continue
                contrib = fn(g)
                acc = grads.get(pid)
                grads[pid] = contrib if acc is None else acc + contrib

        for t in self._leaves:
            g = grads.get(t.tape_id)
            if g is None:
                g = np.zeros_like(t.data)
            elif g.shape != t.data.shape:
                g = np.asarray(g).reshape(t.data.shape)
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
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise TapeError("operands were recorded on different tapes")
    return tape


def _record(tape: GradientTape, out: Tensor, pairs) -> None:
    tape._ops.append((
        out.tape_id,
        tuple(p.tape_id if p.tape is tape else None for p, _ in pairs),
        tuple(fn for _, fn in pairs),
    ))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an upstream gradient over the axes that broadcasting added or
    stretched, back to the operand's shape, in one sum call."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


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
    out = Tensor(_binary(np.add, a, b), tape)
    if tape is not None:
        ash, bsh = a.data.shape, b.data.shape
        _record(tape, out, ((a, lambda g: _unbroadcast(g, ash)),
                            (b, lambda g: _unbroadcast(g, bsh))))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    with np.errstate(invalid="ignore", over="ignore"):
        out = Tensor(_binary(np.subtract, a, b), tape)
    if tape is not None:
        ash, bsh = a.data.shape, b.data.shape
        _record(tape, out, ((a, lambda g: _unbroadcast(g, ash)),
                            (b, lambda g: _unbroadcast(-g, bsh))))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    with np.errstate(over="ignore"):
        out = Tensor(_binary(np.multiply, a, b), tape)
    if tape is not None:
        ad, bd = a.data, b.data
        _record(tape, out, (
            (a, lambda g: _unbroadcast(g * bd, ad.shape)),
            (b, lambda g: _unbroadcast(g * ad, bd.shape)),
        ))
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    tape = _common_tape(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(_binary(np.divide, a, b), tape)
    if tape is not None:
        ad, bd = a.data, b.data
        # negate after the sum: -g would be a fresh array whose layout
        # changes the order in which the sum adds up g * ad
        _record(tape, out, (
            (a, lambda g: _unbroadcast(g / bd, ad.shape)),
            (b, lambda g: -_unbroadcast(g * ad, bd.shape) / (bd * bd)),
        ))
    return out


def affine(x, scale, shift) -> Tensor:
    """x*scale + shift with numpy broadcasting. shift is added in place, so
    a large x costs one temporary, not two; it must broadcast to the shape
    of x*scale."""
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    tape = _common_tape(x, scale, shift)
    try:
        data = x.data * scale.data
        data += shift.data
    except ValueError as err:
        raise DimensionError(f"affine: shapes {x.data.shape}, {scale.data.shape} and "
                             f"{shift.data.shape} do not broadcast") from err
    out = Tensor(data, tape)
    if tape is not None:
        xd, sd, bsh = x.data, scale.data, shift.data.shape
        _record(tape, out, (
            (x, lambda g: _unbroadcast(g * sd, xd.shape)),
            (scale, lambda g: _unbroadcast(g * xd, sd.shape)),
            (shift, lambda g: _unbroadcast(g, bsh)),
        ))
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data, a.tape)
    if a.tape is not None:
        _record(a.tape, out, ((a, lambda g: -g),))
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), a.tape)
    if a.tape is not None:
        mask = a.data > 0
        _record(a.tape, out, ((a, lambda g: g * mask),))
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    out = Tensor(s, a.tape)
    if a.tape is not None:
        _record(a.tape, out, ((a, lambda g: g * s * (1.0 - s)),))
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    out = Tensor(e, a.tape)
    if a.tape is not None:
        _record(a.tape, out, ((a, lambda g: g * e),))
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError("log of a non-positive value")
    out = Tensor(np.log(a.data), a.tape)
    if a.tape is not None:
        ad = a.data
        _record(a.tape, out, ((a, lambda g: g / ad),))
    return out


def power(a, exponent: float) -> Tensor:
    """a**exponent for a fixed float exponent; exponent 0 gives exact ones."""
    a = _as_tensor(a)
    p = float(exponent)
    if p == 0.0:
        out = Tensor(np.ones_like(a.data), a.tape)
        if a.tape is not None:
            zeros = np.zeros_like(a.data)
            _record(a.tape, out, ((a, lambda g: zeros),))
        return out
    with np.errstate(invalid="ignore", divide="ignore"):
        out = Tensor(a.data ** p, a.tape)
    if a.tape is not None:
        ad = a.data
        def back(g):
            with np.errstate(invalid="ignore", divide="ignore"):
                return g * p * ad ** (p - 1.0)
        _record(a.tape, out, ((a, back),))
    return out


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes where a was not clamped."""
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, floor), a.tape)
    if a.tape is not None:
        mask = a.data >= floor
        _record(a.tape, out, ((a, lambda g: g * mask),))
    return out


def broadcast_to(a, shape) -> Tensor:
    """a repeated along new leading axes and along its size-1 axes (numpy
    broadcasting rules); backward sums the copies."""
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError as err:
        raise DimensionError(f"broadcast_to: cannot broadcast {a.data.shape} to {shape}") from err
    out = Tensor(data, a.tape)
    if a.tape is not None:
        orig = a.data.shape
        _record(a.tape, out, ((a, lambda g: _unbroadcast(g, orig)),))
    return out


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
    out = Tensor(data, tape)
    if tape is not None:
        if shared:
            n, p = bd.shape
            back_b = lambda g: ad.reshape(-1, n).T @ g.reshape(-1, p)
        else:
            back_b = lambda g: ad.swapaxes(-1, -2) @ g
        _record(tape, out, (
            (a, lambda g: g @ bd.swapaxes(-1, -2)),
            (b, back_b),
        ))
    return out


def transpose(a) -> Tensor:
    """Swap the last two axes (a matrix, or each matrix of a batch)."""
    a = _as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise DimensionError(f"transpose expects a 2-D or 3-D tensor, got shape {a.data.shape}")
    out = Tensor(a.data.swapaxes(-1, -2), a.tape)
    if a.tape is not None:
        _record(a.tape, out, ((a, lambda g: g.swapaxes(-1, -2)),))
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), a.tape)
    if a.tape is not None:
        orig = a.data.shape
        _record(a.tape, out, ((a, lambda g: g.reshape(orig)),))
    return out


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat of an empty sequence")
    tape = _common_tape(*parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tape)
    if tape is not None:
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)
        pairs = []
        for i, p in enumerate(parts):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            def back(g, lo=lo, hi=hi):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                return g[tuple(sl)]
            pairs.append((p, back))
        _record(tape, out, tuple(pairs))
    return out


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
    lead, n = a.data.shape[:-1], a.data.shape[-1]
    one = idx.shape == lead
    picks = idx[..., None] if one else idx
    if picks.shape[:-1] != lead:
        raise DimensionError(
            f"take: indices {idx.shape} do not match the leading shape of {a.data.shape}"
        )
    if picks.size and (picks.min() < 0 or picks.max() >= n):
        raise DimensionError(f"take index out of range for last extent {n}")
    data = np.take_along_axis(a.data, picks, axis=-1)
    out = Tensor(data[..., 0] if one else data, a.tape)
    if a.tape is not None:
        shape, size = a.data.shape, a.data.size
        rows = size // n if n else 0
        flat = (np.arange(rows)[:, None] * n + picks.reshape(rows, -1)).ravel()

        def back(g):
            return np.bincount(flat, weights=np.ravel(g), minlength=size).reshape(shape)
        _record(a.tape, out, ((a, back),))
    return out


def softmax(a) -> Tensor:
    """Softmax along the last axis (each row of a batch), shifted by the row
    maximum so large logits do not overflow."""
    a = _as_tensor(a)
    if a.data.ndim < 1:
        raise DimensionError("softmax needs at least a 1-D tensor")
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, a.tape)
    if a.tape is not None:
        _record(a.tape, out, ((a, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))),))
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(a: Tensor, axis) -> None:
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise DimensionError(f"axis {axis} out of range for rank {a.data.ndim}")


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    out = Tensor(a.data.sum(axis=axis), a.tape)
    if a.tape is not None:
        shape = a.data.shape
        def back(g):
            if axis is None:
                return np.broadcast_to(g, shape)
            return np.broadcast_to(np.expand_dims(g, axis), shape)
        _record(a.tape, out, ((a, back),))
    return out


def reduce_mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    _check_axis(a, axis)
    out = Tensor(a.data.mean(axis=axis), a.tape)
    if a.tape is not None:
        shape = a.data.shape
        n = a.data.size if axis is None else shape[axis]
        def back(g):
            if axis is None:
                return np.broadcast_to(g / n, shape)
            return np.broadcast_to(np.expand_dims(g, axis) / n, shape)
        _record(a.tape, out, ((a, back),))
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias, padding: int) -> Tensor:
    """Cross-correlation of a C_in×H×W input, or of a B×C_in×H×W batch,
    with a C_out×C_in×K×K kernel.

    Stride 1, symmetric zero padding. Output is C_out×H'×W' (B×C_out×H'×W'
    for a batch) with H' = H + 2*padding - K + 1. The K*K window shifts
    are taken on the narrower side of the kernel, so no transient holds
    more than K*K*min(C_in, C_out) values per pixel: on the input
    (im2col, then one product) when C_in <= C_out, otherwise on the output
    (one product per pixel that yields every tap, then K*K shifted sums).
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim not in (3, 4) or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d: input {x.data.shape} must be C×H×W or B×C×H×W and kernel "
            f"{kernel.data.shape} must be C_out×C_in×K×K"
        )
    c_out, c_in, k, k2 = kernel.data.shape
    if k != k2:
        raise DimensionError(f"conv2d: kernel window must be square, got {k}×{k2}")
    if k % 2 != 1:
        raise DimensionError(f"conv2d: kernel window must be odd, got {k}")
    if x.data.shape[-3] != c_in:
        raise DimensionError(
            f"conv2d: input channels {x.data.shape[-3]} do not match kernel "
            f"input channels {c_in} (input {x.data.shape}, kernel {kernel.data.shape})"
        )
    if bias.data.shape != (c_out,):
        raise DimensionError(f"conv2d: bias shape {bias.data.shape} must be ({c_out},)")
    p = int(padding)
    h, w = x.data.shape[-2:]
    ho, wo = h + 2 * p - k + 1, w + 2 * p - k + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: window {k} too large for padded input {h}×{w}")

    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    b = xd.shape[0]
    if c_in <= c_out:
        wmat = kernel.data.reshape(c_out, c_in * k * k)
        cols = _im2col(xd, k, p, ho, wo)                          # B, Ho*Wo, C_in*K*K
        flat = (cols.reshape(-1, c_in * k * k) @ wmat.T).reshape(b, ho * wo, c_out)
        flat = flat.swapaxes(1, 2)                                # channel-minor view
    else:
        wmat = kernel.data.transpose(0, 2, 3, 1).reshape(c_out * k * k, c_in)
        flat_x = xd.reshape(b, c_in, h * w)
        taps = wmat @ flat_x                                      # B, C_out*K*K, H*W
        flat = _tap_sum(taps.reshape(b, c_out, k, k, h, w), p, ho, wo).reshape(b, c_out, ho * wo)
    flat += bias.data[:, None]                                   # a fresh array: add in place
    data = flat.reshape(b, c_out, ho, wo)
    tape = _common_tape(x, kernel, bias)
    out = Tensor(data[0] if single else data, tape)
    if tape is not None:
        # closures capture arrays and shapes only: a captured Tensor would
        # tie its tape into a reference cycle that outlives the step
        kshape, xshape = kernel.data.shape, x.data.shape

        if c_in <= c_out:
            def back_x(g):
                dcols = g.reshape(b, c_out, ho * wo).swapaxes(1, 2) @ wmat
                return _col2im(dcols, c_in, k, p, h, w, ho, wo).reshape(xshape)

            def back_w(g):
                g = g.reshape(b, c_out, ho * wo)
                return (g @ cols).sum(axis=0).reshape(kshape)
        else:
            def spread(g):
                return _tap_spread(g.reshape(b, c_out, ho, wo), k, p, h, w).reshape(
                    b, c_out * k * k, h * w)

            def back_x(g):
                return (wmat.T @ spread(g)).reshape(xshape)

            def back_w(g):
                dw = (spread(g) @ flat_x.swapaxes(1, 2)).sum(axis=0)
                return dw.reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2)

        _record(tape, out, (
            (x, back_x),
            (kernel, back_w),
            (bias, lambda g: g.reshape(-1, c_out, ho * wo).sum(axis=(0, 2))),
        ))
    return out


def _im2col(xd: np.ndarray, k: int, p: int, ho: int, wo: int) -> np.ndarray:
    """B×C×H×W -> B×(Ho*Wo)×(C*K*K): every K×K window of the padded input."""
    b, c = xd.shape[:2]
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))        # B,C,Ho,Wo,K,K
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)


def _col2im(dcols: np.ndarray, c: int, k: int, p: int, h: int, w: int,
            ho: int, wo: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add window columns back onto B×C×H×W."""
    b = dcols.shape[0]
    dc = dcols.reshape(b, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + ho, j:j + wo] += dc[..., i, j]
    return dxp[:, :, p:p + h, p:p + w] if p else dxp


def _tap_sum(taps: np.ndarray, p: int, ho: int, wo: int) -> np.ndarray:
    """B×C×K×K×H×W per-tap products -> B×C×Ho×Wo: tap (i, j) of output
    pixel (y, x) sits at input pixel (y + i - p, x + j - p)."""
    b, c, k = taps.shape[:3]
    tp = np.pad(taps, ((0, 0),) * 4 + ((p, p), (p, p))) if p else taps
    out = np.zeros((b, c, ho, wo))
    for i in range(k):
        for j in range(k):
            out += tp[:, :, i, j, i:i + ho, j:j + wo]
    return out


def _tap_spread(g: np.ndarray, k: int, p: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _tap_sum: B×C×Ho×Wo -> B×C×K×K×H×W."""
    b, c, ho, wo = g.shape
    dtp = np.zeros((b, c, k, k, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            dtp[:, :, i, j, i:i + ho, j:j + wo] = g
    return dtp[..., p:p + h, p:p + w] if p else dtp


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

_MAGIC = b"SATN"


def dump_tensor(t: Tensor, fh) -> None:
    """Write one binary tensor record: magic, u32 rank, u32 extents, f64 data."""
    fh.write(_MAGIC)
    shape = t.data.shape
    fh.write(struct.pack("<I", len(shape)))
    for extent in shape:
        fh.write(struct.pack("<I", extent))
    fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def read_tensor(fh) -> Tensor:
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}, expected {_MAGIC!r}")
    (rank,) = struct.unpack("<I", fh.read(4))
    shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(rank))
    n = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
    return Tensor(data.reshape(shape))


def save_tensor(t: Tensor, path) -> None:
    with open(path, "wb") as fh:
        dump_tensor(t, fh)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_tensor(fh)


def pack(magic: bytes, version: int, meta: dict, named) -> bytes:
    """Checkpoint container: 4-byte magic, u32 version, u32 length plus
    sorted-key JSON metadata, u32 record count, then per record a u16
    length plus UTF-8 name and one SATN tensor record."""
    blob = json.dumps(meta, sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(magic + struct.pack("<II", version, len(blob)) + blob
              + struct.pack("<I", len(named)))
    for name, t in named:
        raw = name.encode()
        buf.write(struct.pack("<H", len(raw)) + raw)
        dump_tensor(t, buf)
    return buf.getvalue()


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
        arrays[name] = read_tensor(buf).data
    if buf.read(1):
        raise ValueError(f"{len(data) - buf.tell() + 1} trailing bytes after the last record")
    return meta, arrays


def assign_params(named, arrays: dict[str, np.ndarray]) -> None:
    """Set each named parameter to the array of its name; ValueError, and no
    assignment, unless the names match exactly and every shape fits."""
    names = {name for name, _ in named}
    if names != set(arrays):
        raise ValueError(f"checkpoint lacks tensors {sorted(names - set(arrays))} "
                         f"and has unknown tensors {sorted(set(arrays) - names)}")
    for name, t in named:
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                             f"expected {t.data.shape}")
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


def tensor_to_csv(t: Tensor, path) -> None:
    """Human-readable dump: a shape comment line, then one row per line."""
    rows = t.data.reshape(-1, t.data.shape[-1]) if t.data.ndim >= 2 else t.data.reshape(1, -1)
    with open(path, "w") as fh:
        fh.write("# shape: " + "x".join(str(e) for e in t.data.shape) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
