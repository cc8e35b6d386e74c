"""Dense float64 tensors with explicit-tape reverse-mode differentiation.

A GradientTape records operations in execution order and replays them in
exact reverse on backward(). Tapes are single-use. Tensors created without
a tape are constants, so the same forward code runs tape-free for cheap
inference. add, sub, mul, div and affine broadcast their operands the way
numpy does (a bias row, a per-channel scale, a per-row normalizer), and
one rule, _unbroadcast, sums each gradient back to its operand's shape.
The structural ops that a batched model needs (matmul, transpose, take)
also accept a leading batch axis; conv2d and avg_pool2 take batches only.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct

import numpy as np


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


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), a.tape)
    if a.tape is not None:
        # a C-order mask whatever a's layout: the gradient arrives C-ordered,
        # and a bool mask in another layout sends g * mask through numpy's
        # slow buffered path (the coarse conv1 output is channel-minor)
        mask = np.greater(a.data, 0, order="C")
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
    """a with a new shape; reshaping to its own shape returns a itself and
    records nothing, so flattening a batch that is already flat is free."""
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    if data.shape == a.data.shape:
        return a
    out = Tensor(data, a.tape)
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
    # a flat gather from the raveled array: each pick plus its row's start
    flat = picks + np.arange(math.prod(lead)).reshape(lead + (1,)) * n
    data = a.data.ravel()[flat]
    out = Tensor(data[..., 0] if one else data, a.tape)
    if a.tape is not None:
        shape, size = a.data.shape, a.data.size

        def back(g):
            return np.bincount(flat.ravel(), weights=np.ravel(g),
                               minlength=size).reshape(shape)
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
    """Cross-correlation of a B×C_in×H×W batch with a C_out×C_in×K×K kernel.

    Stride 1, symmetric zero padding. Output is B×C_out×H'×W' with
    H' = H + 2*padding - K + 1. The K*K window shifts are taken on the
    narrower side of the kernel, so no transient holds more than
    K*K*min(C_in, C_out) values per pixel: on the input (im2col, then one
    product) when C_in <= C_out, otherwise on the output (one product per
    pixel that yields every tap, then K*K shifted sums). Either way each
    tap moves only its slice inside the input (_taps): no padded copy.
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
    p = int(padding)
    if p < 0:
        raise DimensionError(f"conv2d: padding must be >= 0, got {p}")
    ho, wo = h + 2 * p - k + 1, w + 2 * p - k + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: window {k} too large for padded input {h}×{w}")

    if c_in <= c_out:
        wmat = kernel.data.reshape(c_out, c_in * k * k)
        cols = _im2col(x.data, k, p, ho, wo)                          # B, Ho*Wo, C_in*K*K
        flat = (cols.reshape(-1, c_in * k * k) @ wmat.T).reshape(b, ho * wo, c_out)
        flat = flat.swapaxes(1, 2)                                # channel-minor view
    else:
        wmat = kernel.data.transpose(0, 2, 3, 1).reshape(c_out * k * k, c_in)
        flat_x = x.data.reshape(b, c_in, h * w)
        taps = wmat @ flat_x                                      # B, C_out*K*K, H*W
        flat = _tap_sum(taps.reshape(b, c_out, k, k, h, w), p, ho, wo).reshape(b, c_out, ho * wo)
    flat += bias.data[:, None]                                   # a fresh array: add in place
    data = flat.reshape(b, c_out, ho, wo)
    tape = _common_tape(x, kernel, bias)
    out = Tensor(data, tape)
    if tape is not None:
        # closures capture arrays and shapes only: a captured Tensor would
        # tie its tape into a reference cycle that outlives the step
        if c_in <= c_out:
            def back_x(g):
                dcols = g.reshape(b, c_out, ho * wo).swapaxes(1, 2) @ wmat
                return _col2im(dcols, c_in, k, p, h, w, ho, wo)

            def back_w(g):
                g = g.reshape(b, c_out, ho * wo)
                return (g @ cols).sum(axis=0).reshape(c_out, c_in, k, k)
        else:
            def spread(g):
                return _tap_spread(g, k, p, h, w).reshape(b, c_out * k * k, h * w)

            # the tape calls back_x, then back_w, with the same g: when it
            # calls both, back_x hands its spread on rather than both building one
            handed = []
            kernel_taped = kernel.tape is tape

            def back_x(g):
                s = spread(g)
                if kernel_taped:
                    handed.append(s)
                return (wmat.T @ s).reshape(b, c_in, h, w)

            def back_w(g):
                s = handed.pop() if handed else spread(g)
                dw = (s @ flat_x.swapaxes(1, 2)).sum(axis=0)
                return dw.reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2)

        _record(tape, out, (
            (x, back_x),
            (kernel, back_w),
            (bias, lambda g: g.reshape(b, c_out, ho * wo).sum(axis=(0, 2))),
        ))
    return out


@functools.lru_cache(maxsize=64)
def _taps(k: int, p: int, h: int, w: int, ho: int, wo: int) -> tuple:
    """(i, j, output slices, input slices) of each K×K tap in (i, j) order:
    tap (i, j) of output pixel (y, x) is input pixel (y + i - p, x + j - p),
    and the slices cover where both lie inside their extents. Cached, as a
    model uses few shapes and the slices cost more than a small image's copy."""
    def overlap(offset: int, n_in: int, n_out: int) -> tuple[slice, slice]:
        lo = max(0, -offset)
        hi = max(lo, min(n_out, n_in - offset))
        return slice(lo, hi), slice(lo + offset, hi + offset)
    rows = [overlap(i - p, h, ho) for i in range(k)]
    cols = [overlap(j - p, w, wo) for j in range(k)]
    return tuple((i, j, (oy, ox), (iy, ix))
                 for i, (oy, iy) in enumerate(rows) for j, (ox, ix) in enumerate(cols))


def _im2col(xd: np.ndarray, k: int, p: int, ho: int, wo: int) -> np.ndarray:
    """B×C×H×W -> B×(Ho*Wo)×(C*K*K), C-contiguous: every K×K window of the
    zero-padded input in (c, i, j) column order, built by copying each
    tap's in-range slice into a zeroed buffer, with no padded input."""
    b, c, h, w = xd.shape
    cols = np.zeros((b, ho, wo, c, k, k))
    xt = xd.transpose(0, 2, 3, 1)                                 # B,H,W,C view
    for i, j, (oy, ox), (iy, ix) in _taps(k, p, h, w, ho, wo):
        cols[:, oy, ox, :, i, j] = xt[:, iy, ix]
    return cols.reshape(b, ho * wo, c * k * k)


def _col2im(dcols: np.ndarray, c: int, k: int, p: int, h: int, w: int,
            ho: int, wo: int) -> np.ndarray:
    """Adjoint of _im2col: each tap adds its in-range slice straight into
    the B×C×H×W result in (i, j) order, so every pixel gets the adds of a
    padded buffer, in the same order, with no buffer to pad or crop."""
    b = dcols.shape[0]
    dc = dcols.reshape(b, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros((b, c, h, w))
    for i, j, (oy, ox), (iy, ix) in _taps(k, p, h, w, ho, wo):
        dx[:, :, iy, ix] += dc[:, :, oy, ox, i, j]
    return dx


def _tap_sum(taps: np.ndarray, p: int, ho: int, wo: int) -> np.ndarray:
    """B×C×K×K×H×W per-tap products -> B×C×Ho×Wo. Each tap adds only its
    slice inside the input, in the (i, j) order of a sum over zero-padded
    taps: a skipped term would add +0.0 to an accumulator that starts at
    +0.0 and never becomes -0.0, so the result is that sum bit for bit."""
    b, c, k, _, h, w = taps.shape
    out = np.zeros((b, c, ho, wo))
    for i, j, (oy, ox), (iy, ix) in _taps(k, p, h, w, ho, wo):
        out[:, :, oy, ox] += taps[:, :, i, j, iy, ix]
    return out


def _tap_spread(g: np.ndarray, k: int, p: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _tap_sum: B×C×Ho×Wo -> B×C×K×K×H×W, C-contiguous, so
    merging its axes for a matrix product copies nothing. Entry (i, j, y,
    x) is g at the output pixel whose tap (i, j) sits at input pixel
    (y, x), or zero where no output pixel has such a tap."""
    b, c, ho, wo = g.shape
    out = np.zeros((b, c, k, k, h, w))
    for i, j, (oy, ox), (iy, ix) in _taps(k, p, h, w, ho, wo):
        out[:, :, i, j, iy, ix] = g[:, :, oy, ox]
    return out


def avg_pool2(x) -> Tensor:
    """Mean of each 2×2 block of a B×C×H×W tensor with even H and W, as
    ((x00 + x01)/2 + (x10 + x11)/2)/2: the bits of a mean over the column
    pair, then over the row pair. Backward writes (g/2)/2 to all four."""
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4 or xd.shape[2] % 2 or xd.shape[3] % 2:
        raise DimensionError(f"avg_pool2 needs B×C×H×W with even H and W, got {xd.shape}")
    out = Tensor(((xd[:, :, 0::2, 0::2] + xd[:, :, 0::2, 1::2]) / 2
                  + (xd[:, :, 1::2, 0::2] + xd[:, :, 1::2, 1::2]) / 2) / 2, x.tape)
    if x.tape is not None:
        def back(g, shape=xd.shape):
            dx = np.empty(shape)
            dx[:, :, 0::2, 0::2] = dx[:, :, 0::2, 1::2] = dx[:, :, 1::2, 0::2] \
                = dx[:, :, 1::2, 1::2] = g / 2 / 2
            return dx
        _record(x.tape, out, ((x, back),))
    return out


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


def tensor_to_csv(t: Tensor, path) -> None:
    """Human-readable dump: a shape comment line, then one row per line."""
    rows = t.data.reshape(-1, t.data.shape[-1]) if t.data.ndim >= 2 else t.data.reshape(1, -1)
    with open(path, "w") as fh:
        fh.write("# shape: " + "x".join(str(e) for e in t.data.shape) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
