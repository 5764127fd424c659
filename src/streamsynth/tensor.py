"""Dense float64 tensors with taped reverse-mode gradients.

Every array in this package is a row-major float64 ndarray wrapped in a
:class:`Tensor`. Operations executed while a :class:`Tape` is active are
recorded so that :func:`backward` can replay them in exact reverse order.
Reductions run left-to-right (or via kernels verified to be prefix-stable)
so that repeated runs and streaming prefix runs are reproducible at the
bit level.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "DimensionError",
    "TapeError",
    "EmptyLossError",
    "MaskedRowError",
    "tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "activation",
    "relu",
    "silu",
    "tanh",
    "softplus",
    "softmax",
    "layer_norm",
    "embedding_lookup",
    "take_rows",
    "conv1d_right_padded",
    "cross_entropy_ignore",
    "masked_attention",
    "add_rowvec",
    "concat_cols",
    "slice_cols",
    "abs_val",
    "sum_all",
    "mean_all",
    "backward",
    "check_gradients",
]

_LN_EPS = 1e-8


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class TapeError(RuntimeError):
    """Tape misuse: backward on a tape-less value, non-scalar loss, ..."""


class EmptyLossError(ValueError):
    """A loss was requested over zero scored positions."""


class MaskedRowError(ValueError):
    """An attention row has no allowed positions."""


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


class _Node:
    __slots__ = ("out", "backward_fn")

    def __init__(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self.out = out
        self.backward_fn = backward_fn


_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of executed primitives, replayed backward in reverse.

    A tape and the tensors recorded on it belong to one thread; separate
    threads may each run their own tape.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._prev: "Tape | None" = None

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tape = self._prev
        self._prev = None

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        out._tape = self
        self.nodes.append(_Node(out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeError("loss was not produced on this tape")
        loss.accumulate_grad(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            g = node.out.grad
            if g is None:
                continue
            node.backward_fn(g)


def backward(loss: Tensor) -> None:
    """Populate .grad on every recorded input reachable from ``loss``."""
    if loss._tape is None:
        raise TapeError("loss was not produced on an active tape")
    loss._tape.backward(loss)


def _result(
    data: np.ndarray,
    inputs: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = needs
    out._tape = None
    if needs:
        tape.record(out, backward_fn)
    return out


def _as_operands(a: Tensor, b) -> tuple[Tensor, Tensor, bool]:
    """Coerce ``b``; only scalar-vs-tensor mixing is allowed beyond same-shape."""
    if not isinstance(b, Tensor):
        b = Tensor(np.float64(b))
    b_scalar = b.data.ndim == 0
    a_scalar = a.data.ndim == 0
    if a.data.shape != b.data.shape and not (a_scalar or b_scalar):
        raise DimensionError(f"elementwise shapes {a.shape} vs {b.shape}")
    return a, b, b_scalar or a_scalar


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    # only the scalar-vs-tensor case can land here
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def add(a: Tensor, b) -> Tensor:
    a, b, _ = _as_operands(a, b)
    data = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g, b.data.shape))

    return _result(data, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    a, b, _ = _as_operands(a, b)
    data = a.data - b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(-g, b.data.shape))

    return _result(data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a, b, _ = _as_operands(a, b)
    data = a.data * b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g * a.data, b.data.shape))

    return _result(data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _result(data, (a,), bwd)


def matmul(a: Tensor, b: Tensor, row_stable: bool = False) -> Tensor:
    """Matrix product.

    With ``row_stable=True`` the forward pass uses a kernel whose row
    results do not depend on the number of rows, so computing a prefix of
    ``a`` reproduces the corresponding prefix of the full product bit for
    bit. Needed wherever streaming reruns must match offline runs exactly.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner extents {a.shape} x {b.shape}")
    if row_stable:
        data = np.einsum("lk,kn->ln", a.data, b.data, optimize=False)
    else:
        data = a.data @ b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _result(data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0))

    return _result(data, (a,), bwd)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * sig

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (sig + a.data * sig * (1.0 - sig)))

    return _result(data, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - data * data))

    return _result(data, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed without overflow
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * sig)

    return _result(data, (a,), bwd)


_ACTIVATIONS = {"relu": relu, "silu": silu, "tanh": tanh}


def activation(a: Tensor, op: str) -> Tensor:
    try:
        fn = _ACTIVATIONS[op]
    except KeyError:
        raise ValueError(f"unknown activation {op!r}") from None
    return fn(a)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate_grad((g - inner) * data)

    return _result(data, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine."""
    if a.data.ndim != 2:
        raise DimensionError("layer_norm expects [L, F]")
    f = a.data.shape[1]
    if gain.data.shape != (f,) or bias.data.shape != (f,):
        raise DimensionError("layer_norm gain/bias must have shape [F]")
    mu = a.data.mean(axis=1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=1, keepdims=True)
            m2 = (gx * xhat).mean(axis=1, keepdims=True)
            a.accumulate_grad((gx - m1 - xhat * m2) * inv)

    return _result(data, (a, gain, bias), bwd)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("embedding ids must be a flat list")
    if table.data.ndim != 2:
        raise DimensionError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError("embedding id out of range")
    data = table.data[idx].copy()

    def bwd(g: np.ndarray) -> None:
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            table.accumulate_grad(acc)

    return _result(data, (table,), bwd)


def take_rows(x: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather with scatter-add gradient; also used as the 2x upsampler."""
    return embedding_lookup(x, ids)


def conv1d_right_padded(x: Tensor, kernel: Tensor, pad: int) -> Tensor:
    """Right-padded 1-D convolution along rows: out[i] = sum_k kernel[k]*x[i+k].

    Position i only sees rows i..i+pad; rows past the end read zeros.
    """
    if x.data.ndim != 2:
        raise DimensionError("conv input must be [L, F]")
    if kernel.data.ndim != 1:
        raise DimensionError("conv kernel must be a vector")
    ksize = kernel.data.shape[0]
    if pad < 0 or ksize != pad + 1:
        raise DimensionError(f"kernel_size {ksize} must equal pad+1 ({pad + 1})")
    length = x.data.shape[0]
    xpad = np.concatenate([x.data, np.zeros((pad, x.data.shape[1]))], axis=0)
    data = np.zeros_like(x.data)
    for k in range(ksize):  # fixed tap order keeps the sum reproducible
        data += kernel.data[k] * xpad[k : k + length]

    def bwd(g: np.ndarray) -> None:
        if kernel.requires_grad:
            kg = np.array([(g * xpad[k : k + length]).sum() for k in range(ksize)])
            kernel.accumulate_grad(kg)
        if x.requires_grad:
            gpad = np.concatenate([np.zeros((pad, g.shape[1])), g], axis=0)
            xg = np.zeros_like(x.data)
            for k in range(ksize):
                xg += kernel.data[k] * gpad[pad - k : pad - k + length]
            x.accumulate_grad(xg)

    return _result(data, (x, kernel), bwd)


def cross_entropy_ignore(
    logits: Tensor, targets: Sequence[int], ignore_mask: Sequence[bool]
) -> Tensor:
    """Mean NLL over non-ignored positions; ignored rows get zero loss/grad."""
    if logits.data.ndim != 2:
        raise DimensionError("logits must be [L, V]")
    length, vocab = logits.data.shape
    tgt = list(targets)
    ign = list(ignore_mask)
    if len(tgt) != length or len(ign) != length:
        raise DimensionError("targets/ignore_mask length must match logits rows")
    active = np.flatnonzero(np.logical_not(ign))
    if active.size == 0:
        raise EmptyLossError("all positions ignored: empty loss")
    tgt_arr = np.asarray(tgt, dtype=np.int64)
    if (tgt_arr[active] < 0).any() or (tgt_arr[active] >= vocab).any():
        raise IndexError("target id out of range at a scored position")

    rows = logits.data[active]
    z = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    picked = logp[np.arange(active.size), tgt_arr[active]]
    data = np.asarray(-picked.sum() / active.size)

    def bwd(g: np.ndarray) -> None:
        if logits.requires_grad:
            soft = np.exp(logp)
            soft[np.arange(active.size), tgt_arr[active]] -= 1.0
            full = np.zeros_like(logits.data)
            full[active] = soft * (float(g) / active.size)
            logits.accumulate_grad(full)

    return _result(data, (logits,), bwd)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention restricted to mask[i][j] == True pairs.

    Each output row is computed over exactly its allowed positions, so a row
    whose window lies inside a prefix is reproduced bit for bit when the
    sequence is extended. ``q`` may hold only the last Lq of the Lk rows
    (``mask`` [Lq, Lk]); its outputs then equal those rows of the square call.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.data.shape != v.data.shape \
            or q.data.shape[1] != k.data.shape[1]:
        raise DimensionError("q must be [Lq, F], k and v [Lk, F]")
    length, feat = q.data.shape
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (length, k.data.shape[0]):
        raise DimensionError(f"mask must be {length}x{k.data.shape[0]}")
    inv_scale = 1.0 / np.sqrt(feat)

    windows: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    data = np.zeros_like(q.data)
    for i in range(length):
        idx = np.flatnonzero(mask[i])
        if idx.size == 0:
            raise MaskedRowError(f"attention row {i} has no allowed positions")
        scores = (k.data[idx] @ q.data[i]) * inv_scale
        z = scores - scores.max()
        e = np.exp(z)
        p = e / e.sum()
        data[i] = p @ v.data[idx]
        windows.append(idx)
        probs.append(p)

    def bwd(g: np.ndarray) -> None:
        qg = np.zeros_like(q.data) if q.requires_grad else None
        kg = np.zeros_like(k.data) if k.requires_grad else None
        vg = np.zeros_like(v.data) if v.requires_grad else None
        for i in range(length):
            idx, p = windows[i], probs[i]
            gi = g[i]
            if vg is not None:
                vg[idx] += p[:, None] * gi
            gp = v.data[idx] @ gi
            gs = p * (gp - (gp * p).sum())
            if qg is not None:
                qg[i] = (gs @ k.data[idx]) * inv_scale
            if kg is not None:
                kg[idx] += gs[:, None] * (q.data[i] * inv_scale)
        if qg is not None:
            q.accumulate_grad(qg)
        if kg is not None:
            k.accumulate_grad(kg)
        if vg is not None:
            v.accumulate_grad(vg)

    return _result(data, (q, k, v), bwd)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a [F] vector to every row of a [L, F] matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"add_rowvec shapes {x.shape} vs {b.shape}")
    data = x.data + b.data

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return _result(data, (x, b), bwd)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_cols needs at least one part")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise DimensionError("concat_cols parts must share row count")
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[:, lo:hi])

    return _result(data, tuple(parts), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("slice_cols expects [L, F]")
    if not (0 <= start < stop <= x.data.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}) out of range")
    data = x.data[:, start:stop].copy()

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = g
            x.accumulate_grad(full)

    return _result(data, (x,), bwd)


def abs_val(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * np.sign(a.data))

    return _result(data, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _result(data, (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.sum() / n)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g) / n))

    return _result(data, (a,), bwd)


def check_gradients(
    f: Callable[[], Tensor],
    point: Sequence[Tensor],
    step: float = 1e-4,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be a deterministic closure over the tensors in ``point``.
    Returns the maximum relative error over all checked coordinates; pass
    ``max_coords`` to subsample coordinates of large parameter sets.
    """
    for p in point:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in point]

    worst = 0.0
    for p, a in zip(point, analytic):
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=max_coords, replace=False)
        aflat = a.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            up = f().item()
            flat[c] = orig - step
            down = f().item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(aflat[c] - numeric) / max(abs(aflat[c]) + abs(numeric), 1e-6)
            if err > worst:
                worst = err
    return worst
