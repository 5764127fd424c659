"""Dense float64 tensors with taped reverse-mode gradients.

Every array in this package is a row-major float64 ndarray wrapped in a
:class:`Tensor`. Operations executed while a :class:`Tape` is active are
recorded so that :meth:`Tape.backward` can replay them in exact reverse order.
Reductions run left-to-right (or via kernels verified to be prefix-stable)
so that repeated runs and streaming prefix runs are reproducible at the
bit level.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "RowGrad",
    "Tape",
    "suspend_tape",
    "DimensionError",
    "TapeError",
    "EmptyLossError",
    "MaskedRowError",
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
    "AttentionPlan",
    "masked_attention",
    "append_rows",
    "add_rowvec",
    "concat_cols",
    "slice_cols",
    "abs_val",
    "sum_all",
    "mean_all",
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


class RowGrad(NamedTuple):
    """A gradient that is zero outside ``rows``, distinct row indices in
    ascending order; ``vals[i]`` is the gradient of row ``rows[i]``."""

    rows: np.ndarray
    vals: np.ndarray


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray | RowGrad) -> None:
        """Add ``g`` into ``grad``; a :class:`RowGrad` only into its rows.

        A first gradient is stored as one fresh array, not an alias of ``g``,
        with ``+ 0.0`` turning ``-0.0`` into ``+0.0``, as adding ``g`` into
        zeros would. So a stored gradient never holds ``-0.0`` (a sum is
        ``-0.0`` only when both terms are), and leaving a row out of an add
        gives the bytes of adding its zeros.
        """
        rows, vals = g if isinstance(g, RowGrad) else (None, g)
        shape = self.data.shape if rows is None else (rows.size, *self.data.shape[1:])
        if vals.shape != shape:
            raise DimensionError(
                f"gradient shape {vals.shape} != tensor shape {shape}"
            )
        if rows is None:
            if self.grad is None:
                self.grad = vals + 0.0
            else:
                self.grad += vals
        elif self.grad is None:
            self.grad = np.zeros_like(self.data)
            self.grad[rows] = vals + 0.0
        else:
            self.grad[rows] += vals

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"


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
        self.nodes.append(_Node(out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Backpropagate ``loss`` through the recorded nodes, last to first.

        Backward consumes the tape: it takes the node list off the tape and
        drops each node once it has run. Each output's gradient is taken off
        the output (``out.grad`` is ``None`` afterwards) as it is handed to
        the node, so an intermediate gradient, a node's closure and the
        arrays it captured are freed as soon as backward has passed them.
        Only tensors that no node produced (parameters, inputs) keep their
        gradients. A second ``backward`` on the same tape raises
        :class:`TapeError`.
        """
        if loss.data.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not any(node.out is loss for node in reversed(self.nodes)):
            raise TapeError("loss was not produced on this tape, or its backward already ran")
        nodes, self.nodes = self.nodes, []
        loss.accumulate_grad(np.ones_like(loss.data))
        while nodes:
            node = nodes.pop()
            g, node.out.grad = node.out.grad, None
            if g is not None:
                node.backward_fn(g)


@contextmanager
def suspend_tape() -> Iterator[None]:
    """Record nothing inside this block, even under an active :class:`Tape`."""
    prev = _active_tape()
    _tls.tape = None
    try:
        yield
    finally:
        _tls.tape = prev


def _result(data: np.ndarray,
            *grads: tuple[Tensor, Callable[[np.ndarray], np.ndarray | RowGrad]]) -> Tensor:
    """Wrap ``data`` as the output of a primitive with one ``(input, fn)``
    pair per input, where ``fn(g)`` is that input's gradient given the
    output's gradient ``g``, dense or a :class:`RowGrad`.

    This is the one place that applies the gradient rule: under an active
    tape, with some input requiring a gradient, the output is recorded, and
    its backward calls, in input order, the ``fn`` of each input that then
    requires a gradient and accumulates the result into that input. No
    ``fn`` runs for a frozen input or off the tape.
    """
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t, _ in grads)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = needs
    if needs:
        def backward_fn(g: np.ndarray) -> None:
            for t, fn in grads:
                if t.requires_grad:
                    t.accumulate_grad(fn(g))

        tape.record(out, backward_fn)
    return out


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"elementwise shapes {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    return _result(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    return _result(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    return _result(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a, lambda g: g * c))


def _product(a: np.ndarray, b: np.ndarray, row_stable: bool) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents {a.shape} x {b.shape}")
    if not row_stable:
        return a @ b
    # einsum adds the products into each output in k order when its inner
    # loop runs along a row of b; with one column, or a column-major b, the
    # loop runs along k instead, through a dot kernel that sums in another
    # order. A C-contiguous b with a zero second column keeps it on the row.
    if b.shape[1] == 1:
        return _product(a, np.concatenate([b, np.zeros_like(b)], axis=1), True)[:, :1].copy()
    return np.einsum("lk,kn->ln", a, np.ascontiguousarray(b), optimize=False)


def matmul(a: Tensor, b: Tensor, row_stable: bool = False,
           bias: Tensor | None = None) -> Tensor:
    """Matrix product ``a @ b``, plus ``bias`` added to every row if given.

    With ``row_stable=True`` the forward pass uses a kernel whose row
    results do not depend on the number of rows, so computing a prefix of
    ``a`` reproduces the corresponding prefix of the full product bit for
    bit. Needed wherever streaming reruns must match offline runs exactly.
    That kernel computes every output, at every shape, as the explicit sum
    ``acc = 0.0; for k: acc += a[l, k] * b[k, n]``: in ``k`` order, from
    ``+0.0``, each product rounded before it is added.

    The bias is added inside the one primitive, with gradient ``g.sum(0)``;
    ``a`` and ``b`` get ``g @ b.T`` and ``a.T @ g``. These are the bytes of
    :func:`add_rowvec` over a separate product: a stored gradient never
    holds ``-0.0`` (the first is stored as ``g + 0.0``, and a sum is
    ``-0.0`` only when both terms are), so the product's gradient there was
    ``g`` itself.

    Every layer of the models multiplies by its weight through one call of
    this primitive, so a wrapper around it sees every weight product.
    """
    data = _product(a.data, b.data, row_stable)
    if bias is not None:
        if bias.data.shape != data.shape[1:]:
            raise DimensionError(f"bias shape {bias.shape} vs product {data.shape}")
        data += bias.data
    grads = () if bias is None else ((bias, lambda g: g.sum(axis=0)),)
    return _result(data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g), *grads)


def relu(a: Tensor) -> Tensor:
    return _result(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _result(a.data * sig, (a, lambda g: g * (sig + a.data * sig * (1.0 - sig))))


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _result(data, (a, lambda g: g * (1.0 - data * data)))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed without overflow
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    return _result(data, (a, lambda g: g * (1.0 / (1.0 + np.exp(-a.data)))))


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
    return _result(data, (a, lambda g: (g - (g * data).sum(axis=axis, keepdims=True)) * data))


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=1, keepdims=True)`` byte for byte: the same sum, divided in
    place as ``np.mean`` divides it, without that function's Python dispatch."""
    out = np.add.reduce(x, axis=1, keepdims=True)
    out /= x.shape[1]
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine."""
    if a.data.ndim != 2:
        raise DimensionError("layer_norm expects [L, F]")
    f = a.data.shape[1]
    if gain.data.shape != (f,) or bias.data.shape != (f,):
        raise DimensionError("layer_norm gain/bias must have shape [F]")
    mu = _row_mean(a.data)
    centered = a.data - mu
    var = _row_mean(centered * centered)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def grad_a(g: np.ndarray) -> np.ndarray:
        gx = g * gain.data
        m1 = _row_mean(gx)
        m2 = _row_mean(gx * xhat)
        return (gx - m1 - xhat * m2) * inv

    return _result(data, (a, grad_a), (gain, lambda g: (g * xhat).sum(axis=0)),
                   (bias, lambda g: g.sum(axis=0)))


def _gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows ``ids`` of ``table``, with a gradient into the touched rows only.

    The one kernel of ``embedding_lookup`` and ``take_rows``, so that each
    call is one primitive to a profiler that wraps them by name.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("embedding ids must be a flat list")
    if table.data.ndim != 2:
        raise DimensionError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError("embedding id out of range")
    data = table.data[idx]

    def grad_table(g: np.ndarray) -> RowGrad:
        # the touched rows, ascending, and each id's place among them
        seen = np.zeros(table.data.shape[0], dtype=bool)
        seen[idx] = True
        rows = seen.nonzero()[0]
        place = np.empty(seen.size, dtype=np.intp)
        place[rows] = np.arange(rows.size)
        # each touched row sums its ids' rows of g in id order, from +0.0, as
        # a scatter into a zeroed table does; np.add.at takes its fast path
        # over flat indices
        f = g.shape[1]
        vals = np.zeros((rows.size, f))
        np.add.at(vals.reshape(-1), (place[idx][:, None] * f + np.arange(f)).reshape(-1),
                  g.reshape(-1))
        return RowGrad(rows, vals)

    return _result(data, (table, grad_table))


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    return _gather_rows(table, ids)


def take_rows(x: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather with scatter-add gradient; also used as the 2x upsampler."""
    return _gather_rows(x, ids)


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

    def grad_x(g: np.ndarray) -> np.ndarray:
        gpad = np.concatenate([np.zeros((pad, g.shape[1])), g], axis=0)
        xg = np.zeros_like(x.data)
        for k in range(ksize):
            xg += kernel.data[k] * gpad[pad - k : pad - k + length]
        return xg

    return _result(data, (x, grad_x), (kernel, lambda g: np.array(
        [(g * xpad[k : k + length]).sum() for k in range(ksize)])))


def cross_entropy_ignore(
    logits: Tensor, targets: Sequence[int], ignore_mask: Sequence[bool]
) -> Tensor:
    """Mean NLL over non-ignored positions; ignored rows get zero loss/grad.

    The backward keeps two [A, 1] columns of the A scored rows, their maxima
    and log-sum-exps, and rebuilds ``exp((rows - max) - lse)`` from
    ``logits.data``, which the tape keeps alive until this node has run.
    The forward makes one [A, V] array and the backward two (the rows and
    the zeroed full gradient), each updated in place with the operations,
    in order, of the plain formula ``logp = (rows - max) - lse``, so the
    bytes are those of that formula.
    """
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

    picks = (np.arange(active.size), tgt_arr[active])
    z = logits.data[active]
    top = z.max(axis=1, keepdims=True)
    z -= top
    z_picked = z[picks]
    lse = np.log(np.exp(z, out=z).sum(axis=1, keepdims=True))
    data = np.asarray(-(z_picked - lse[:, 0]).sum() / active.size)

    def grad_logits(g: np.ndarray) -> np.ndarray:
        soft = logits.data[active]
        soft -= top
        soft -= lse
        np.exp(soft, out=soft)
        soft[picks] -= 1.0
        soft *= float(g) / active.size
        full = np.zeros_like(logits.data)
        full[active] = soft
        return full

    return _result(data, (logits, grad_logits))


class AttentionPlan:
    """The row groups of an attention mask, worked out once for any number of
    :func:`masked_attention` calls under that mask.

    Consecutive rows with equal mask rows share a window and form one
    group: every row of a chunk under a chunk mask, every row of a
    non-causal mask, one row per group under a causal mask. A window that is
    one contiguous range, as every mask ``build_mask`` makes is, is kept as
    a slice, read as a view; any other as an index array. A row with no
    allowed position raises :class:`MaskedRowError` here.

    The plan holds its own read-only copy of the mask, so it cannot
    disagree with the mask it was planned from; ``np.asarray(plan)`` reads
    that copy.
    """

    __slots__ = ("mask", "shape", "groups")

    def __init__(self, mask):
        self.mask = np.array(mask, dtype=bool)
        self.mask.flags.writeable = False
        self.shape = self.mask.shape
        rows = self.shape[0]
        # consecutive rows with equal mask rows form one group over one window,
        # so the first row of the first empty group is the first empty row
        cuts = ((self.mask[1:] != self.mask[:-1]).any(axis=1).nonzero()[0] + 1).tolist() \
            if rows > 1 else []
        edges = [0, *cuts, rows] if rows else []
        self.groups: list[tuple[int, int, slice | np.ndarray]] = []
        for lo, hi in zip(edges, edges[1:]):
            idx = self.mask[lo].nonzero()[0]
            if idx.size == 0:
                raise MaskedRowError(f"attention row {lo} has no allowed positions")
            if idx[-1] - idx[0] + 1 == idx.size:
                idx = slice(int(idx[0]), int(idx[-1]) + 1)
            self.groups.append((lo, hi, idx))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mask, dtype=dtype, copy=copy)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Scaled dot-product attention restricted to mask[i][j] == True pairs.

    ``mask`` is a bool array or its :class:`AttentionPlan`; a caller that
    applies one mask many times plans it once and passes the plan.

    Each output row is computed over exactly its allowed positions, so a row
    whose window lies inside a prefix is reproduced bit for bit when the
    sequence is extended. ``q`` may hold only the last Lq of the Lk rows
    (``mask`` [Lq, Lk]); its outputs then equal those rows of the square call.

    The rows of one plan group are computed together. A group's scores
    and outputs are stacked matrix-vector products (``np.matmul`` over
    ``[n, F, 1]`` and ``[n, 1, W]`` operands), for which numpy calls the
    same BLAS matrix-vector kernel once per row that a row-by-row loop calls,
    so a row's bytes do not depend on its group. That holds for C-contiguous
    ``q``, ``k`` and ``v``, which every model call passes; column views of a
    wider array, at widths 1 to 3, give other bytes. ``Q @ K.T`` or ``einsum``
    would run a matrix-matrix kernel whose sums round differently. The
    gradients of ``q`` and of the scores are computed the same way.

    The gradients of ``k`` and ``v`` are each one row-stable product over
    the query rows: an [Lk, Lq] matrix holds every row's score gradients
    (for ``v``, its probabilities) at its window's keys and is zero
    elsewhere. That kernel adds a key's terms in row order from ``+0.0``, as
    a loop that adds each row's outer product into the window does, and a
    zero entry adds ``±0.0``, which changes no such sum, so the bytes are
    those of the row loop.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.data.shape != v.data.shape \
            or q.data.shape[1] != k.data.shape[1]:
        raise DimensionError("q must be [Lq, F], k and v [Lk, F]")
    length, feat = q.data.shape
    if np.shape(mask) != (length, k.data.shape[0]):
        raise DimensionError(f"mask must be {length}x{k.data.shape[0]}")
    inv_scale = 1.0 / math.sqrt(feat)

    groups: list[tuple[int, int, slice | np.ndarray, np.ndarray]] = []
    data = np.zeros(q.data.shape)
    plan = mask if isinstance(mask, AttentionPlan) else AttentionPlan(mask)
    for lo, hi, idx in plan.groups:
        scores = np.matmul(k.data[idx][None], q.data[lo:hi, :, None])[..., 0] * inv_scale
        z = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
        e = np.exp(z)
        p = e / np.add.reduce(e, axis=1, keepdims=True)
        data[lo:hi] = np.matmul(p[:, None, :], v.data[idx][None])[:, 0]
        groups.append((lo, hi, idx, p))

    # the score gradients are computed once per backward: q's gradient hands
    # them to k's, which _result calls next
    handed: list[list[np.ndarray]] = []

    def score_grads(g: np.ndarray) -> list[np.ndarray]:
        """Gradient of each group's scaled scores, one [hi - lo, W] per group."""
        out = []
        for lo, hi, idx, p in groups:
            gp = np.matmul(v.data[idx][None], g[lo:hi, :, None])[..., 0]
            out.append(p * (gp - (gp * p).sum(axis=1, keepdims=True)))
        return out

    def grad_q(g: np.ndarray) -> np.ndarray:
        gss = score_grads(g)
        if k.requires_grad:
            handed.append(gss)
        qg = np.zeros_like(q.data)
        for (lo, hi, idx, _), gs in zip(groups, gss):
            qg[lo:hi] = np.matmul(gs[:, None, :], k.data[idx][None])[:, 0] * inv_scale
        return qg

    def by_key(parts: Iterable[np.ndarray]) -> np.ndarray:
        """[Lk, Lq], zero outside the mask; the mask's allowed pairs, in
        row-major order, take each group's [hi - lo, W] part row by row."""
        out = np.zeros((length, k.data.shape[0]))
        out[plan.mask] = np.concatenate([part.ravel() for part in parts])
        return out.T

    def grad_k(g: np.ndarray) -> np.ndarray:
        gss = handed.pop() if handed else score_grads(g)
        return _product(by_key(gss), q.data * inv_scale, True)

    def grad_v(g: np.ndarray) -> np.ndarray:
        return _product(by_key(p for *_, p in groups), g, True)

    return _result(data, (q, grad_q), (k, grad_k), (v, grad_v))


def append_rows(cached: np.ndarray, rows: Tensor) -> Tensor:
    """A constant of ``cached`` with the rows of ``rows`` appended.

    Only the appended rows are checked finite: ``cached`` is what earlier
    calls returned, already checked, so a growing cache is scanned once.
    """
    return _result(np.concatenate([cached, Tensor(rows.data).data]))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a [F] vector to every row of a [L, F] matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"add_rowvec shapes {x.shape} vs {b.shape}")
    return _result(x.data + b.data, (x, lambda g: g), (b, lambda g: g.sum(axis=0)))


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
    return _result(data, *((p, lambda g, lo=lo, hi=hi: g[:, lo:hi])
                           for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("slice_cols expects [L, F]")
    if not (0 <= start < stop <= x.data.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}) out of range")
    data = x.data[:, start:stop].copy()

    def grad_x(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return full

    return _result(data, (x, grad_x))


def abs_val(a: Tensor) -> Tensor:
    return _result(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def sum_all(a: Tensor) -> Tensor:
    return _result(np.asarray(a.data.sum()), (a, lambda g: np.full_like(a.data, float(g))))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return _result(np.asarray(a.data.sum() / n),
                   (a, lambda g: np.full_like(a.data, float(g) / n)))
