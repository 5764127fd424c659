"""Small trainable layers and an Adam optimizer on top of the tensor core."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "TransformerBlock",
    "Adam",
    "param_fingerprint",
]


class Module:
    """A model part whose parameters are its :class:`Tensor` attributes.

    ``parameters()`` lists them in attribute-assignment order, each
    sub-module (or list of sub-modules) expanding in place into its own.
    That order is the checkpoint layout, the optimizer state and the
    fingerprint order, so a constant that no gradient trains is kept as an
    ndarray, not a Tensor.
    """

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Tensor):
                    out.append(item)
                elif isinstance(item, Module):
                    out.extend(item.parameters())
        return out

    def freeze(self) -> None:
        """Stop training every parameter and drop its gradient."""
        for p in self.parameters():
            p.requires_grad = False
            p.zero_grad()


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, std: float = 0.02, zero: bool = False):
        w = np.zeros((d_in, d_out)) if zero else rng.normal(0.0, std, size=(d_in, d_out))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor, row_stable: bool = False) -> Tensor:
        return T.matmul(x, self.w, row_stable=row_stable, bias=self.b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class TransformerBlock(Module):
    """Pre-norm single-head attention block with a silu MLP of width 4 * dim."""

    def __init__(self, rng, dim: int, std: float = 0.02):
        self.ln1 = LayerNorm(dim)
        self.wq = Linear(rng, dim, dim, std)
        self.wk = Linear(rng, dim, dim, std)
        self.wv = Linear(rng, dim, dim, std)
        self.wo = Linear(rng, dim, dim, std)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(rng, dim, 4 * dim, std)
        self.fc2 = Linear(rng, 4 * dim, dim, std)

    def __call__(self, x: Tensor, mask, row_stable: bool = False,
                 kv: list[np.ndarray] | None = None) -> Tensor:
        """Apply the block to the rows of ``x``.

        ``mask`` is a bool array or its :class:`~streamsynth.tensor.AttentionPlan`.
        The queries, keys and values are three layer calls, in that order,
        so each is a C-contiguous array of its own.

        ``kv`` is [K, V]: the key and value data of the rows that precede
        ``x``, so ``mask`` is [len(x), len(K) + len(x)]. The call appends the
        keys and values of ``x`` to it, checking only those rows finite.
        With ``kv`` no gradient reaches the keys and values, so training
        passes none.
        """
        h = self.ln1(x)
        q, k, v = self.wq(h, row_stable), self.wk(h, row_stable), self.wv(h, row_stable)
        if kv is not None:
            k, v = T.append_rows(kv[0], k), T.append_rows(kv[1], v)
            kv[0], kv[1] = k.data, v.data
        att = T.masked_attention(q, k, v, mask)
        x = T.add(x, self.wo(att, row_stable))
        h = self.ln2(x)
        h = T.silu(self.fc1(h, row_stable))
        x = T.add(x, self.fc2(h, row_stable))
        return x


class Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Update every parameter that has a gradient, in place.

        The operations and their order are those of
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)``, with only products
        commuted, which is exact. Their intermediates go into two scratch
        buffers that the step allocates once, at the size of the largest
        parameter, and shares among all of them.
        """
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            num = scratch[0, :m.size].reshape(m.shape)
            den = scratch[1, :m.size].reshape(m.shape)
            m *= self.b1
            m += np.multiply(g, 1.0 - self.b1, out=num)
            v *= self.b2
            np.multiply(g, g, out=den)
            den *= 1.0 - self.b2
            v += den
            np.divide(v, b2t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, b1t, out=num)
            num *= self.lr
            num /= den
            p.data -= num

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def minimize(self, loss_fn: Callable[[], Tensor]) -> Tensor:
        """One optimizer step: record ``loss_fn()`` on a fresh tape,
        backpropagate it, update the parameters and return the loss."""
        self.zero_grad()
        with T.Tape() as tape:
            loss = loss_fn()
        tape.backward(loss)
        self.step()
        return loss


def param_fingerprint(params: Sequence[Tensor]) -> bytes:
    """Stable digest over parameter bytes; used by frozen-model contracts."""
    import hashlib

    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.digest()
