"""Finite scalar quantization: bounded rounding, index codec, utilization.

A codec projects hidden vectors into a low-rank space of D dimensions,
rounds each coordinate into the integer grid [-K, K], and projects back up.
The digit vector maps to a single integer token through a (2K+1)-ary code
with digits offset by +K, so tokens live in [0, (2K+1)^D - 1] and encoding
and decoding are mutually inverse.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .nn import Linear
from .tensor import Tensor

__all__ = [
    "FsqConfig",
    "FsqCodec",
    "RangeError",
    "TokenFileError",
    "bounded_round",
    "encode_index",
    "decode_index",
    "utilization",
    "write_token_file",
    "read_token_file",
]

# one speech token covers 40 ms of signal in the modeled pipeline
TOKEN_RATE_HZ = 25


class TokenFileError(ValueError):
    """A token file's header is missing or malformed."""


class RangeError(ValueError):
    """A digit or token index lies outside the codebook."""


@dataclass(frozen=True)
class FsqConfig:
    d: int = 8
    k: int = 1

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError("FsqConfig needs d >= 1 and k >= 1")

    @property
    def base(self) -> int:
        return 2 * self.k + 1

    @property
    def codebook_size(self) -> int:
        return self.base**self.d


def bounded_round(h: np.ndarray, k: int) -> np.ndarray:
    """Clamp to [-k, k], then round to nearest integer, ties away from zero."""
    arr = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bounded_round requires finite input")
    clamped = np.clip(arr, -k, k)
    rounded = np.where(clamped >= 0.0, np.floor(clamped + 0.5), np.ceil(clamped - 0.5))
    return rounded.astype(np.int64)


def ste_bounded_round(x: Tensor, k: int) -> Tensor:
    """Taped bounded round whose backward pass is the identity."""
    data = bounded_round(x.data, k).astype(np.float64)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)

    return T._result(data, (x,), bwd)


def encode_index(digits: Sequence[int], k: int) -> int:
    mu = 0
    base = 2 * k + 1
    for j, d in enumerate(digits):
        d = int(d)
        if d < -k or d > k:
            raise RangeError(f"digit {d} at position {j} outside [-{k}, {k}]")
        mu += (d + k) * base**j
    return mu


def decode_index(mu: int, d: int, k: int) -> np.ndarray:
    base = 2 * k + 1
    if mu < 0 or mu >= base**d:
        raise RangeError(f"token {mu} outside [0, {base ** d - 1}]")
    digits = np.empty(d, dtype=np.int64)
    for j in range(d):
        digits[j] = (mu // base**j) % base - k
    return digits


def digit_table(config: FsqConfig) -> np.ndarray:
    """[codebook_size, D] array mapping every token to its digit vector."""
    out = np.empty((config.codebook_size, config.d), dtype=np.float64)
    for mu in range(config.codebook_size):
        out[mu] = decode_index(mu, config.d, config.k)
    return out


class FsqCodec:
    """Projection pair around the bounded-round bottleneck.

    The hidden width of the projection source space and the use of biases
    are configuration, not fixed; defaults keep both biases on.
    """

    def __init__(self, config: FsqConfig, hidden: int = 16,
                 rng: np.random.Generator | None = None,
                 bias_down: bool = True, bias_up: bool = True):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.hidden = hidden
        self.proj_down = Linear(rng, hidden, config.d, std=0.4, bias=bias_down)
        self.proj_up = Linear(rng, config.d, hidden, std=0.4, bias=bias_up)

    def parameters(self):
        return self.proj_down.parameters() + self.proj_up.parameters()

    def quantize(self, h: Tensor, straight_through: bool = True):
        """Returns (digit matrix [T, D] as int array, reconstructed Tensor [T, hidden]).

        With straight_through=False the rounding is bypassed entirely; that
        twin path is what the straight-through gradients must match.
        """
        low = self.proj_down(h)
        if straight_through:
            quant = ste_bounded_round(low, self.config.k)
        else:
            quant = low
        up = self.proj_up(quant)
        digits = bounded_round(low.data, self.config.k)
        return digits, up

    def encode_tokens(self, h: Tensor) -> list[int]:
        digits, _ = self.quantize(h)
        return [encode_index(row, self.config.k) for row in digits]


def utilization(tokens: Iterable[int], config: FsqConfig):
    """Fraction of the codebook observed plus a per-token histogram."""
    hist = Counter()
    for mu in tokens:
        mu = int(mu)
        if mu < 0 or mu >= config.codebook_size:
            raise RangeError(f"token {mu} outside codebook of {config.codebook_size}")
        hist[mu] += 1
    fraction = len(hist) / config.codebook_size
    return fraction, dict(hist)


class VqBaseline:
    """Nearest-neighbor vector quantizer, kept only as a utilization baseline.

    A randomly placed codebook leaves distant entries dead, which is the
    behavior the bounded-round codec is measured against.
    """

    def __init__(self, codebook_size: int, dim: int,
                 rng: np.random.Generator | None = None, spread: float = 3.0):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.codebook = rng.normal(0.0, spread, size=(codebook_size, dim))

    def assign(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        d = ((h[:, None, :] - self.codebook[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)

    def utilization(self, h: np.ndarray):
        hist = Counter(int(i) for i in self.assign(h))
        return len(hist) / self.codebook.shape[0], dict(hist)


def write_token_file(path, tokens: Sequence[int], config: FsqConfig) -> None:
    buf = io.StringIO()
    buf.write(f"#fsq D={config.d} K={config.k}\n")
    for mu in tokens:
        mu = int(mu)
        if mu < 0 or mu >= config.codebook_size:
            raise RangeError(f"token {mu} outside codebook")
        buf.write(f"{mu}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(buf.getvalue())


def read_token_file(path) -> tuple[list[int], FsqConfig]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("#fsq "):
            raise TokenFileError(f"{path}: missing #fsq header")
        fields = dict(part.partition("=")[::2] for part in header[len("#fsq "):].split())
        if not (fields.get("D", "").isdecimal() and fields.get("K", "").isdecimal()):
            raise TokenFileError(f"{path}: #fsq header needs D=<int> and K=<int>")
        config = FsqConfig(d=int(fields["D"]), k=int(fields["K"]))
        tokens = [int(line) for line in f if line.strip()]
    for mu in tokens:
        if mu < 0 or mu >= config.codebook_size:
            raise RangeError(f"{path}: token {mu} outside codebook")
    return tokens, config
