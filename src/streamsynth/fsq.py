"""Finite scalar quantization: bounded rounding, index codec, utilization.

A codec projects hidden vectors into a low-rank space of D dimensions,
rounds each coordinate into the integer grid [-K, K], and projects back up.
The digit vector maps to a single integer token through a (2K+1)-ary code
with digits offset by +K, so tokens live in [0, (2K+1)^D - 1] and encoding
and decoding are mutually inverse. ``train_toy_tokenizer`` trains a codec as
the bottleneck of a small supervised tokenizer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .config import split_seed
from .fileio import read_text, write_lines
from .nn import Adam, Linear
from .tensor import Tensor

__all__ = [
    "FsqConfig",
    "FsqCodec",
    "RangeError",
    "TokenFileError",
    "bounded_round",
    "encode_index",
    "decode_index",
    "decode_indices",
    "utilization",
    "train_toy_tokenizer",
    "write_token_file",
    "read_token_file",
]

class TokenFileError(ValueError):
    """A token file's header or one of its token lines is malformed."""


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
    return T._result(bounded_round(x.data, k).astype(np.float64), (x, lambda g: g))


def encode_index(digits: Sequence[int], k: int) -> int:
    mu = 0
    base = 2 * k + 1
    for j, d in enumerate(digits):
        d = int(d)
        if d < -k or d > k:
            raise RangeError(f"digit {d} at position {j} outside [-{k}, {k}]")
        mu += (d + k) * base**j
    return mu


def decode_indices(tokens: Sequence[int], d: int, k: int) -> np.ndarray:
    """[n, d] int64 digit rows in [-k, k] of the n ``tokens``; the inverse of
    :func:`encode_index`."""
    base = 2 * k + 1
    mu = np.asarray(tokens).reshape(-1)
    bad = (mu < 0) | (mu >= base**d)
    if bad.any():
        raise RangeError(f"token {mu[bad.argmax()]} outside [0, {base ** d - 1}]")
    return mu.astype(np.int64)[:, None] // base ** np.arange(d) % base - k


def decode_index(mu: int, d: int, k: int) -> np.ndarray:
    return decode_indices([mu], d, k)[0]


def digit_table(config: FsqConfig) -> np.ndarray:
    """[codebook_size, D] array mapping every token to its digit vector."""
    return decode_indices(np.arange(config.codebook_size), config.d, config.k).astype(np.float64)


class FsqCodec:
    """Projection pair, both with biases, around the bounded-round bottleneck.

    The hidden width of the projection source space is configuration.
    """

    def __init__(self, config: FsqConfig, hidden: int = 16,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.hidden = hidden
        self.proj_down = Linear(rng, hidden, config.d, std=0.4)
        self.proj_up = Linear(rng, config.d, hidden, std=0.4)

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


def train_toy_tokenizer(config: FsqConfig, hidden: int, labels: Sequence[Sequence[int]],
                        n_labels: int, steps: int, seed: int) -> tuple[FsqCodec, float, float]:
    """Train a codec as the bottleneck of a toy supervised tokenizer.

    Every label in [0, n_labels) has a fixed gaussian feature vector. Each
    step picks one label sequence, and an encoder, the codec and a label
    classifier learn to recover the labels from noisy copies of their
    vectors. Returns the codec with the classifier's accuracy and the
    codebook utilization over the last 50 steps.
    """
    init = np.random.default_rng(split_seed(seed, "fsq-init"))
    data = np.random.default_rng(split_seed(seed, "fsq-data"))
    rng = np.random.default_rng(split_seed(seed, "fsq-train"))
    codec = FsqCodec(config, hidden=hidden, rng=init)
    enc1 = Linear(init, hidden, hidden, std=0.3)
    enc2 = Linear(init, hidden, hidden, std=0.3)
    head = Linear(init, hidden, n_labels, std=0.3)
    params = codec.parameters() + enc1.parameters() + enc2.parameters() + head.parameters()
    base = data.normal(0.0, 1.0, (n_labels, hidden))
    opt = Adam(params, lr=5e-3)
    hits = total = 0
    tokens_seen: list[int] = []
    digits = logits = None
    for step in range(steps):
        seq = list(labels[int(rng.integers(len(labels)))])
        x = Tensor(base[seq] + 0.1 * rng.standard_normal((len(seq), hidden)))

        def loss() -> Tensor:
            nonlocal digits, logits
            digits, up = codec.quantize(T.relu(enc2(T.relu(enc1(x)))))
            logits = head(T.relu(up))
            return T.cross_entropy_ignore(logits, seq, [False] * len(seq))

        opt.minimize(loss)
        if step >= steps - 50:
            hits += int((np.argmax(logits.data, axis=1) == np.array(seq)).sum())
            total += len(seq)
            tokens_seen.extend(encode_index(row, config.k) for row in digits)
    return codec, hits / max(total, 1), utilization(tokens_seen, config)[0]


class VqBaseline:
    """Nearest-neighbor vector quantizer, kept only as a utilization baseline.

    A randomly placed codebook (gaussian, std 3) leaves distant entries dead, which is the
    behavior the bounded-round codec is measured against.
    """

    def __init__(self, codebook_size: int, dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.codebook = rng.normal(0.0, 3.0, size=(codebook_size, dim))

    def assign(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        d = ((h[:, None, :] - self.codebook[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)

    def utilization(self, h: np.ndarray):
        hist = Counter(int(i) for i in self.assign(h))
        return len(hist) / self.codebook.shape[0], dict(hist)


def write_token_file(path, tokens: Sequence[int], config: FsqConfig) -> None:
    lines = [f"#fsq D={config.d} K={config.k}"]
    for mu in tokens:
        mu = int(mu)
        if mu < 0 or mu >= config.codebook_size:
            raise RangeError(f"token {mu} outside codebook")
        lines.append(str(mu))
    write_lines(path, lines)


def read_token_file(path) -> tuple[list[int], FsqConfig]:
    lines = read_text(path, TokenFileError).split("\n")
    header = lines[0].strip()
    if not header.startswith("#fsq "):
        raise TokenFileError(f"{path}: missing #fsq header")
    fields = dict(part.partition("=")[::2] for part in header[len("#fsq "):].split())
    if not (fields.get("D", "").isdecimal() and fields.get("K", "").isdecimal()):
        raise TokenFileError(f"{path}: #fsq header needs D=<int> and K=<int>")
    try:
        config = FsqConfig(d=int(fields["D"]), k=int(fields["K"]))
    except ValueError as exc:
        raise TokenFileError(f"{path}: {exc}") from None
    tokens = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            mu = int(line)
        except ValueError:
            raise TokenFileError(
                f"{path}:{lineno}: token {line.strip()!r} is not an integer") from None
        if mu < 0 or mu >= config.codebook_size:
            raise RangeError(f"{path}:{lineno}: token {mu} outside codebook")
        tokens.append(mu)
    return tokens, config
