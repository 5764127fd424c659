"""Chunk-aware causal conditional flow matching over toy acoustic frames.

The model regresses a time-dependent vector field onto the constant
displacement x1 - x0 along the linear path (1-t)x0 + t*x1, conditioned on
speech tokens, a speaker vector and a masked reference feature prefix.
Attention inside the estimator is restricted by one of four masks. Under
FULL_CAUSAL and CHUNK a window does not widen when the mask is applied
again, so no frame attends past the end of its own window at any block or
Euler step. The sampler can then run chunk by chunk and emit a frame as soon
as the tokens its window and the look-ahead convolution need have arrived,
reproducing the offline result exactly. CHUNK2 widens by one chunk at every
application; it trains and samples offline but does not stream.

Streaming keeps state between chunks: an emitted frame is final at every
Euler step, CFG pass and estimator block, so its keys and values there are
kept, and each chunk integrates only the frames it completed, once, against
them. Offline sampling is the same integrator run once over all frames.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .nn import LayerNorm, Linear, TransformerBlock
from .tensor import Tensor

__all__ = [
    "FeatureSeq",
    "FeatureFileError",
    "ConditionSet",
    "MaskKind",
    "MaskSpec",
    "build_mask",
    "ot_path",
    "target_field",
    "cosine_schedule",
    "CfmConfig",
    "CfmModel",
    "training_step",
    "cfg_field",
    "sample",
    "StreamingMaskError",
    "stream_generate",
    "energy_distance",
    "write_feature_file",
    "read_feature_file",
]

UPSAMPLE = 2  # frames per speech token


class FeatureFileError(ValueError):
    """A feature file's header or body is malformed."""


class StreamingMaskError(ValueError):
    """:func:`stream_generate` was given a mask it cannot stream."""


@dataclass
class FeatureSeq:
    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise T.DimensionError("FeatureSeq frames must be [L, F]")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("FeatureSeq frames must be finite")

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass
class ConditionSet:
    """Conditions for the estimator: speaker vector, tokens, masked reference."""

    v: np.ndarray
    tokens: list[int]
    masked_ref: FeatureSeq
    masked_flags: np.ndarray | None = None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.masked_flags is None:
            self.masked_flags = np.zeros(len(self.masked_ref), dtype=bool)
        if not np.all(self.masked_ref.frames[self.masked_flags] == 0.0):
            raise ValueError("masked reference frames must be exactly zero")


class MaskKind(Enum):
    NON_CAUSAL = "noncausal"
    FULL_CAUSAL = "causal"
    CHUNK = "chunk"
    CHUNK2 = "chunk2"


@dataclass(frozen=True)
class MaskSpec:
    kind: MaskKind
    chunk: int = 30  # frames per chunk; 15 tokens upsampled by two

    def __post_init__(self):
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1 frame")

    def row_horizon(self, i):
        """Largest frame index row i (an int or an array of rows) may attend,
        unclamped. :func:`build_mask` is this rule applied to every row."""
        if self.kind is MaskKind.NON_CAUSAL:
            raise ValueError("non-causal mask has no finite horizon")
        if self.kind is MaskKind.FULL_CAUSAL:
            return i
        step = 1 if self.kind is MaskKind.CHUNK else 2
        return (i // self.chunk + step) * self.chunk - 1


def build_mask(spec: MaskSpec, length: int) -> np.ndarray:
    if length < 1:
        raise ValueError("mask length must be >= 1")
    if spec.kind is MaskKind.NON_CAUSAL:
        return np.ones((length, length), dtype=bool)
    return np.arange(length)[None, :] <= spec.row_horizon(np.arange(length)[:, None])


def ot_path(x0: FeatureSeq, x1: FeatureSeq, t: float) -> FeatureSeq:
    if x0.frames.shape != x1.frames.shape:
        raise T.DimensionError(f"path endpoints {x0.frames.shape} vs {x1.frames.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path time {t} outside [0, 1]")
    return FeatureSeq((1.0 - t) * x0.frames + t * x1.frames)


def target_field(x0: FeatureSeq, x1: FeatureSeq) -> FeatureSeq:
    if x0.frames.shape != x1.frames.shape:
        raise T.DimensionError(f"field endpoints {x0.frames.shape} vs {x1.frames.shape}")
    return FeatureSeq(x1.frames - x0.frames)


def cosine_schedule(t: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"schedule time {t} outside [0, 1]")
    return 1.0 - math.cos(0.5 * t * math.pi)


def _time_embedding(t: float, dim: int = 8) -> np.ndarray:
    freqs = 2.0 ** np.arange(dim // 2)
    ang = math.pi * t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


@dataclass(frozen=True)
class CfmConfig:
    n_features: int = 8
    token_vocab: int = 6561
    token_embed: int = 16
    hidden: int = 24
    speaker_dim: int = 16
    lookahead: int = 3  # tokens of look-ahead in the pre-upsample conv
    n_align_blocks: int = 2
    n_estimator_blocks: int = 3
    time_dim: int = 8
    p_uncond: float = 0.2
    beta: float = 0.7
    nfe: int = 10


class CfmModel:
    """Look-ahead conv, 2x upsampler, token alignment, masked estimator."""

    def __init__(self, config: CfmConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        c = config
        self.token_embed = Tensor(rng.normal(0.0, 0.3, (c.token_vocab, c.token_embed)),
                                  requires_grad=True)
        kernel = np.zeros(c.lookahead + 1)
        kernel[0] = 1.0
        kernel += rng.normal(0.0, 0.1, c.lookahead + 1)
        self.conv_kernel = Tensor(kernel, requires_grad=True)
        self.token_proj = Linear(rng, c.token_embed, c.hidden, std=0.2)
        self.align_blocks = [TransformerBlock(rng, c.hidden, std=0.1)
                             for _ in range(c.n_align_blocks)]
        # aligned features plus the raw upsampled embedding: the estimator
        # sees the tokens both through the causal stack and directly
        self.cond_width = c.hidden + c.token_embed
        est_in = c.n_features + c.time_dim + self.cond_width + c.speaker_dim \
            + c.n_features
        self.est_in = Linear(rng, est_in, c.hidden, std=0.2)
        self.est_blocks = [TransformerBlock(rng, c.hidden, std=0.1)
                           for _ in range(c.n_estimator_blocks)]
        self.est_norm = LayerNorm(c.hidden)
        self.est_out = Linear(rng, c.hidden, c.n_features, std=0.1)

    def parameters(self) -> list[Tensor]:
        out = [self.token_embed, self.conv_kernel]
        out.extend(self.token_proj.parameters())
        for b in self.align_blocks:
            out.extend(b.parameters())
        out.extend(self.est_in.parameters())
        for b in self.est_blocks:
            out.extend(b.parameters())
        out.extend(self.est_norm.parameters())
        out.extend(self.est_out.parameters())
        return out

    def token_conditions(self, tokens: Sequence[int], mask: np.ndarray) -> Tensor:
        """Per-frame token features: conv, upsample, masked attention, plus a
        direct copy of the upsampled embedding."""
        emb = T.embedding_lookup(self.token_embed, tokens)
        conv = T.conv1d_right_padded(emb, self.conv_kernel, self.config.lookahead)
        feats = T.relu(self.token_proj(conv, row_stable=True))
        up_ids = np.repeat(np.arange(len(tokens)), UPSAMPLE)
        x = T.take_rows(feats, up_ids)
        for block in self.align_blocks:
            x = block(x, mask, row_stable=True)
        return T.concat_cols([x, T.take_rows(emb, up_ids)])

    def field(self, state: Tensor, t: float, cond: ConditionSet, mask: np.ndarray,
              token_feats: Tensor | None = None, unconditional: bool = False,
              kv: list[list[np.ndarray]] | None = None) -> Tensor:
        """Estimated velocity for every frame of ``state`` at time ``t``.

        ``state`` holds the last rows of the mask.shape[1] frames the mask
        spans. Earlier frames enter only through ``kv``, one [K, V] per
        estimator block (see :meth:`TransformerBlock.__call__`), and then
        ``token_feats`` must cover just the rows of ``state``.
        """
        length = state.data.shape[0]
        start = mask.shape[1] - length
        if unconditional:
            cond_feats = Tensor(np.zeros((length, self.cond_width)))
            v_rows = Tensor(np.zeros((length, self.config.speaker_dim)))
            ref = Tensor(np.zeros((length, self.config.n_features)))
        else:
            cond_feats = token_feats if token_feats is not None \
                else self.token_conditions(cond.tokens, mask)
            if cond_feats.data.shape[0] != length:
                raise T.DimensionError("token conditions do not cover the state length")
            v_rows = Tensor(np.tile(cond.v, (length, 1)))
            ref = Tensor(_ref_rows(cond.masked_ref.frames, start, start + length,
                                   self.config.n_features))
        t_rows = Tensor(np.tile(_time_embedding(t, self.config.time_dim), (length, 1)))
        inp = T.concat_cols([state, t_rows, cond_feats, v_rows, ref])
        x = T.relu(self.est_in(inp, row_stable=True))
        for b, block in enumerate(self.est_blocks):
            x = block(x, mask, row_stable=True, kv=None if kv is None else kv[b])
        return self.est_out(self.est_norm(x), row_stable=True)


def _ref_rows(ref: np.ndarray, start: int, stop: int, n_features: int) -> np.ndarray:
    """Reference rows start:stop, padded with zeros past the reference's end."""
    out = np.zeros((stop - start, n_features))
    have = ref[start:stop]
    out[: len(have)] = have
    return out


def _mask_fractions(rng: np.random.Generator, length: int) -> np.ndarray:
    frac = rng.uniform(0.7, 1.0)
    n_masked = int(round(frac * length))
    flags = np.zeros(length, dtype=bool)
    if n_masked:
        flags[length - n_masked :] = True
    return flags


def training_step(model: CfmModel, x1: FeatureSeq, cond_v: np.ndarray,
                  tokens: Sequence[int], rng: np.random.Generator,
                  chunk: int = 30, oracle_field: np.ndarray | None = None) -> Tensor:
    """One flow-matching regression loss with randomized mask and CFG dropout.

    Draws t ~ U[0,1] and x0 ~ N(0,I), masks out a final fraction in
    [0.7, 1.0] of the reference frames, picks one of the four masks
    uniformly and drops all conditions with probability p_uncond. Pass
    ``oracle_field`` to score a hard-wired estimator instead of the model.
    """
    length = len(x1)
    t = float(rng.uniform())
    x0 = rng.standard_normal(x1.frames.shape)
    flags = _mask_fractions(rng, length)
    ref = x1.frames.copy()
    ref[flags] = 0.0
    cond = ConditionSet(cond_v, list(tokens), FeatureSeq(ref), flags)
    spec = MaskSpec(list(MaskKind)[rng.integers(len(MaskKind))], chunk=chunk)
    mask = build_mask(spec, length)
    uncond = bool(rng.uniform() < model.config.p_uncond)

    xt = Tensor((1.0 - t) * x0 + t * x1.frames)
    target = Tensor(x1.frames - x0)
    if oracle_field is not None:
        pred = Tensor(oracle_field)
    else:
        pred = model.field(xt, t, cond, mask, unconditional=uncond)
    return T.mean_all(T.abs_val(T.sub(target, pred)))


def cfg_field(model: CfmModel, state: Tensor, t: float, cond: ConditionSet,
              beta: float, mask: np.ndarray, token_feats: Tensor | None = None,
              kv: Sequence[list | None] = (None, None)) -> Tensor:
    """Guided field (1+beta)*conditional - beta*unconditional.

    ``kv`` pairs the conditional and unconditional :meth:`CfmModel.field` caches.
    """
    if beta < 0.0:
        raise ValueError("guidance strength must be >= 0")
    conditional = model.field(state, t, cond, mask, token_feats=token_feats, kv=kv[0])
    if beta == 0.0:
        return conditional
    unconditional = model.field(state, t, cond, mask, unconditional=True, kv=kv[1])
    return T.sub(T.scale(conditional, 1.0 + beta), T.scale(unconditional, beta))


def _frame_noise(seed: int, start: int, stop: int, n_features: int) -> np.ndarray:
    """Per-frame gaussian noise keyed by (seed, frame index).

    A frame's noise never depends on how many frames exist, so streaming
    prefixes and the offline run integrate from identical starting points.
    """
    out = np.empty((stop - start, n_features))
    for i in range(start, stop):
        out[i - start] = np.random.default_rng((seed, i)).standard_normal(n_features)
    return out


def _integrate(model: CfmModel, cond: ConditionSet, start: int, stop: int, nfe: int,
               beta: float, spec: MaskSpec, seed: int, cache: list | None = None) -> np.ndarray:
    """Euler-integrate frames start:stop of the UPSAMPLE x len(cond.tokens) frames.

    No frame before ``stop`` may attend to a frame at or past it under
    ``spec``. Frames before ``start`` must be final, with their keys and
    values in ``cache``: one [K, V] per (step, CFG pass, estimator block),
    to which this call appends those of frames start:stop.
    """
    mask = build_mask(spec, UPSAMPLE * len(cond.tokens))
    token_feats = Tensor(model.token_conditions(cond.tokens, mask).data[start:stop])
    rows = mask[start:stop, :stop]
    x = _frame_noise(seed, start, stop, model.config.n_features)
    grid = [cosine_schedule(k / nfe) for k in range(nfe + 1)]
    for k in range(nfe):
        state = Tensor(x)
        vel = cfg_field(model, state, grid[k], cond, beta, rows, token_feats=token_feats,
                        kv=cache[2 * k : 2 * k + 2] if cache else (None, None))
        x = x + (grid[k + 1] - grid[k]) * vel.data
    return x


def sample(model: CfmModel, cond: ConditionSet, length: int, nfe: int = 10,
           beta: float = 0.7, spec: MaskSpec | None = None, seed: int = 0) -> FeatureSeq:
    """Euler integration from gaussian noise along the cosine-scheduled grid."""
    if nfe < 1:
        raise ValueError("nfe must be >= 1")
    if length != UPSAMPLE * len(cond.tokens):
        raise T.DimensionError(
            f"length {length} != {UPSAMPLE} x {len(cond.tokens)} tokens"
        )
    spec = spec if spec is not None else MaskSpec(MaskKind.NON_CAUSAL)
    return FeatureSeq(_integrate(model, cond, 0, length, nfe, beta, spec, seed))


def _token_horizon(model: CfmModel, frame: int, spec: MaskSpec) -> int:
    """Last token index frame ``frame`` can depend on, over the whole sampler.

    Under FULL_CAUSAL and CHUNK ``row_horizon(row_horizon(i)) ==
    row_horizon(i)``, so the window does not widen across alignment blocks,
    estimator blocks or Euler steps; the look-ahead convolution then adds P
    tokens.
    """
    return spec.row_horizon(frame) // UPSAMPLE + model.config.lookahead


def stream_generate(model: CfmModel, token_chunks: Iterable[Sequence[int]],
                    cond_v: np.ndarray, ref: FeatureSeq, nfe: int = 10,
                    beta: float = 0.7, spec: MaskSpec | None = None,
                    seed: int = 0) -> Iterator[FeatureSeq]:
    """Yield newly determined frames per arriving token chunk.

    Concatenated output equals a one-shot :func:`sample` over all tokens with
    the same mask, noise seed and conditions, exactly. Requires FULL_CAUSAL
    or CHUNK; any other mask raises :class:`StreamingMaskError`.

    The call keeps one piece of state across chunks: the emitted frontier
    ``done`` and, for every frame before it, its keys and values at each
    (Euler step, CFG pass, estimator block). Each chunk integrates only the
    frames it completed, ``done:safe``, once, against that state, which
    only grows. The token conditions are recomputed over all received
    tokens. The state is nfe x 2 x n_estimator_blocks [K, V] pairs of
    [done, hidden] float64 arrays; at 192 frames and the default config
    (nfe 10, 3 blocks, hidden 24) that is 4.4 MB.
    """
    spec = spec if spec is not None else MaskSpec(MaskKind.CHUNK)
    if spec.kind not in (MaskKind.FULL_CAUSAL, MaskKind.CHUNK):
        raise StreamingMaskError(
            f"streaming synthesis needs the causal or chunk mask, not {spec.kind.value}")
    if nfe < 1:
        raise ValueError("nfe must be >= 1")
    received: list[int] = []
    done = 0
    empty = np.zeros((0, model.config.hidden))
    cache = [[[empty, empty] for _ in model.est_blocks] for _ in range(2 * nfe)]
    ref_flags = np.zeros(len(ref), dtype=bool)
    for chunk in itertools.chain(token_chunks, [None]):  # None: the input has ended
        if chunk is not None:
            received.extend(int(t) for t in chunk)
        length = UPSAMPLE * len(received)
        safe = done if chunk is not None else length
        while safe < length and _token_horizon(model, safe, spec) < len(received):
            safe += 1
        if safe > done:
            cond = ConditionSet(cond_v, received, ref, ref_flags)
            yield FeatureSeq(_integrate(model, cond, done, safe, nfe, beta, spec, seed,
                                        cache))
            done = safe


def energy_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sample energy distance between point clouds [n, d] and [m, d]."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    def mean_dist(a, b):
        d = a[:, None, :] - b[None, :, :]
        return float(np.sqrt((d * d).sum(axis=2)).mean())

    e2 = 2.0 * mean_dist(xs, ys) - mean_dist(xs, xs) - mean_dist(ys, ys)
    return math.sqrt(max(e2, 0.0))


def write_feature_file(path, seq: FeatureSeq) -> None:
    lines = [f"SFEA {seq.frames.shape[0]} {seq.frames.shape[1]}"]
    for row in seq.frames:
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_feature_file(path) -> FeatureSeq:
    try:
        header, *lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise FeatureFileError(f"{path}: not UTF-8 text") from None
    header = header.split()
    if len(header) != 3 or header[0] != "SFEA":
        raise FeatureFileError(f"{path}: missing SFEA header")
    if not (header[1].isdecimal() and header[2].isdecimal()):
        raise FeatureFileError(f"{path}: SFEA header counts must be integers >= 0")
    length, nf = int(header[1]), int(header[2])
    rows = [line.split() for line in lines[:length]]
    if len(rows) < length or any(len(row) != nf for row in rows) \
            or "".join(lines[length:]).strip():
        raise FeatureFileError(f"{path}: body does not match header")
    try:
        arr = np.zeros((length, nf))
    except ValueError:  # a count past numpy's limits; only possible with no rows
        raise FeatureFileError(f"{path}: SFEA header counts too large") from None
    for i, row in enumerate(rows):
        try:
            arr[i] = [float(x) for x in row]
        except ValueError:
            raise FeatureFileError(f"{path}:{i + 2}: non-numeric value") from None
        if not np.all(np.isfinite(arr[i])):
            raise FeatureFileError(f"{path}:{i + 2}: non-finite value")
    return FeatureSeq(arr)
