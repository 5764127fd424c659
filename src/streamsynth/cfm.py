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

Classifier-free guidance runs its conditional and unconditional passes as
one estimator call per Euler step, over both passes' rows stacked behind a
block-diagonal attention mask, planned once per integration.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .fileio import read_text, write_lines
from .nn import LayerNorm, Linear, Module, TransformerBlock
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


class CfmModel(Module):
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

    def token_conditions(self, tokens: Sequence[int], mask: np.ndarray) -> Tensor:
        """Per-frame token features: conv, upsample, masked attention, plus a
        direct copy of the upsampled embedding. ``mask`` is planned once for
        all alignment blocks."""
        mask = T.AttentionPlan(mask)
        emb = T.embedding_lookup(self.token_embed, tokens)
        conv = T.conv1d_right_padded(emb, self.conv_kernel, self.config.lookahead)
        feats = T.relu(self.token_proj(conv, row_stable=True))
        up_ids = np.repeat(np.arange(len(tokens)), UPSAMPLE)
        x = T.take_rows(feats, up_ids)
        for block in self.align_blocks:
            x = block(x, mask, row_stable=True)
        return T.concat_cols([x, T.take_rows(emb, up_ids)])

    def field(self, state: Tensor, t: float, cond: ConditionSet, mask,
              token_feats: Tensor | None = None, unconditional: bool = False,
              kv: list[list[np.ndarray]] | None = None, guided: bool = False) -> Tensor:
        """Estimated velocity for every frame of ``state`` at time ``t``.

        ``mask`` is a bool array or, planned once for all estimator blocks,
        its :class:`~streamsynth.tensor.AttentionPlan`. ``state`` holds the
        last rows of the mask.shape[1] frames the mask spans. Earlier frames
        enter only through ``kv``, one [K, V] per estimator block (see
        :meth:`TransformerBlock.__call__`), and then ``token_feats`` must
        cover just the rows of ``state``; without ``kv`` they default to the
        token conditions under the conditional pass's own mask, the first L
        rows and columns of ``mask``.

        With ``unconditional`` every condition (token features, speaker and
        reference) is zero. With ``guided`` the call runs both CFG passes at
        once: the rows of ``state`` conditional, then again unconditional,
        and returns the 2L rows in that order. ``mask`` then has those 2L
        rows over both passes' keys, and each pass's frames count once in
        mask.shape[1]. No gradient reaches ``state`` through unconditional
        rows, nor ``state`` or the conditions through a guided call.
        """
        length = state.data.shape[0]
        start = mask.shape[1] // (2 if guided else 1) - length
        t_rows = Tensor(np.tile(_time_embedding(t, self.config.time_dim), (length, 1)))
        if unconditional:
            inp = Tensor(self._blank_rows(state, t_rows))
        else:
            cond_feats = token_feats if token_feats is not None \
                else self.token_conditions(cond.tokens, np.asarray(mask)[:length, :length])
            if cond_feats.data.shape[0] != length:
                raise T.DimensionError("token conditions do not cover the state length")
            v_rows = Tensor(np.tile(cond.v, (length, 1)))
            ref = Tensor(_ref_rows(cond.masked_ref.frames, start, start + length,
                                   self.config.n_features))
            inp = T.concat_cols([state, t_rows, cond_feats, v_rows, ref])
        if guided:  # then the unconditional pass: the same rows, conditions zeroed
            inp = Tensor(np.concatenate([inp.data, self._blank_rows(state, t_rows)]))
        x = T.relu(self.est_in(inp, row_stable=True))
        for b, block in enumerate(self.est_blocks):
            x = block(x, mask, row_stable=True, kv=None if kv is None else kv[b])
        return self.est_out(self.est_norm(x), row_stable=True)

    def _blank_rows(self, state: Tensor, t_rows: Tensor) -> np.ndarray:
        """Estimator input rows of the unconditional pass: ``state`` and the
        time rows, then every condition column zero."""
        width = self.cond_width + self.config.speaker_dim + self.config.n_features
        return np.concatenate([state.data, t_rows.data, np.zeros((len(state.data), width))],
                              axis=1)


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
                  chunk: int = 30) -> Tensor:
    """One flow-matching regression loss with randomized mask and CFG dropout.

    Draws t ~ U[0,1] and x0 ~ N(0,I), masks out a final fraction in
    [0.7, 1.0] of the reference frames, picks one of the four masks
    uniformly and drops all conditions with probability p_uncond.
    """
    length = len(x1)
    t = float(rng.uniform())
    x0 = FeatureSeq(rng.standard_normal(x1.frames.shape))
    flags = _mask_fractions(rng, length)
    ref = x1.frames.copy()
    ref[flags] = 0.0
    cond = ConditionSet(cond_v, list(tokens), FeatureSeq(ref), flags)
    spec = MaskSpec(list(MaskKind)[rng.integers(len(MaskKind))], chunk=chunk)
    mask = T.AttentionPlan(build_mask(spec, length))
    uncond = bool(rng.uniform() < model.config.p_uncond)

    xt = Tensor(ot_path(x0, x1, t).frames)
    target = Tensor(target_field(x0, x1).frames)
    pred = model.field(xt, t, cond, mask, unconditional=uncond)
    return T.mean_all(T.abs_val(T.sub(target, pred)))


def cfg_field(model: CfmModel, state: Tensor, t: float, cond: ConditionSet,
              beta: float, mask: np.ndarray, token_feats: Tensor | None = None) -> Tensor:
    """Guided field (1+beta)*conditional - beta*unconditional.

    ``mask`` is one pass's mask, [L, L] for the L rows of ``state``. For
    ``beta > 0`` both passes are one :meth:`CfmModel.field` call over their
    rows stacked, under a mask block-diagonal over the two passes, so each
    pass attends only to its own rows; the estimator's row-stable kernels
    give every row the bytes of two separate calls. The streaming sampler
    makes the same call against cached keys (see :func:`_integrate`).
    """
    _check_beta(beta)
    return _guided_field(model, state, t, cond, beta, _estimator_plan(mask, beta), token_feats)


def _estimator_plan(mask: np.ndarray, beta: float,
                    keys: np.ndarray | None = None) -> T.AttentionPlan:
    """The attention plan of the estimator call that :func:`cfg_field` makes
    for one pass's [L, n] ``mask``: ``mask`` itself for ``beta == 0``, else
    the stacked block-diagonal mask. ``keys`` orders its key columns, the
    cached ones and then those of the L rows, as indices into [conditional
    frames 0:n; unconditional frames 0:n]; without it they come in that
    order."""
    if beta == 0.0:
        return T.AttentionPlan(mask)
    length, n = mask.shape
    stacked = np.zeros((2 * length, 2 * n), dtype=bool)
    stacked[:length, :n] = stacked[length:, n:] = mask
    return T.AttentionPlan(stacked if keys is None else stacked[:, keys])


def _guided_field(model: CfmModel, state: Tensor, t: float, cond: ConditionSet, beta: float,
                  plan: T.AttentionPlan, token_feats: Tensor | None = None,
                  kv: list | None = None) -> Tensor:
    """:func:`cfg_field` under the plan :func:`_estimator_plan` made."""
    if beta == 0.0:
        return model.field(state, t, cond, plan, token_feats=token_feats, kv=kv)
    length = state.data.shape[0]
    both = model.field(state, t, cond, plan, token_feats=token_feats, kv=kv, guided=True).data
    return Tensor(both[:length] * (1.0 + beta) - both[length:] * beta)


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"guidance strength must be finite and >= 0, not {beta}")


def _frame_noise(seed: int, start: int, stop: int, n_features: int) -> np.ndarray:
    """Per-frame gaussian noise keyed by (seed, frame index).

    A frame's noise never depends on how many frames exist, so streaming
    prefixes and the offline run integrate from identical starting points.
    """
    out = np.empty((stop - start, n_features))
    for i in range(start, stop):
        out[i - start] = np.random.default_rng((seed, i)).standard_normal(n_features)
    return out


def _integrate(model: CfmModel, cond: ConditionSet, edges: Sequence[int], nfe: int,
               beta: float, spec: MaskSpec, seed: int, cache: list | None = None) -> np.ndarray:
    """Euler-integrate frames start:stop of the UPSAMPLE x len(cond.tokens)
    frames, ``start`` and ``stop`` being the last two of ``edges``.

    No frame before ``stop`` may attend to a frame at or past it under
    ``spec``. Frames before ``start`` must be final, with their keys and
    values in ``cache``: one [K, V] per (step, estimator block) holding both
    CFG passes, to which this call appends those of frames start:stop. The
    keys came in packages, frames a:b for each pair of ``edges``, each
    package's conditional keys before its unconditional ones.

    The estimator's mask for the package, stacked over both passes and
    key-ordered, and its attention plan are built once, and every Euler
    step's estimator blocks reuse them.
    """
    start, stop = edges[-2:]
    mask = build_mask(spec, UPSAMPLE * len(cond.tokens))
    token_feats = Tensor(model.token_conditions(cond.tokens, mask).data[start:stop])
    keys = np.concatenate([np.r_[a:b, stop + a:stop + b] for a, b in zip(edges, edges[1:])])
    plan = _estimator_plan(mask[start:stop, :stop], beta, keys)
    x = _frame_noise(seed, start, stop, model.config.n_features)
    grid = [cosine_schedule(k / nfe) for k in range(nfe + 1)]
    for k in range(nfe):
        state = Tensor(x)
        vel = _guided_field(model, state, grid[k], cond, beta, plan, token_feats,
                            cache[k] if cache else None)
        x = x + (grid[k + 1] - grid[k]) * vel.data
    return x


def sample(model: CfmModel, cond: ConditionSet, length: int, nfe: int = 10,
           beta: float = 0.7, spec: MaskSpec | None = None, seed: int = 0) -> FeatureSeq:
    """Euler integration from gaussian noise along the cosine-scheduled grid."""
    if nfe < 1:
        raise ValueError("nfe must be >= 1")
    _check_beta(beta)
    if length != UPSAMPLE * len(cond.tokens):
        raise T.DimensionError(
            f"length {length} != {UPSAMPLE} x {len(cond.tokens)} tokens"
        )
    spec = spec if spec is not None else MaskSpec(MaskKind.NON_CAUSAL)
    if length == 0:  # no tokens, no frames: as stream_generate, which yields none
        return FeatureSeq(np.zeros((0, model.config.n_features)))
    return FeatureSeq(_integrate(model, cond, [0, length], nfe, beta, spec, seed))


def stream_generate(model: CfmModel, token_chunks: Iterable[Sequence[int]],
                    cond_v: np.ndarray, ref: FeatureSeq, nfe: int = 10,
                    beta: float = 0.7, spec: MaskSpec | None = None,
                    seed: int = 0) -> Iterator[FeatureSeq]:
    """Yield each package of newly determined frames as tokens arrive.

    Concatenated output equals a one-shot :func:`sample` over all tokens with
    the same mask, noise seed and conditions, exactly. Requires FULL_CAUSAL
    or CHUNK; any other mask raises :class:`StreamingMaskError`.

    A package ends on a multiple of ``spec.chunk`` frames or at the end of
    input, so a one-token feed makes no per-token FULL_CAUSAL packages.
    While input arrives, the package ends at the largest such multiple ``s``
    with ``s <= UPSAMPLE * (tokens received - P)``, P being the look-ahead.
    Under both masks a package's last frame has ``row_horizon(s - 1) ==
    s - 1``, and ``row_horizon(row_horizon(i)) == row_horizon(i)``, so no
    alignment block, estimator block or Euler step widens its window past
    frame ``s - 1``, that is token ``(s - 1) // UPSAMPLE``; the look-ahead
    convolution then adds P tokens.

    The call keeps one piece of state across packages: the package
    boundaries ``edges``, whose last is the emitted frontier ``done``, and,
    for every frame before ``done``, its keys and values at each (Euler
    step, estimator block), both CFG passes' in the order their packages
    came (see :func:`_integrate`). Each package integrates only the frames
    it completed, ``done:safe``, once, against that state, which only
    grows. The token conditions are recomputed over all received tokens.
    Each package plans its estimator mask once (see :func:`_integrate`).
    The state is nfe x n_estimator_blocks [K, V] pairs, each of
    [2 x done, hidden] float64 rows (one pass's rows under ``beta == 0``);
    at 192 frames and the default config (nfe 10, 3 blocks, hidden 24)
    that is 4.4 MB.
    """
    spec = spec if spec is not None else MaskSpec(MaskKind.CHUNK)
    if spec.kind not in (MaskKind.FULL_CAUSAL, MaskKind.CHUNK):
        raise StreamingMaskError(
            f"streaming synthesis needs the causal or chunk mask, not {spec.kind.value}")
    if nfe < 1:
        raise ValueError("nfe must be >= 1")
    _check_beta(beta)
    lookahead = model.config.lookahead
    received: list[int] = []
    edges = [0]  # package boundaries; the last is the emitted frontier
    empty = np.zeros((0, model.config.hidden))
    cache = [[[empty, empty] for _ in model.est_blocks] for _ in range(nfe)]
    for chunk in itertools.chain(token_chunks, [None]):  # None: the input has ended
        if chunk is None:
            safe = UPSAMPLE * len(received)
        else:  # the last mask-chunk boundary that the received tokens settle
            received.extend(int(t) for t in chunk)
            safe = max(edges[-1],
                       UPSAMPLE * (len(received) - lookahead) // spec.chunk * spec.chunk)
        if safe > edges[-1]:
            edges.append(safe)
            cond = ConditionSet(cond_v, received, ref)
            yield FeatureSeq(_integrate(model, cond, edges, nfe, beta, spec, seed, cache))


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
    write_lines(path, lines)


def read_feature_file(path) -> FeatureSeq:
    header, *lines = read_text(path, FeatureFileError).split("\n")
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
