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
block-diagonal attention mask. The mask's plan and the condition columns of
the estimator input are built once per integration; each Euler step writes
only the state and time columns.

Streaming keeps state between chunks: an emitted frame is final at every
alignment block, Euler step, CFG pass and estimator block, so its keys and
values there are kept. Each chunk computes the token conditions of the
frames it completed and integrates them, once, against those keys; its work
follows its own frames, not all frames so far. Offline sampling and training
are the same code run once over all frames with nothing cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def build_mask(spec: MaskSpec, length: int, start: int = 0) -> np.ndarray:
    """Rows ``start:length`` of the [length, length] attention mask: a row's
    window does not depend on how many rows follow it."""
    if length < 1:
        raise ValueError("mask length must be >= 1")
    if not 0 <= start < length:
        raise ValueError(f"mask rows {start}:{length} are empty")
    if spec.kind is MaskKind.NON_CAUSAL:
        return np.ones((length - start, length), dtype=bool)
    return np.arange(length)[None, :] <= spec.row_horizon(np.arange(start, length)[:, None])


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
        est_in = c.n_features + c.time_dim + c.hidden + c.token_embed + c.speaker_dim \
            + c.n_features
        self.est_in = Linear(rng, est_in, c.hidden, std=0.2)
        self.est_blocks = [TransformerBlock(rng, c.hidden, std=0.1)
                           for _ in range(c.n_estimator_blocks)]
        self.est_norm = LayerNorm(c.hidden)
        self.est_out = Linear(rng, c.hidden, c.n_features, std=0.1)

    def token_conditions(self, tokens: Sequence[int], mask,
                         kv: list[list[np.ndarray]] | None = None) -> Tensor:
        """Token features of frames start:stop: conv, upsample, masked
        attention, plus a direct copy of the upsampled embedding.

        ``mask`` is those frames' rows of the attention mask, [stop - start,
        stop], planned once here for all alignment blocks. The look-ahead
        conv and ``token_proj`` run only over the tokens the frames need,
        ``start // UPSAMPLE`` up to ``ceil(stop / UPSAMPLE) + P``, reading
        zeros past the end of ``tokens``. Frames before ``start`` enter only
        through ``kv``, one [K, V] per alignment block (see
        :meth:`TransformerBlock.__call__`), which the call extends by frames
        start:stop; without it ``start`` is 0. Each row has the bytes of that
        row of the one-shot call over all frames.
        """
        plan = T.AttentionPlan(mask)
        stop = plan.shape[1]
        start = stop - plan.shape[0]
        first = start // UPSAMPLE
        emb = T.embedding_lookup(
            self.token_embed, tokens[first : -(-stop // UPSAMPLE) + self.config.lookahead])
        conv = T.conv1d_right_padded(emb, self.conv_kernel, self.config.lookahead)
        feats = T.relu(self.token_proj(conv, row_stable=True))
        up_ids = np.arange(start, stop) // UPSAMPLE - first
        x = T.take_rows(feats, up_ids)
        for b, block in enumerate(self.align_blocks):
            x = block(x, plan, row_stable=True, kv=None if kv is None else kv[b])
        return T.concat_cols([x, T.take_rows(emb, up_ids)])

    def field(self, state: Tensor, t: float, cond: ConditionSet, mask,
              unconditional: bool = False, kv: list[list[np.ndarray]] | None = None,
              columns: np.ndarray | None = None) -> Tensor:
        """Estimated velocity for every frame of ``state`` at time ``t``.

        ``mask`` is a bool array or, planned once for all estimator blocks,
        its :class:`~streamsynth.tensor.AttentionPlan`. ``state`` holds the
        last rows of the mask.shape[1] frames the mask spans. Earlier frames
        enter only through ``kv``, one [K, V] per estimator block (see
        :meth:`TransformerBlock.__call__`).

        ``columns`` is the estimator input that :func:`_input_columns` made
        for the rows of ``state``, its condition columns filled; the call
        writes the state and time columns into it. Its rows are those of
        ``state`` conditional and, for a call of both CFG passes, then the
        same rows unconditional; the call returns its rows in that order.
        ``mask`` then has those 2L rows over both passes' keys, and each
        pass's frames count once in mask.shape[1]. No gradient reaches
        ``state`` or the conditions through ``columns``.

        Without ``columns`` the call assembles the input of one pass itself,
        as training does, from all of ``mask``'s frames: the token conditions
        under ``mask``, the speaker and the reference, taped so that a
        gradient reaches them and ``state``. With ``unconditional`` every
        condition is zero and no gradient reaches ``state``.
        """
        nf, td = self.config.n_features, self.config.time_dim
        length = state.data.shape[0]
        if columns is None and not unconditional:
            if UPSAMPLE * len(cond.tokens) != length:
                raise T.DimensionError("token conditions do not cover the state length")
            t_rows = Tensor(np.tile(_time_embedding(t, td), (length, 1)))
            feats = self.token_conditions(cond.tokens, mask)
            inp = T.concat_cols([state, t_rows, *_condition_columns(self, cond, feats, 0)])
        else:
            if columns is None:
                columns = np.zeros((length, self.est_in.w.data.shape[0]))
            rows = columns.reshape(-1, length, columns.shape[1])
            rows[:, :, :nf] = state.data
            rows[:, :, nf : nf + td] = _time_embedding(t, td)
            inp = Tensor(columns)
        x = T.relu(self.est_in(inp, row_stable=True))
        for b, block in enumerate(self.est_blocks):
            x = block(x, mask, row_stable=True, kv=None if kv is None else kv[b])
        return self.est_out(self.est_norm(x), row_stable=True)


def _condition_columns(model: CfmModel, cond: ConditionSet, token_feats: Tensor,
                       start: int) -> list[Tensor]:
    """The condition columns of the estimator input for frames
    start:start+L, L being the rows of ``token_feats``: the token features,
    the speaker vector on every row, and the reference rows, zero past the
    reference's end."""
    length = token_feats.data.shape[0]
    ref = np.zeros((length, model.config.n_features))
    have = cond.masked_ref.frames[start : start + length]
    ref[: len(have)] = have
    return [token_feats, Tensor(np.tile(cond.v, (length, 1))), Tensor(ref)]


def _input_columns(model: CfmModel, cond: ConditionSet, token_feats: Tensor, start: int,
                   guided: bool) -> np.ndarray:
    """The estimator input for frames start:start+L with its condition
    columns (:func:`_condition_columns`) filled, built once per package for
    all of its Euler steps: the conditional pass's rows, then for ``guided``
    the unconditional pass's, whose conditions are zero. Its state and time
    columns are left for :meth:`CfmModel.field` to write."""
    conds = np.concatenate([c.data for c in _condition_columns(model, cond, token_feats, start)],
                           axis=1)
    length, lead = len(conds), model.config.n_features + model.config.time_dim
    out = np.zeros(((2 if guided else 1) * length, lead + conds.shape[1]))
    out[:length, lead:] = conds
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
    feats = token_feats if token_feats is not None else model.token_conditions(cond.tokens, mask)
    return _guided_field(model, state, t, cond, beta, _estimator_plan(mask, beta),
                         _input_columns(model, cond, feats, 0, beta > 0.0))


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
                  plan: T.AttentionPlan, columns: np.ndarray, kv: list | None = None) -> Tensor:
    """:func:`cfg_field` under the plan :func:`_estimator_plan` made, over the
    input :func:`_input_columns` made."""
    out = model.field(state, t, cond, plan, kv=kv, columns=columns)
    if beta == 0.0:
        return out
    length = state.data.shape[0]
    return Tensor(out.data[:length] * (1.0 + beta) - out.data[length:] * beta)


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


class _KvCache(NamedTuple):
    """Keys and values of a stream's emitted frames, kept across its
    packages (see :func:`stream_generate`)."""

    align: list[list[np.ndarray]]  # one [K, V] per alignment block
    estimator: list[list[list[np.ndarray]]]  # per Euler step, one [K, V] per estimator block


def _integrate(model: CfmModel, cond: ConditionSet, edges: Sequence[int], nfe: int,
               beta: float, spec: MaskSpec, seed: int, cache: _KvCache | None = None) -> np.ndarray:
    """Euler-integrate frames start:stop of the UPSAMPLE x len(cond.tokens)
    frames, ``start`` and ``stop`` being the last two of ``edges``.

    No frame before ``stop`` may attend to a frame at or past it under
    ``spec``. Frames before ``start`` must be final, with their keys and
    values in ``cache``, to which this call appends those of frames
    start:stop: at each alignment block, and at each (Euler step, estimator
    block) for both CFG passes. The estimator keys came in packages, frames
    a:b for each pair of ``edges``, each package's conditional keys before
    its unconditional ones.

    The package's mask rows, [stop - start, stop], its token conditions and
    the condition columns of its estimator input are built once. So are the
    estimator's mask, stacked over both passes and key-ordered, and its
    attention plan, which every Euler step's estimator blocks reuse.
    """
    start, stop = edges[-2:]
    mask = build_mask(spec, stop, start)
    token_feats = model.token_conditions(cond.tokens, mask,
                                         kv=None if cache is None else cache.align)
    columns = _input_columns(model, cond, token_feats, start, beta > 0.0)
    keys = np.concatenate([np.r_[a:b, stop + a:stop + b] for a, b in zip(edges, edges[1:])])
    plan = _estimator_plan(mask, beta, keys)
    x = _frame_noise(seed, start, stop, model.config.n_features)
    grid = [cosine_schedule(k / nfe) for k in range(nfe + 1)]
    for k in range(nfe):
        vel = _guided_field(model, Tensor(x), grid[k], cond, beta, plan, columns,
                            None if cache is None else cache.estimator[k])
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
    for every frame before ``done``, its keys and values (see
    :func:`_integrate`) at each alignment block and at each (Euler step,
    estimator block), both CFG passes' there in the order their packages
    came. Each package computes the token conditions of the frames it
    completed, ``done:safe``, and integrates them, once, against that state,
    which only grows; it builds its mask rows, estimator plan and condition
    columns once. The state is n_align_blocks [K, V] pairs of [done, hidden]
    float64 rows, and nfe x n_estimator_blocks pairs of [2 x done, hidden]
    rows (one pass's under ``beta == 0``). At 192 frames and the default
    config (2 alignment blocks, nfe 10, 3 estimator blocks, hidden 24) that
    is 0.15 MB for the alignment blocks and 4.4 MB for the estimator.
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
    cache = _KvCache([[empty, empty] for _ in model.align_blocks],
                     [[[empty, empty] for _ in model.est_blocks] for _ in range(nfe)])
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
