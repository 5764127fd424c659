"""Unified streaming/non-streaming token sequences and a toy autoregressive LM.

Sequence layout. Non-streaming training sequences are
``S, text..., T, speech..., E``. Streaming sequences interleave groups of N
text tokens with groups of M speech tokens; once the text runs out, ``T``
and the remaining speech follow. The filling token is target-only: at a
speech-to-text group boundary the model is scored against FILLING instead
of the upcoming text token, and generation drivers react to a FILLING
prediction by appending the next N source text tokens rather than feeding
the symbol back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .nn import Adam, LayerNorm, Linear, Module, TransformerBlock
from .tensor import Tensor

__all__ = [
    "Vocabulary",
    "InterleaveConfig",
    "TokenSequence",
    "ParseError",
    "build_nonstream",
    "build_stream",
    "deinterleave",
    "PromptState",
    "build_icl_prompt",
    "GenerationResult",
    "generate",
    "generate_chunks",
    "greedy_sampler",
    "top_k_sampler",
    "LmCache",
    "CacheMismatchError",
    "ToyLM",
    "sequence_loss",
    "train_lm",
]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Vocabulary:
    """Token id layout: speech ids first, then text ids, then the specials."""

    speech_size: int
    text_size: int

    def __post_init__(self):
        if self.speech_size < 1 or self.text_size < 1:
            raise ValueError("vocabulary needs speech_size >= 1 and text_size >= 1")

    @property
    def sos(self) -> int:
        return self.speech_size + self.text_size

    @property
    def tos(self) -> int:  # turn of speech
        return self.speech_size + self.text_size + 1

    @property
    def eos(self) -> int:
        return self.speech_size + self.text_size + 2

    @property
    def filling(self) -> int:
        return self.speech_size + self.text_size + 3

    @property
    def size(self) -> int:
        return self.speech_size + self.text_size + 4

    def text_id(self, i: int) -> int:
        if not 0 <= i < self.text_size:
            raise ValueError(f"text symbol {i} out of range")
        return self.speech_size + i

    def is_speech(self, tok: int) -> bool:
        return 0 <= tok < self.speech_size

    def is_text(self, tok: int) -> bool:
        return self.speech_size <= tok < self.speech_size + self.text_size

    def category(self, tok: int) -> str:
        if self.is_speech(tok):
            return "speech"
        if self.is_text(tok):
            return "text"
        if tok == self.sos:
            return "sos"
        if tok == self.tos:
            return "tos"
        if tok == self.eos:
            return "eos"
        if tok == self.filling:
            return "filling"
        raise ValueError(f"token {tok} outside vocabulary of {self.size}")


@dataclass(frozen=True)
class InterleaveConfig:
    n: int = 5
    m: int = 15

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("interleave ratio needs n >= 1 and m >= 1")


@dataclass
class TokenSequence:
    ids: list[int]
    targets: list[int]
    loss_mask: list[bool]

    def __post_init__(self):
        if not (len(self.ids) == len(self.targets) == len(self.loss_mask)):
            raise ValueError("ids/targets/loss_mask lengths differ")


def _finish(vocab: Vocabulary, ids: list[int]) -> TokenSequence:
    """Next-id targets; speech ids and ``E`` are scored, text and ``T`` are not."""
    targets: list[int] = []
    mask: list[bool] = []
    for i, tok in enumerate(ids):
        if i == len(ids) - 1:
            targets.append(-1)
            mask.append(False)
            continue
        nxt = ids[i + 1]
        if vocab.is_text(nxt) and vocab.is_speech(tok):
            # group boundary: the model asks for more text instead of reading it
            targets.append(vocab.filling)
            mask.append(True)
        else:
            targets.append(nxt)
            mask.append(vocab.is_speech(nxt) or nxt == vocab.eos)
    return TokenSequence(ids, targets, mask)


def build_nonstream(vocab: Vocabulary, text: Sequence[int],
                    speech: Sequence[int]) -> TokenSequence:
    return _finish(vocab, [vocab.sos, *text, vocab.tos, *speech, vocab.eos])


def _stream_prefix(vocab: Vocabulary, text: list[int], speech: list[int],
                   cfg: InterleaveConfig) -> tuple[list[int], int, int]:
    """``S``, then each group of N text ids followed by its M speech ids.

    Stops after a short text group, or after a full one whose speech falls
    short. Returns the ids and how many text and speech ids they hold.
    """
    ids = [vocab.sos]
    ti = si = 0
    while ti < len(text):
        grp = text[ti : ti + cfg.n]
        ti += len(grp)
        ids.extend(grp)
        if len(grp) < cfg.n:
            break
        s = speech[si : si + cfg.m]
        si += len(s)
        ids.extend(s)
        if len(s) < cfg.m:
            break
    return ids, ti, si


def build_stream(vocab: Vocabulary, text: Sequence[int], speech: Sequence[int],
                 cfg: InterleaveConfig) -> TokenSequence:
    text = list(text)
    speech = list(speech)
    ids, ti, si = _stream_prefix(vocab, text, speech, cfg)
    return _finish(vocab, ids + [*text[ti:], vocab.tos, *speech[si:], vocab.eos])


def deinterleave(seq: TokenSequence | Sequence[int], cfg: InterleaveConfig,
                 vocab: Vocabulary) -> tuple[list[int], list[int]]:
    """Recover (text, speech) from a streaming sequence, validating its grammar."""
    ids = list(seq.ids if isinstance(seq, TokenSequence) else seq)
    if not ids:
        return [], []
    if ids[0] != vocab.sos:
        raise ParseError("sequence must begin with the start token", 0)
    text: list[int] = []
    speech: list[int] = []
    turn_seen = False
    end_seen = False
    for pos in range(1, len(ids)):
        tok = ids[pos]
        if end_seen:
            raise ParseError("token after end of sequence", pos)
        cat = vocab.category(tok)
        if cat == "sos":
            raise ParseError("second start token", pos)
        if cat == "filling":
            raise ParseError("filling token in the input stream", pos)
        if cat == "eos":
            end_seen = True
        elif cat == "tos":
            if turn_seen:
                raise ParseError("second turn-of-speech token", pos)
            turn_seen = True
        elif cat == "text":
            if turn_seen:
                raise ParseError("text token after turn of speech", pos)
            text.append(tok)
        else:
            speech.append(tok)
    if not end_seen:
        raise ParseError("missing end-of-sequence token", len(ids) - 1)
    if not turn_seen:
        raise ParseError("missing turn-of-speech token", len(ids) - 1)
    rebuilt = build_stream(vocab, text, speech, cfg)
    if rebuilt.ids != ids:
        diff = next(i for i, (a, b) in enumerate(zip(rebuilt.ids, ids)) if a != b)
        raise ParseError("sequence does not follow the interleave grammar", diff)
    return text, speech


@dataclass
class PromptState:
    """Initial ids plus the driver bookkeeping needed to continue generation."""

    ids: list[int]
    streaming: bool
    text_left: list[int] = field(default_factory=list)
    group_fill: int = 0
    past_turn: bool = False


def build_icl_prompt(vocab: Vocabulary, prompt_text: Sequence[int], text: Sequence[int],
                     prompt_speech: Sequence[int], mode: str,
                     cfg: InterleaveConfig) -> PromptState:
    """Initial sequence for in-context generation.

    Non-streaming: ``S, prompt_text, text, T, prompt_speech`` and the model
    continues with speech until E. Streaming: prompt and target text form
    one stream interleaved N:M with the prompt speech; generation resumes
    wherever the prompt material ran out.
    """
    if mode not in ("stream", "nonstream"):
        raise ValueError(f"unknown mode {mode!r}")
    full_text = list(prompt_text) + list(text)
    prompt_speech = list(prompt_speech)
    if mode == "nonstream":
        ids = [vocab.sos, *full_text, vocab.tos, *prompt_speech]
        return PromptState(ids, streaming=False, past_turn=True)

    ids, ti, si = _stream_prefix(vocab, full_text, prompt_speech, cfg)
    if si < cfg.m * (ti // cfg.n):
        # prompt speech ran out inside a full text group: the model fills it
        return PromptState(ids, True, text_left=full_text[ti:], group_fill=si % cfg.m)
    ids.append(vocab.tos)
    ids.extend(prompt_speech[si:])
    return PromptState(ids, True, past_turn=True)


def greedy_sampler(logits: np.ndarray, rng: np.random.Generator) -> int:
    return int(np.argmax(logits))


def top_k_sampler(k: int = 5, temperature: float = 1.0) -> Callable:
    def sample(logits: np.ndarray, rng: np.random.Generator) -> int:
        top = np.argsort(logits)[-k:]
        z = logits[top] / temperature
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        return int(top[rng.choice(len(top), p=p)])

    return sample


@dataclass
class GenerationResult:
    speech: list[int]
    chunks: list[list[int]]
    ids: list[int]
    truncated: bool = False
    flags: list[str] = field(default_factory=list)


def _pad_text(ids: list[int], text_left: list[int], vocab: Vocabulary,
              cfg: InterleaveConfig) -> bool:
    """Append the next text group; a short or empty final group is followed by T.

    Mirrors the training-sequence builder: running out of text mid-group
    puts the turn-of-speech token right after it. Returns the new past_turn.
    """
    take = text_left[: cfg.n]
    del text_left[: cfg.n]
    ids.extend(take)
    if len(take) < cfg.n:
        ids.append(vocab.tos)
        return True
    return False


def generate_chunks(model, prompt: PromptState, vocab: Vocabulary, cfg: InterleaveConfig,
                    sampler: Callable = greedy_sampler,
                    rng: np.random.Generator | None = None,
                    max_len: int | None = None,
                    _sink: GenerationResult | None = None) -> Iterator[list[int]]:
    """Drive autoregressive generation, yielding each speech token as sampled.

    Each token is yielded as a one-token list before the next model call;
    the sink's ``chunks`` collects the tokens in packages of M.

    On a FILLING prediction the next N source text tokens are appended; when
    the source text is exhausted at a group boundary the turn-of-speech token
    is appended by the driver itself. Generation stops at E (flagged
    ``eos-with-text-left`` while source text is still unread) or at the
    length budget (which sets ``truncated`` on the result sink).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    result = _sink if _sink is not None else GenerationResult([], [], [])
    ids = list(prompt.ids)
    text_left = list(prompt.text_left)
    fill = prompt.group_fill
    past_turn = prompt.past_turn
    total_text = sum(1 for t in ids if vocab.is_text(t)) + len(text_left)
    budget = max_len if max_len is not None else 4 * (total_text * 3 + 16)
    if getattr(model, "max_len", None) is not None:
        # the model scores sequences of at most max_len ids
        budget = min(budget, model.max_len + 1 - len(prompt.ids))
    cache = LmCache()
    pending: list[int] = []
    done = False

    while not done:
        if len(ids) - len(prompt.ids) >= budget:
            result.truncated = True
            result.flags.append("length-budget")
            break
        if not past_turn and fill >= cfg.m:
            if text_left:
                tok = sampler(model.logits_last(ids, cache), rng)
                if tok != vocab.filling:
                    result.flags.append("missing-filling")
            past_turn = _pad_text(ids, text_left, vocab, cfg)
            fill = 0
            continue
        tok = sampler(model.logits_last(ids, cache), rng)
        if tok == vocab.eos:
            if text_left:
                result.flags.append("eos-with-text-left")
            ids.append(tok)
            done = True
        elif vocab.is_speech(tok):
            ids.append(tok)
            result.speech.append(tok)
            pending.append(tok)
            if not past_turn:
                fill += 1
            if len(pending) == cfg.m:
                result.chunks.append(pending)
                pending = []
            yield [tok]
        elif tok == vocab.filling and not past_turn:
            if not text_left:
                result.flags.append("filling-with-no-text")
            past_turn = _pad_text(ids, text_left, vocab, cfg)
            fill = 0
        else:
            result.flags.append(f"protocol-break:{vocab.category(tok)}")
            break
    if pending:
        result.chunks.append(pending)
    result.ids = ids


def generate(model, prompt: PromptState, vocab: Vocabulary, cfg: InterleaveConfig,
             sampler: Callable = greedy_sampler,
             rng: np.random.Generator | None = None,
             max_len: int | None = None) -> GenerationResult:
    result = GenerationResult([], [], [])
    for _ in generate_chunks(model, prompt, vocab, cfg, sampler, rng, max_len, _sink=result):
        pass
    if not prompt.streaming:
        result.chunks = [list(result.speech)] if result.speech else []
    return result


class CacheMismatchError(ValueError):
    """The ids handed to a cached LM call do not extend the ids it has consumed."""


@dataclass
class LmCache:
    """Decoding state of one generation call.

    ``ids`` are the ids consumed so far; ``kv`` holds one [K, V] per LM block,
    the keys and values of those ids' rows.
    """

    ids: list[int] = field(default_factory=list)
    kv: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.ids)


class ToyLM(Module):
    """Two-block causal transformer over the joint text/speech vocabulary."""

    def __init__(self, vocab: Vocabulary, dim: int = 48, n_blocks: int = 2,
                 max_len: int = 512, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab = vocab
        self.dim = dim
        self.max_len = max_len
        self.embed = Tensor(rng.normal(0.0, 0.05, (vocab.size, dim)), requires_grad=True)
        self.pos = Tensor(rng.normal(0.0, 0.05, (max_len, dim)), requires_grad=True)
        self.blocks = [TransformerBlock(rng, dim) for _ in range(n_blocks)]
        self.ln_f = LayerNorm(dim)
        # zero head: an untrained model scores exactly uniform
        self.head = Linear(rng, dim, vocab.size, zero=True)

    def _embed(self, ids: Sequence[int], start: int) -> Tensor:
        """Token plus position embeddings of ``ids`` placed at ``start``."""
        end = start + len(ids)
        if end > self.max_len:
            raise ValueError(f"sequence length {end} exceeds max_len {self.max_len}")
        return T.add(T.embedding_lookup(self.embed, ids),
                     T.embedding_lookup(self.pos, range(start, end)))

    def forward(self, ids: Sequence[int], row_stable: bool = False) -> Tensor:
        x = self._embed(ids, 0)
        length = len(ids)
        mask = T.AttentionPlan(np.tril(np.ones((length, length), dtype=bool)))
        for block in self.blocks:
            x = block(x, mask, row_stable)
        return self.head(self.ln_f(x), row_stable)

    def logits_last(self, ids: Sequence[int], cache: LmCache | None = None) -> np.ndarray:
        """Next-token logits after ``ids``, equal to ``forward(ids, row_stable=True)``'s
        last row.

        Only the ids past ``cache.length`` run through the blocks, against the
        cached keys and values, and the call adds them to ``cache``. Nothing is
        recorded on an active tape: sampling needs no gradient.
        """
        cache = cache if cache is not None else LmCache()
        start = cache.length
        if len(ids) <= start or list(ids[:start]) != cache.ids:
            raise CacheMismatchError(
                f"ids (length {len(ids)}) do not extend the {start} cached ids")
        new = list(ids[start:])
        if not cache.kv:
            cache.kv = [[np.zeros((0, self.dim)), np.zeros((0, self.dim))]
                        for _ in self.blocks]
        with T.suspend_tape():
            x = self._embed(new, start)
            # a single new row sees every id: its causal mask is all ones
            allowed = np.ones((len(new), len(ids)), dtype=bool)
            mask = T.AttentionPlan(allowed if len(new) == 1 else np.tril(allowed, k=start))
            for block, kv in zip(self.blocks, cache.kv):
                x = block(x, mask, row_stable=True, kv=kv)
            last = Tensor(x.data[-1:])
            logits = self.head(self.ln_f(last), row_stable=True).data[0]
        cache.ids.extend(new)
        return logits


def sequence_loss(model: ToyLM, sequences: Sequence[TokenSequence]) -> Tensor:
    """Mean next-token NLL over all scored positions of a batch."""
    total = sum(sum(s.loss_mask) for s in sequences)
    if total == 0:
        raise T.EmptyLossError("batch has no scored positions")

    def part(seq: TokenSequence) -> Tensor:
        ign = [not m for m in seq.loss_mask]
        nll = T.cross_entropy_ignore(model.forward(seq.ids), seq.targets, ign)
        return T.scale(nll, sum(seq.loss_mask) / total)

    return functools.reduce(T.add, (part(s) for s in sequences if any(s.loss_mask)))


def train_lm(model: ToyLM, sequences: Sequence[TokenSequence], steps: int,
             rng: np.random.Generator, lr: float = 3e-3, batch_size: int = 16,
             target_loss: float | None = None) -> float:
    """Adam training loop; returns the full-corpus loss after the last step."""
    params = model.parameters()
    opt = Adam(params, lr=lr)
    seqs = list(sequences)
    loss_val = float("inf")
    for step in range(steps):
        batch = [seqs[i] for i in rng.choice(len(seqs), size=min(batch_size, len(seqs)),
                                             replace=False)]
        opt.minimize(lambda: sequence_loss(model, batch))
        if target_loss is not None and step % 25 == 24:
            loss_val = evaluate_loss(model, seqs)
            if loss_val <= target_loss:
                return loss_val
    return evaluate_loss(model, seqs)


def evaluate_loss(model: ToyLM, sequences: Sequence[TokenSequence]) -> float:
    return sequence_loss(model, sequences).item()
