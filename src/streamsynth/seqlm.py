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

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .nn import Adam, LayerNorm, Linear, TransformerBlock
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


def _finish(vocab: Vocabulary, ids: list[int], score_turn_token: bool) -> TokenSequence:
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
            scored = vocab.is_speech(nxt) or nxt == vocab.eos
            if score_turn_token and nxt == vocab.tos:
                scored = True
            mask.append(scored)
    return TokenSequence(ids, targets, mask)


def build_nonstream(vocab: Vocabulary, text: Sequence[int], speech: Sequence[int],
                    score_turn_token: bool = False) -> TokenSequence:
    ids = [vocab.sos, *text, vocab.tos, *speech, vocab.eos]
    return _finish(vocab, ids, score_turn_token)


def build_stream(vocab: Vocabulary, text: Sequence[int], speech: Sequence[int],
                 cfg: InterleaveConfig, score_turn_token: bool = False) -> TokenSequence:
    text = list(text)
    speech = list(speech)
    ids = [vocab.sos]
    ti = si = 0
    while ti < len(text):
        grp = text[ti : ti + cfg.n]
        ti += len(grp)
        ids.extend(grp)
        if len(grp) < cfg.n:
            break  # ran out mid-group: straight to turn-of-speech
        ids.extend(speech[si : si + cfg.m])
        si = min(si + cfg.m, len(speech))
    ids.append(vocab.tos)
    ids.extend(speech[si:])
    ids.append(vocab.eos)
    return _finish(vocab, ids, score_turn_token)


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

    ids = [vocab.sos]
    ti = si = 0
    while ti < len(full_text):
        grp = full_text[ti : ti + cfg.n]
        ti += len(grp)
        ids.extend(grp)
        if len(grp) < cfg.n:
            break  # text exhausted mid-group: turn of speech comes next
        if si >= len(prompt_speech):
            # prompt speech exhausted at a boundary: the model fills this group
            return PromptState(ids, True, text_left=full_text[ti:], group_fill=0)
        s = prompt_speech[si : si + cfg.m]
        si += len(s)
        ids.extend(s)
        if len(s) < cfg.m:
            # prompt speech exhausted mid-group: the model completes it
            return PromptState(ids, True, text_left=full_text[ti:], group_fill=len(s))
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
        return int(top[rng.choice(k, p=p)])

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
    """Append the next text group; a short final group is followed by T.

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
    """Drive autoregressive generation, yielding every M new speech tokens.

    On a FILLING prediction the next N source text tokens are appended; when
    the source text is exhausted at a group boundary the turn-of-speech token
    is appended by the driver itself. Generation stops at E or at the length
    budget (which sets ``truncated`` on the result sink).
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
    pending: list[int] = []
    done = False

    while not done:
        if len(ids) - len(prompt.ids) >= budget:
            result.truncated = True
            result.flags.append("length-budget")
            break
        if not past_turn and fill >= cfg.m:
            if text_left:
                tok = sampler(model.logits_last(ids), rng)
                if tok != vocab.filling:
                    result.flags.append("missing-filling")
                past_turn = _pad_text(ids, text_left, vocab, cfg)
                fill = 0
            else:
                ids.append(vocab.tos)
                past_turn = True
            continue
        tok = sampler(model.logits_last(ids), rng)
        if tok == vocab.eos:
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
                yield pending
                pending = []
        elif tok == vocab.filling and not past_turn:
            if text_left:
                past_turn = _pad_text(ids, text_left, vocab, cfg)
                fill = 0
            else:
                result.flags.append("filling-with-no-text")
                ids.append(vocab.tos)
                past_turn = True
        else:
            result.flags.append(f"protocol-break:{vocab.category(tok)}")
            break
    if pending:
        result.chunks.append(pending)
        yield pending
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


class ToyLM:
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

    def parameters(self) -> list[Tensor]:
        out = [self.embed, self.pos]
        for b in self.blocks:
            out.extend(b.parameters())
        out.extend(self.ln_f.parameters())
        out.extend(self.head.parameters())
        return out

    def forward(self, ids: Sequence[int]) -> Tensor:
        length = len(ids)
        if length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len {self.max_len}")
        x = T.add(
            T.embedding_lookup(self.embed, ids),
            T.embedding_lookup(self.pos, range(length)),
        )
        mask = np.tril(np.ones((length, length), dtype=bool))
        for block in self.blocks:
            x = block(x, mask)
        return self.head(self.ln_f(x))

    def logits_last(self, ids: Sequence[int]) -> np.ndarray:
        return self.forward(ids).data[-1]


def sequence_loss(model: ToyLM, sequences: Sequence[TokenSequence]) -> Tensor:
    """Mean next-token NLL over all scored positions of a batch."""
    total = sum(sum(s.loss_mask) for s in sequences)
    if total == 0:
        raise T.EmptyLossError("batch has no scored positions")
    loss = None
    for seq in sequences:
        n = sum(seq.loss_mask)
        if n == 0:
            continue
        ign = [not m for m in seq.loss_mask]
        part = T.scale(
            T.cross_entropy_ignore(model.forward(seq.ids), seq.targets, ign), n / total
        )
        loss = part if loss is None else T.add(loss, part)
    return loss


def train_lm(model: ToyLM, sequences: Sequence[TokenSequence], steps: int,
             rng: np.random.Generator, lr: float = 3e-3, batch_size: int = 16,
             target_loss: float | None = None, log_every: int = 0) -> float:
    """Adam training loop; returns the full-corpus loss after the last step."""
    params = model.parameters()
    opt = Adam(params, lr=lr)
    seqs = list(sequences)
    loss_val = float("inf")
    for step in range(steps):
        batch = [seqs[i] for i in rng.choice(len(seqs), size=min(batch_size, len(seqs)),
                                             replace=False)]
        opt.zero_grad()
        with T.Tape() as tape:
            loss = sequence_loss(model, batch)
        tape.backward(loss)
        opt.step()
        if log_every and step % log_every == 0:
            print(f"  step {step}: batch loss {loss.item():.4f}")
        if target_loss is not None and step % 25 == 24:
            loss_val = evaluate_loss(model, seqs)
            if loss_val <= target_loss:
                return loss_val
    return evaluate_loss(model, seqs)


def evaluate_loss(model: ToyLM, sequences: Sequence[TokenSequence]) -> float:
    return sequence_loss(model, sequences).item()
