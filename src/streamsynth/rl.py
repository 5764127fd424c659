"""Preference and ASR-reward fine-tuning for the token LM.

DPO pushes the policy's preferred-vs-rejected log-ratio margin against the
policy's own starting log-probabilities, scored once. The differentiable
ASR reward recovers generated speech tokens into quantized low-rank
vectors, re-predicts the input text with a frozen toy ASR backend, and uses
Gumbel-softmax sampling so the negative log posterior can reach the LM
parameters.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .fsq import FsqCodec, decode_indices, digit_table
from .nn import Adam, Linear, Module, param_fingerprint
from .seqlm import (InterleaveConfig, ToyLM, Vocabulary, build_icl_prompt,
                    build_nonstream, generate, top_k_sampler)
from .tensor import Tensor

__all__ = [
    "PreferencePair",
    "dpo_loss",
    "recover_lowrank",
    "gumbel_softmax_sample",
    "ToyAsrBackend",
    "train_asr_backend",
    "asr_nll_hard",
    "asr_reward_step",
    "sequence_logprob",
    "clone_frozen_lm",
    "make_preference_pairs",
    "finetune_dpo",
    "finetune_asr",
    "preference_margin",
]

GROUP = 3  # speech tokens per text symbol, matching the corpus motif length


@dataclass
class PreferencePair:
    context: list[int]
    preferred: list[int]
    rejected: list[int]

    def __post_init__(self):
        if not self.context or not self.preferred or not self.rejected:
            raise ValueError("preference pair needs non-empty context and samples")


def _as_scalar(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.float64(x))


def dpo_loss(logp_w_theta, logp_l_theta, logp_w_ref, logp_l_ref,
             beta_dpo: float = 0.1) -> Tensor:
    """-log sigmoid(beta * ((w_t - w_ref) - (l_t - l_ref)))."""
    margin = T.sub(
        T.sub(_as_scalar(logp_w_theta), _as_scalar(logp_w_ref)),
        T.sub(_as_scalar(logp_l_theta), _as_scalar(logp_l_ref)),
    )
    return T.softplus(T.scale(margin, -beta_dpo))


def recover_lowrank(codec: FsqCodec, tokens: Sequence[int]):
    """Tokens -> digit matrix -> frozen up-projection. Returns (digits, Hhat)."""
    digits = decode_indices(tokens, codec.config.d, codec.config.k)
    hhat = codec.proj_up(Tensor(digits.astype(np.float64)))
    return digits, hhat


def gumbel_softmax_sample(logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """softmax((logits + Gumbel noise) / tau); differentiable in the logits."""
    if tau <= 0.0:
        raise ValueError("gumbel softmax temperature must be positive")
    u = rng.uniform(size=logits.data.shape)
    noise = Tensor(-np.log(-np.log(u)))
    return T.softmax(T.scale(T.add(logits, noise), 1.0 / tau), axis=-1)


class ToyAsrBackend(Module):
    """Frozen classifier from recovered token representations to text posteriors.

    Consumes GROUP consecutive up-projected vectors per text symbol.
    """

    def __init__(self, codec: FsqCodec, vocab: Vocabulary, hidden: int = 48,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.codec = codec
        self.vocab = vocab
        self.fc1 = Linear(rng, GROUP * codec.hidden, hidden, std=0.2)
        self.fc2 = Linear(rng, hidden, vocab.text_size, std=0.2)
        self.table = digit_table(codec.config)  # [V_speech, D], a constant

    def fingerprint(self) -> bytes:
        return param_fingerprint(self.parameters())

    def _group(self, hhat: Tensor) -> Tensor:
        n = hhat.data.shape[0] // GROUP
        cols = [T.take_rows(hhat, range(g, GROUP * n, GROUP)) for g in range(GROUP)]
        return T.concat_cols(cols)

    def text_logits_from_hhat(self, hhat: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(self._group(hhat))))

    def text_logits(self, speech_tokens: Sequence[int]) -> Tensor:
        _, hhat = recover_lowrank(self.codec, speech_tokens)
        return self.text_logits_from_hhat(hhat)


def train_asr_backend(asr: ToyAsrBackend, pairs, steps: int,
                      rng: np.random.Generator) -> float:
    """Supervised pre-training on ground-truth (speech, text) pairs, then freeze.

    Small gaussian noise (std 0.15) on the recovered digits smooths the
    classifier around each code, which keeps its gradients informative for
    the soft decodes seen during reward fine-tuning.
    """
    params = [p for p in asr.parameters() if p.requires_grad]
    opt = Adam(params, lr=5e-3)
    d, k = asr.codec.config.d, asr.codec.config.k
    last = float("inf")
    for _ in range(steps):
        text, speech = pairs[int(rng.integers(len(pairs)))]
        digits = decode_indices(speech, d, k).astype(np.float64)
        digits += 0.15 * rng.standard_normal(digits.shape)
        targets = [t - asr.vocab.speech_size for t in text]
        last = opt.minimize(lambda: T.cross_entropy_ignore(
            asr.text_logits_from_hhat(asr.codec.proj_up(Tensor(digits))),
            targets, [False] * len(targets))).item()
    asr.freeze()
    return last


def _match_length(speech: Sequence[int], n_text: int) -> tuple[list[int], int]:
    """Trim generated speech to whole groups covering at most n_text symbols.

    Returns the usable tokens and the number of text symbols left uncovered;
    each uncovered symbol is charged a uniform-guess penalty.
    """
    usable_groups = min(len(speech) // GROUP, n_text)
    return list(speech[: GROUP * usable_groups]), n_text - usable_groups


def asr_nll_hard(asr: ToyAsrBackend, speech: Sequence[int], text: Sequence[int]) -> float:
    """Mean NLL of the text under the frozen backend given hard speech tokens."""
    usable, uncovered = _match_length(speech, len(text))
    covered = len(text) - uncovered
    penalty = np.log(asr.vocab.text_size)
    if covered == 0:
        return penalty
    logits = asr.text_logits(usable)
    targets = [t - asr.vocab.speech_size for t in text[:covered]]
    nll = T.cross_entropy_ignore(logits, targets, [False] * covered).item()
    return (nll * covered + penalty * uncovered) / len(text)


def soft_decode(asr: ToyAsrBackend, soft_tokens: Tensor) -> Tensor:
    """Expected digit vectors under a soft token distribution, up-projected."""
    digits = T.matmul(soft_tokens, Tensor(asr.table))
    return asr.codec.proj_up(digits)


def sample_speech_guided(lm: ToyLM, text: Sequence[int], n_tokens: int,
                         rng: np.random.Generator, top_k: int = 5) -> list[int]:
    """Sample exactly n_tokens speech tokens after ``S, text, T``.

    Sampling is restricted to the speech sub-vocabulary; the length comes
    from the corpus token rate, not from any per-sample label. Raises
    ``ValueError`` when the prompt and n_tokens do not fit the LM's max_len.
    """
    vocab = lm.vocab
    top = top_k_sampler(top_k)
    cfg = InterleaveConfig()
    prompt = build_icl_prompt(vocab, [], text, [], "nonstream", cfg)
    speech = generate(lm, prompt, vocab, cfg,
                      lambda logits, rng: top(logits[: vocab.speech_size], rng),
                      rng, max_len=n_tokens).speech
    if len(speech) < n_tokens:
        # speech-only sampling never emits E, so only the LM's length cap stops it short
        raise ValueError(f"sequence length {len(prompt.ids) + n_tokens - 1} "
                         f"exceeds max_len {lm.max_len}")
    return speech


def asr_reward_step(lm: ToyLM, asr: ToyAsrBackend, text: Sequence[int], tau: float,
                    rng: np.random.Generator, speech: Sequence[int] | None = None):
    """Differentiable ASR loss for one input text; gradients reach the LM only.

    A speech sequence is sampled at the corpus token rate (or supplied), the
    LM re-scores it with teacher forcing, and every speech position is
    relaxed by Gumbel-softmax so the recovered low-rank representations stay
    differentiable end to end.
    """
    vocab = lm.vocab
    text = list(text)
    if speech is None:
        speech = sample_speech_guided(lm, text, GROUP * len(text), rng)
    speech = list(speech)
    if len(speech) != GROUP * len(text):
        raise ValueError("speech length must match the corpus token rate")
    seq = build_nonstream(vocab, text, speech)
    logits = lm.forward(seq.ids)
    speech_rows = [i for i, tgt in enumerate(seq.targets)
                   if seq.loss_mask[i] and vocab.is_speech(tgt)]
    rows = T.take_rows(logits, speech_rows)
    speech_logits = T.slice_cols(rows, 0, vocab.speech_size)
    soft = gumbel_softmax_sample(speech_logits, tau, rng)
    hhat = soft_decode(asr, soft)
    asr_logits = asr.text_logits_from_hhat(hhat)
    targets = [t - vocab.speech_size for t in text]
    return T.cross_entropy_ignore(asr_logits, targets, [False] * len(targets))


def sequence_logprob(model: ToyLM, vocab: Vocabulary, text: Sequence[int],
                     speech: Sequence[int]) -> Tensor:
    """Log-probability of the speech continuation (including E) given the text."""
    seq = build_nonstream(vocab, list(text), list(speech))
    n = sum(seq.loss_mask)
    ign = [not m for m in seq.loss_mask]
    nll = T.cross_entropy_ignore(model.forward(seq.ids), seq.targets, ign)
    return T.scale(nll, -float(n))


def clone_frozen_lm(model: ToyLM) -> ToyLM:
    ref = copy.deepcopy(model)
    ref.freeze()
    return ref


def _motif_overlap(speech: Sequence[int], reference: Sequence[int]) -> float:
    if not reference:
        return 0.0
    hits = sum(1 for a, b in zip(speech, reference) if a == b)
    return hits / len(reference)


def make_preference_pairs(lm: ToyLM, asr: ToyAsrBackend, texts, motifs,
                          rng: np.random.Generator) -> list[PreferencePair]:
    """Sample two candidates per context and rank them with the toy rewards.

    Candidates come from top-8 sampling at temperature 1.5 after a
    nonstream prompt. Score: negative ASR loss plus a small similarity proxy
    (overlap with the motif rendering of the text). Contexts whose
    candidates coincide are dropped: identical samples carry no preference
    signal.
    """
    from .dataio import speech_for_text

    vocab = lm.vocab
    cfg = InterleaveConfig()
    sampler = top_k_sampler(k=8, temperature=1.5)
    pairs = []
    for text in texts:
        reference = speech_for_text(list(text), motifs)
        candidates = []
        for _ in range(2):
            prompt = build_icl_prompt(vocab, [], list(text), [], "nonstream", cfg)
            gen = generate(lm, prompt, vocab, cfg, sampler, rng)
            speech = gen.speech if gen.speech else [int(rng.integers(vocab.speech_size))]
            score = -asr_nll_hard(asr, speech, text) \
                + 0.2 * _motif_overlap(speech, reference)
            candidates.append((score, speech))
        (sw, w), (sl, lo) = sorted(candidates, key=lambda c: c[0], reverse=True)
        if w == lo:
            continue
        pairs.append(PreferencePair(list(text), w, lo))
    return pairs


def finetune_dpo(policy: ToyLM, pairs: Sequence[PreferencePair], steps: int,
                 rng: np.random.Generator, beta_dpo: float = 0.1,
                 lr: float = 1e-4) -> float:
    """DPO steps over batches of up to four preference pairs.

    The reference is the policy as it stands on entry: each pair's preferred
    and rejected log-probabilities are scored once, off the tape, before the
    first step.
    """
    if not pairs:
        raise ValueError("no preference pairs to score")
    vocab = policy.vocab
    with T.suspend_tape():
        ref = [(sequence_logprob(policy, vocab, p.context, p.preferred).item(),
                sequence_logprob(policy, vocab, p.context, p.rejected).item())
               for p in pairs]
    opt = Adam(policy.parameters(), lr=lr)
    size = min(4, len(pairs))

    def term(i: int) -> Tensor:
        pair = pairs[i]
        pol_w = sequence_logprob(policy, vocab, pair.context, pair.preferred)
        pol_l = sequence_logprob(policy, vocab, pair.context, pair.rejected)
        return T.scale(dpo_loss(pol_w, pol_l, *ref[i], beta_dpo), 1.0 / size)

    last = float("inf")
    for _ in range(steps):
        batch = rng.choice(len(pairs), size=size, replace=False)
        last = opt.minimize(lambda: functools.reduce(T.add, map(term, batch))).item()
    return last


def preference_margin(model: ToyLM, pairs: Sequence[PreferencePair]) -> float:
    """Mean preferred-minus-rejected log-probability margin."""
    if not pairs:
        raise ValueError("no preference pairs to score")
    vocab = model.vocab
    total = 0.0
    for pair in pairs:
        w = sequence_logprob(model, vocab, pair.context, pair.preferred).item()
        lo = sequence_logprob(model, vocab, pair.context, pair.rejected).item()
        total += w - lo
    return total / len(pairs)


def _clip_grads(params, max_norm: float) -> None:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor


def finetune_asr(lm: ToyLM, asr: ToyAsrBackend, texts, steps: int,
                 rng: np.random.Generator, tau: float = 1.0, lr: float = 3e-4,
                 batch_size: int = 4) -> float:
    """ASR-reward tuning with sampled contexts and gradients clipped to norm 1."""
    params = lm.parameters()
    opt = Adam(params, lr=lr)

    def term(i: int) -> Tensor:
        text = texts[int(rng.integers(len(texts)))]
        # half the batch scores the greedy path, half explores around it
        speech = sample_speech_guided(lm, text, GROUP * len(text), rng,
                                      top_k=1 if i % 2 == 0 else 5)
        return T.scale(asr_reward_step(lm, asr, text, tau, rng, speech), 1.0 / batch_size)

    last = float("inf")
    for _ in range(steps):
        opt.zero_grad()
        with T.Tape() as tape:
            loss = functools.reduce(T.add, map(term, range(batch_size)))
        tape.backward(loss)
        _clip_grads(params, 1.0)
        opt.step()
        last = loss.item()
    return last
