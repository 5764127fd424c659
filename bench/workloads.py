"""Set-up, the three workloads and their output checks.

Each workload is a sequence of operations numbered 0, 1, 2, ...; the inputs
of operation ``i`` depend only on the seed and ``i``, so two passes over the
same operations see the same inputs and must produce the same bytes.

- ``stream_tts``: one request = text -> ``build_icl_prompt`` ->
  ``generate_chunks`` -> ``stream_generate`` under the CHUNK mask, as
  ``streamsynth synthesize --mode stream`` runs it.
- ``offline_tts``: one request = ``generate`` -> ``cfm.sample`` under the
  NON_CAUSAL mask.
- ``train``: one round = an LM SFT step, a ``cfm.training_step``, a DPO step
  and an ASR-reward step, as ``train`` and ``finetune`` run them, with one
  Adam per objective that persists across rounds.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from streamsynth import cfm, dataio, fsq, nn, persist, rl, seqlm
from streamsynth import tensor as T
from streamsynth.config import RunConfig, split_seed

NFE = 10
BETA = 0.7
CHUNK_FRAMES = 30
HEAD_STD = 0.5  # seeded head in place of the zero init, so tokens vary
# Request cost grows with text length, and a run ends only after whole cycles
# of these lengths, so the median request is one of the middle length however
# many cycles fit, not on the boundary between two lengths. A stream run holds
# about twenty requests: the middle length comes twice a cycle, so the median
# (and the tail, under 30 requests the 11th slowest) is taken over half of
# them. The short offline requests take five lengths from the corpus range
# (3 to 8 symbols).
STREAM_LENGTHS = (12, 22, 32, 22)
OFFLINE_LENGTHS = (3, 4, 5, 6, 7)
RL_BATCH = 4

CORPUS_SEED = RunConfig().run.seed

# Output digests of the first DIGEST_OPS operations at DEFAULT_SEED.
DEFAULT_SEED = 0
DIGEST_OPS = {"stream_tts": 2, "offline_tts": 4, "train": 1}
RECORDED_DIGESTS = {
    "stream_tts": "3cd16c7c173edd97cb35300ab2857b37d25e9f8ede3af9b929c02de4793971a5",
    "offline_tts": "87292b6ea0e196f5ed7efecea42756186e6b16262feeae2935fce3a160772772",
    "train": "b9f1ec312232da8a25d46ce6fe13d0ee19f4730d4e4306c8bb7d1ef5fe1090cb",
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def stratified(rng: np.random.Generator, lengths, size: int) -> list[int]:
    """One random index from each of ``size`` length strata.

    Every batch keeps the corpus's mix of short and long items, so step time
    and step memory vary little from batch to batch and seed to seed.
    """
    order = np.argsort(lengths, kind="stable")
    return [int(rng.choice(stratum)) for stratum in np.array_split(order, size)]


@dataclass
class Assets:
    cfg: RunConfig
    vocab: seqlm.Vocabulary
    icfg: seqlm.InterleaveConfig
    lm: seqlm.ToyLM
    model: cfm.CfmModel
    speaker: np.ndarray
    ref: cfm.FeatureSeq
    pairs: list
    seqs: list
    features: list
    prefs: list
    ref_lm: seqlm.ToyLM
    asr: rl.ToyAsrBackend


@dataclass
class OpResult:
    """What one operation produced, with its timings in seconds."""

    seconds: float
    first_seconds: float
    outputs: int  # frames, or optimizer steps
    digest_bytes: bytes
    frames: np.ndarray | None = None
    gaps: list[float] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    check: Callable[[], None] | None = None  # raises CheckFailed
    host_factor: float = 1.0  # host slowness around the operation (hostspeed.py)


def _phase(timings: dict, name: str, start: float) -> float:
    now = perf_counter()
    timings[name] = now - start
    return now


def setup(seed: int, workdir: Path) -> tuple[Assets, dict[str, float]]:
    """Build, save and reload both models, then make the corpus and ASR backend."""
    timings: dict[str, float] = {}
    t = perf_counter()
    cfg = RunConfig()
    cfg.run.seed = seed
    codebook = fsq.FsqConfig(cfg.fsq.d, cfg.fsq.k).codebook_size
    vocab = seqlm.Vocabulary(codebook, cfg.seqlm.text_alphabet)
    icfg = seqlm.InterleaveConfig(cfg.seqlm.n, cfg.seqlm.m)
    lm = seqlm.ToyLM(vocab, dim=cfg.seqlm.dim, n_blocks=cfg.seqlm.n_blocks,
                     max_len=cfg.seqlm.max_len,
                     rng=np.random.default_rng(split_seed(seed, "lm-init")))
    lm.head.w.data = np.random.default_rng(split_seed(seed, "bench-head")).normal(
        0.0, HEAD_STD, lm.head.w.data.shape)
    c = cfg.cfm
    model = cfm.CfmModel(
        cfm.CfmConfig(n_features=c.n_features, token_vocab=codebook,
                      token_embed=c.token_embed, hidden=c.hidden,
                      speaker_dim=c.speaker_dim, lookahead=c.lookahead,
                      p_uncond=c.p_uncond, beta=c.beta, nfe=c.nfe),
        np.random.default_rng(split_seed(seed, "cfm-init")))
    t = _phase(timings, "models_s", t)

    workdir.mkdir(parents=True, exist_ok=True)
    persist.save_lm(workdir / "lm.ssyn", lm)
    persist.save_cfm(workdir / "cfm.ssyn", model)
    lm = persist.load_lm(workdir / "lm.ssyn")
    model = persist.load_cfm(workdir / "cfm.ssyn")
    t = _phase(timings, "checkpoint_s", t)

    # the default corpus, as `gen-data` makes it: its text lengths set the
    # cost of every training step, so they stay fixed across workload seeds
    rng = np.random.default_rng(split_seed(CORPUS_SEED, "corpus"))
    motifs = dataio.motif_map(vocab, rng)
    pairs = dataio.gen_pairs(vocab, motifs, rng, cfg.seqlm.pairs,
                             cfg.seqlm.min_text_len, cfg.seqlm.max_text_len)
    speaker = np.random.default_rng(split_seed(CORPUS_SEED, "speaker")).normal(
        0.0, 1.0, c.speaker_dim)
    frng = np.random.default_rng(split_seed(CORPUS_SEED, "features"))
    features = [dataio.features_for_tokens(s, speaker, c.n_features, frng)
                for _, s in pairs]
    seqs = []
    for text, speech in pairs:
        seqs.append(seqlm.build_nonstream(vocab, text, speech))
        seqs.append(seqlm.build_stream(vocab, text, speech, icfg))
    prng = np.random.default_rng(split_seed(seed, "bench-rejected"))
    prefs = [rl.PreferencePair(list(text), list(speech),
                               [int(x) for x in prng.integers(0, codebook, len(speech))])
             for text, speech in pairs]
    ref_lm = rl.clone_frozen_lm(lm)
    t = _phase(timings, "corpus_s", t)

    arng = np.random.default_rng(split_seed(seed, "asr"))
    codec = fsq.FsqCodec(fsq.FsqConfig(cfg.fsq.d, cfg.fsq.k), hidden=cfg.fsq.hidden,
                         rng=arng)
    asr = rl.ToyAsrBackend(codec, vocab, rng=arng)
    rl.train_asr_backend(asr, pairs, steps=min(400, 8 * len(pairs)), rng=arng)
    _phase(timings, "asr_backend_s", t)

    ref = cfm.FeatureSeq(np.zeros((0, c.n_features)))
    return Assets(cfg, vocab, icfg, lm, model, speaker, ref, pairs, seqs, features,
                  prefs, ref_lm, asr), timings


def _speech_greedy(speech_size: int):
    def sample(logits: np.ndarray, rng) -> int:
        return int(np.argmax(logits[:speech_size]))
    return sample


def _frames_digest(tokens, frames: np.ndarray) -> bytes:
    return np.asarray(tokens, dtype=np.int64).tobytes() + frames.tobytes()


class _TimedTokens:
    """Token-chunk iterator that records how long its consumer waited."""

    def __init__(self, chunks):
        self.chunks = chunks
        self.wait = 0.0
        self.tokens = 0

    def __iter__(self):
        return self

    def __next__(self):
        t = perf_counter()
        try:
            chunk = next(self.chunks)
        finally:
            self.wait += perf_counter() - t
        self.tokens += len(chunk)
        return chunk


class _Tts:
    lengths: tuple[int, ...]
    mode: str

    def __init__(self, assets: Assets, seed: int):
        self.a = assets
        self.seed = seed
        self.cycle = len(self.lengths)
        self.sampler = _speech_greedy(assets.vocab.speech_size)

    def text(self, i: int) -> list[int]:
        n = self.lengths[i % self.cycle]
        rng = np.random.default_rng((split_seed(self.seed, f"bench-{self.mode}-text"), i))
        return [self.a.vocab.text_id(int(s)) for s in rng.integers(0, self.a.vocab.text_size, n)]

    def noise_seed(self, i: int) -> int:
        return split_seed(self.seed, f"bench-noise-{i}")

    def offline_frames(self, tokens, spec, seed):
        cond = cfm.ConditionSet(self.a.speaker, list(tokens), self.a.ref)
        return cfm.sample(self.a.model, cond, cfm.UPSAMPLE * len(tokens), nfe=NFE,
                          beta=BETA, spec=spec, seed=seed).frames

    def _checker(self, n_symbols, tokens, frames, spec, seed, parts):
        def check():
            want_tokens = dataio.MOTIF_LEN * n_symbols
            if len(tokens) != want_tokens:
                raise CheckFailed(f"{len(tokens)} tokens for {n_symbols} symbols")
            if frames.shape != (cfm.UPSAMPLE * want_tokens, self.a.model.config.n_features):
                raise CheckFailed(f"frame block of shape {frames.shape}")
            if not np.all(np.isfinite(frames)):
                raise CheckFailed("non-finite frame")
            t = perf_counter()
            offline = self.offline_frames(tokens, spec, seed)
            parts["offline_cfm_s"] = perf_counter() - t
            if offline.tobytes() != frames.tobytes():
                raise CheckFailed("frames differ from cfm.sample over the same tokens")
        return check


class StreamTts(_Tts):
    lengths = STREAM_LENGTHS
    mode = "stream"
    spec = cfm.MaskSpec(cfm.MaskKind.CHUNK, chunk=CHUNK_FRAMES)

    def _chunks(self, text, result=None):
        a = self.a
        prompt = seqlm.build_icl_prompt(a.vocab, [], text, [], "stream", a.icfg)
        # the driver appends the remaining text and one turn token after the
        # prompt, so this budget leaves exactly MOTIF_LEN speech tokens per symbol
        in_prompt = sum(1 for tok in prompt.ids if a.vocab.is_text(tok))
        budget = dataio.MOTIF_LEN * len(text) + len(text) - in_prompt + 1
        return seqlm.generate_chunks(a.lm, prompt, a.vocab, a.icfg, sampler=self.sampler,
                                     max_len=budget, _sink=result)

    def run(self, i: int) -> OpResult:
        a = self.a
        text = self.text(i)
        t0 = perf_counter()
        result = seqlm.GenerationResult([], [], [])
        chunks = _TimedTokens(self._chunks(text, result))
        seed = self.noise_seed(i)
        marks, blocks = [], []
        integrated = tokens_first = 0
        t_gen = perf_counter()
        for feat in cfm.stream_generate(a.model, chunks, a.speaker, a.ref, nfe=NFE,
                                        beta=BETA, spec=self.spec, seed=seed):
            marks.append(perf_counter())
            if not blocks:
                tokens_first = chunks.tokens
            blocks.append(feat.frames)
            integrated += cfm.UPSAMPLE * chunks.tokens
        t_end = perf_counter()
        frames = np.concatenate(blocks, axis=0) if blocks \
            else np.zeros((0, a.model.config.n_features))
        parts = {"lm_s": chunks.wait, "cfm_busy_s": (t_end - t_gen) - chunks.wait,
                 "tokens": float(len(result.speech)),
                 "frames_integrated": float(integrated),
                 "packages": float(len(marks)), "tokens_first": float(tokens_first)}
        return OpResult(
            seconds=t_end - t0,
            first_seconds=(marks[0] if marks else t_end) - t0,
            outputs=len(frames),
            digest_bytes=_frames_digest(result.speech, frames),
            frames=frames,
            gaps=[float(g) for g in np.diff(marks)],
            parts=parts,
            check=self._checker(len(text), list(result.speech), frames, self.spec,
                                seed, parts),
        )

    def token_packages(self, i: int) -> list[list[int]]:
        """The LM's token packages for request ``i``, produced untimed."""
        return list(self._chunks(self.text(i)))


class OfflineTts(_Tts):
    lengths = OFFLINE_LENGTHS
    mode = "nonstream"
    spec = cfm.MaskSpec(cfm.MaskKind.NON_CAUSAL)

    def run(self, i: int) -> OpResult:
        a = self.a
        text = self.text(i)
        t0 = perf_counter()
        prompt = seqlm.build_icl_prompt(a.vocab, [], text, [], "nonstream", a.icfg)
        result = seqlm.generate(a.lm, prompt, a.vocab, a.icfg, sampler=self.sampler,
                                max_len=dataio.MOTIF_LEN * len(text))
        t1 = perf_counter()
        seed = self.noise_seed(i)
        frames = self.offline_frames(result.speech, self.spec, seed)
        t2 = perf_counter()
        parts = {"lm_s": t1 - t0, "cfm_busy_s": t2 - t1,
                 "tokens": float(len(result.speech)),
                 "frames_integrated": float(len(frames)), "packages": 1.0}
        return OpResult(
            seconds=t2 - t0, first_seconds=t2 - t0, outputs=len(frames),
            digest_bytes=_frames_digest(result.speech, frames), frames=frames,
            parts=parts,
            check=self._checker(len(text), list(result.speech), frames, self.spec,
                                seed, parts),
        )


class Train:
    """Round-robin of the four optimizer steps with persistent Adam state."""

    KINDS = ("lm", "cfm", "dpo", "asr")
    cycle = 1

    def __init__(self, assets: Assets, seed: int):
        self.a = assets
        self.seed = seed
        c = assets.cfg
        lm_params = assets.lm.parameters()
        self.opt = {
            "lm": nn.Adam(lm_params, lr=c.seqlm.lr),
            "cfm": nn.Adam(assets.model.parameters(), lr=c.cfm.lr),
            "dpo": nn.Adam(lm_params, lr=c.rl.lr),
            "asr": nn.Adam(lm_params, lr=c.rl.lr),
        }

    def _lm_loss(self, rng):
        seqs = self.a.seqs
        batch = [seqs[j] for j in stratified(rng, [len(q.ids) for q in seqs],
                                                self.a.cfg.seqlm.batch_size)]
        return seqlm.sequence_loss(self.a.lm, batch)

    def _cfm_loss(self, rng):
        a = self.a
        j = int(rng.integers(len(a.pairs)))
        return cfm.training_step(a.model, a.features[j], a.speaker, a.pairs[j][1], rng,
                                 chunk=a.cfg.cfm.chunk_frames)

    def _dpo_loss(self, rng):
        a = self.a
        prefs = a.prefs
        loss = None
        for j in stratified(rng, [len(p.context) for p in prefs], RL_BATCH):
            p = prefs[j]
            ref_w = rl.sequence_logprob(a.ref_lm, a.vocab, p.context, p.preferred)
            ref_l = rl.sequence_logprob(a.ref_lm, a.vocab, p.context, p.rejected)
            pol_w = rl.sequence_logprob(a.lm, a.vocab, p.context, p.preferred)
            pol_l = rl.sequence_logprob(a.lm, a.vocab, p.context, p.rejected)
            term = T.scale(rl.dpo_loss(pol_w, pol_l, ref_w.item(), ref_l.item(),
                                       a.cfg.rl.beta_dpo), 1.0 / RL_BATCH)
            loss = term if loss is None else T.add(loss, term)
        return loss

    def _asr_loss(self, rng):
        a = self.a
        loss = None
        picks = stratified(rng, [len(text) for text, _ in a.pairs], RL_BATCH)
        for k, j in enumerate(picks):
            text = a.pairs[j][0]
            # half the batch scores the greedy path, half explores around it
            speech = rl.sample_speech_guided(a.lm, text, rl.GROUP * len(text), rng,
                                             top_k=1 if k % 2 == 0 else 5)
            term = T.scale(rl.asr_reward_step(a.lm, a.asr, text, a.cfg.rl.tau, rng, speech),
                           1.0 / RL_BATCH)
            loss = term if loss is None else T.add(loss, term)
        return loss

    def run(self, i: int) -> OpResult:
        rng = np.random.default_rng((split_seed(self.seed, "bench-train"), i))
        losses = {}
        times = {}
        for kind, make_loss in zip(self.KINDS, (self._lm_loss, self._cfm_loss,
                                                self._dpo_loss, self._asr_loss)):
            opt = self.opt[kind]
            # the last step's tape is cyclic garbage; free it outside the timing
            # so peak memory is one step's working set
            gc.collect()
            t = perf_counter()
            opt.zero_grad()
            with T.Tape() as tape:
                loss = make_loss(rng)
            tape.backward(loss)
            if kind == "asr":
                rl._clip_grads(opt.params, 1.0)
            opt.step()
            times[kind] = perf_counter() - t
            losses[kind] = loss.item()
            del tape, loss
        digest = np.array([losses[k] for k in self.KINDS]).tobytes() \
            + nn.param_fingerprint(self.a.lm.parameters()) \
            + nn.param_fingerprint(self.a.model.parameters())

        def check():
            bad = [k for k, v in losses.items() if not math.isfinite(v)]
            if bad:
                raise CheckFailed(f"non-finite loss in {bad}")

        return OpResult(
            seconds=sum(times.values()), first_seconds=times["lm"],
            outputs=len(self.KINDS), digest_bytes=digest,
            parts={f"{k}_step_s": v for k, v in times.items()}, check=check)


WORKLOADS = {"stream_tts": StreamTts, "offline_tts": OfflineTts, "train": Train}


def digest(chunks: list[bytes]) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()
