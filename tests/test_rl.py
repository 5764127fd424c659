import functools

import numpy as np
import pytest

from gradcheck import check_gradients
from streamsynth import dataio
from streamsynth import rl
from streamsynth import tensor as T
from streamsynth.config import load_config
from streamsynth.fsq import FsqCodec, FsqConfig
from streamsynth.nn import Adam, param_fingerprint
from streamsynth.seqlm import (InterleaveConfig, ToyLM, Vocabulary,
                               build_nonstream, build_stream, top_k_sampler, train_lm)
from streamsynth.tensor import Tape, Tensor


@pytest.fixture(scope="module")
def world():
    """Small fine-tuning world: codec, SFT'd LM, frozen ASR backend."""
    vocab = Vocabulary(81, 16)
    cfg = InterleaveConfig(5, 15)
    rng = np.random.default_rng(100)
    motifs = dataio.motif_map(vocab, rng)
    pairs = dataio.gen_pairs(vocab, motifs, rng, 20, 2, 4)
    seqs = []
    for t, s in pairs:
        seqs.append(build_nonstream(vocab, t, s))
        seqs.append(build_stream(vocab, t, s, cfg))
    lm = ToyLM(vocab, dim=32, n_blocks=2, rng=np.random.default_rng(1))
    train_lm(lm, seqs, steps=120, rng=np.random.default_rng(2), lr=3e-3, batch_size=8)
    codec = FsqCodec(FsqConfig(4, 1), hidden=12, rng=np.random.default_rng(3))
    asr = rl.ToyAsrBackend(codec, vocab, rng=np.random.default_rng(4))
    rl.train_asr_backend(asr, pairs, 300, np.random.default_rng(5))
    return vocab, cfg, motifs, pairs, lm, codec, asr


@pytest.fixture(scope="module")
def prefs(world):
    _, _, motifs, pairs, lm, _, asr = world
    out = rl.make_preference_pairs(lm, asr, [t for t, _ in pairs[:8]], motifs,
                                   np.random.default_rng(14))
    assert len(out) > 4, "too few distinct candidate pairs for a sampled batch"
    return out


def trainable_copy(lm: ToyLM) -> ToyLM:
    policy = rl.clone_frozen_lm(lm)
    for p in policy.parameters():
        p.requires_grad = True
    return policy


def dpo_with_frozen_clone(policy, pairs, steps, rng, beta_dpo, lr) -> float:
    """DPO as first written: a frozen clone of the starting policy as the
    reference, re-scored for every pair of every step."""
    reference = rl.clone_frozen_lm(policy)
    vocab = policy.vocab
    opt = Adam(policy.parameters(), lr=lr)
    size = min(4, len(pairs))

    def term(pair):
        ref_w = rl.sequence_logprob(reference, vocab, pair.context, pair.preferred)
        ref_l = rl.sequence_logprob(reference, vocab, pair.context, pair.rejected)
        pol_w = rl.sequence_logprob(policy, vocab, pair.context, pair.preferred)
        pol_l = rl.sequence_logprob(policy, vocab, pair.context, pair.rejected)
        return T.scale(rl.dpo_loss(pol_w, pol_l, ref_w.item(), ref_l.item(), beta_dpo),
                       1.0 / size)

    last = float("inf")
    for _ in range(steps):
        batch = [pairs[i] for i in rng.choice(len(pairs), size=size, replace=False)]
        last = opt.minimize(lambda: functools.reduce(T.add, map(term, batch))).item()
    return last


class TestDpoLoss:
    def test_equal_policies_give_ln2(self):
        loss = rl.dpo_loss(-3.0, -5.0, -3.0, -5.0, beta_dpo=0.1)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_monotone_decreasing_in_margin(self):
        values = [rl.dpo_loss(m, -2.0, 0.0, -2.0, 0.1).item()
                  for m in np.linspace(-100, 100, 81)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_gradient_signs(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            w = Tensor(rng.normal(), requires_grad=True)
            lo = Tensor(rng.normal(), requires_grad=True)
            with Tape() as tape:
                loss = rl.dpo_loss(w, lo, rng.normal(), rng.normal(), 0.1)
            tape.backward(loss)
            assert w.grad < 0.0  # raising the preferred log-prob lowers the loss
            assert lo.grad > 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(), requires_grad=True)
        lo = Tensor(rng.normal(), requires_grad=True)
        err = check_gradients(lambda: rl.dpo_loss(w, lo, 0.3, -0.2, 0.1), [w, lo])
        assert err < 1e-6

    def test_invariance_to_shared_shift(self):
        base = rl.dpo_loss(-1.0, -2.0, -0.5, -1.5, 0.1).item()
        shifted = rl.dpo_loss(-1.0 + 7.0, -2.0 + 7.0, -0.5, -1.5, 0.1).item()
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            load_config(overrides={"rl.beta_dpo": "0.0"})
        with pytest.raises(ValueError):
            rl.PreferencePair([], [1], [2])


class TestRecovery:
    def test_lowrank_through_frozen_projection(self, world):
        _, _, _, _, _, codec, _ = world
        tokens = [3, 17, 42]
        digits, hhat = rl.recover_lowrank(codec, tokens)
        expected = codec.proj_up(Tensor(digits.astype(float))).data
        assert np.array_equal(hhat.data, expected)


class TestGumbelSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(5, 7)))
        out = rl.gumbel_softmax_sample(logits, 1.0, rng)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_low_temperature_peaks(self):
        rng = np.random.default_rng(1)
        logits = Tensor(np.array([[8.0, 0.0, -8.0]]))
        peaked = 0
        for _ in range(1000):
            out = rl.gumbel_softmax_sample(logits, 0.01, rng)
            if out.data.max() > 0.999:
                peaked += 1
        assert peaked == 1000

    def test_argmax_frequency_matches_softmax(self):
        rng = np.random.default_rng(2)
        raw = np.array([1.0, 0.0, -0.5, 2.0])
        probs = np.exp(raw) / np.exp(raw).sum()
        counts = np.zeros(4)
        draws = 10000
        logits = Tensor(raw.reshape(1, -1))
        for _ in range(draws):
            out = rl.gumbel_softmax_sample(logits, 1.0, rng)
            counts[np.argmax(out.data)] += 1
        assert np.all(np.abs(counts / draws - probs) < 0.02)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            rl.gumbel_softmax_sample(Tensor(np.zeros(3)), 0.0,
                                     np.random.default_rng(0))

    def test_gradient_flows_to_logits(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        noise_rng = np.random.default_rng(5)
        err = check_gradients(
            lambda: T.mean_all(T.mul(
                rl.gumbel_softmax_sample(logits, 0.7, np.random.default_rng(5)),
                Tensor(np.arange(8.0).reshape(2, 4)))),
            [logits])
        assert err < 1e-4


class TestSoftDecode:
    def test_tau_to_zero_matches_hard_decode(self, world):
        _, _, _, _, _, codec, asr = world
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(6, 81)))
        noise = np.random.default_rng(1)
        u = noise.uniform(size=logits.data.shape)
        g = -np.log(-np.log(u))
        z = logits.data + g
        hard_tokens = z.argmax(axis=1)
        soft = T.softmax(Tensor(z / 1e-5), axis=-1)
        soft_hhat = rl.soft_decode(asr, soft).data
        _, hard_hhat = rl.recover_lowrank(codec, hard_tokens)
        assert np.allclose(soft_hhat, hard_hhat.data, atol=1e-3)

    def test_composite_loss_agreement_at_low_tau(self, world):
        vocab, _, _, pairs, _, codec, asr = world
        text, speech = pairs[0]
        _, hhat = rl.recover_lowrank(codec, speech)
        hard_logits = asr.text_logits_from_hhat(hhat)
        onehot = np.full((len(speech), 81), -1e9)
        onehot[np.arange(len(speech)), speech] = 1e9
        soft = T.softmax(Tensor(onehot / 1.0), axis=-1)
        soft_logits = asr.text_logits_from_hhat(rl.soft_decode(asr, soft))
        targets = [t - vocab.speech_size for t in text]
        hard_nll = T.cross_entropy_ignore(hard_logits, targets,
                                          [False] * len(targets)).item()
        soft_nll = T.cross_entropy_ignore(soft_logits, targets,
                                          [False] * len(targets)).item()
        assert soft_nll == pytest.approx(hard_nll, abs=1e-3)


class TestAsrBackend:
    def test_frozen_contract(self, world):
        *_, asr = world
        fp = asr.fingerprint()
        assert all(not p.requires_grad for p in asr.parameters())
        assert asr.fingerprint() == fp

    def test_zero_gradient_into_frozen_backend(self, world):
        vocab, _, _, pairs, lm, _, asr = world
        text = pairs[0][0]
        with Tape() as tape:
            loss = rl.asr_reward_step(lm, asr, text, 1.0, np.random.default_rng(0))
        tape.backward(loss)
        assert all(p.grad is None for p in asr.parameters())
        assert any(p.grad is not None for p in lm.parameters())

    def test_ground_truth_beats_random_tokens(self, world):
        vocab, _, motifs, pairs, _, _, asr = world
        rng = np.random.default_rng(7)
        gt = uniform = 0.0
        for text, speech in pairs[:8]:
            gt += rl.asr_nll_hard(asr, speech, text)
            random_speech = [int(s) for s in rng.integers(0, 81, len(speech))]
            uniform += rl.asr_nll_hard(asr, random_speech, text)
        assert gt < uniform

    def test_oracle_reward_leq_uniform_at_low_tau(self, world):
        vocab, _, _, pairs, lm, _, asr = world
        text, speech = pairs[0]
        rng = np.random.default_rng(9)
        oracle = rl.asr_reward_step(lm, asr, text, 1e-4, rng, speech=speech)
        random_speech = [int(s) for s in rng.integers(0, 81, len(speech))]
        uniform = rl.asr_reward_step(lm, asr, text, 1e-4, rng, speech=random_speech)
        assert oracle.item() <= uniform.item()

    def test_reward_requires_token_rate(self, world):
        vocab, _, _, pairs, lm, _, asr = world
        with pytest.raises(ValueError):
            rl.asr_reward_step(lm, asr, pairs[0][0], 1.0,
                               np.random.default_rng(0), speech=[1, 2])


class TestGuidedSampling:
    def test_records_nothing_on_an_active_tape(self, world):
        _, _, _, pairs, lm, _, _ = world
        text = pairs[0][0]
        with Tape() as tape:
            speech = rl.sample_speech_guided(lm, text, rl.GROUP * len(text),
                                             np.random.default_rng(0))
        assert tape.nodes == []
        assert len(speech) == rl.GROUP * len(text)
        assert all(lm.vocab.is_speech(tok) for tok in speech)

    def test_matches_row_stable_forward_sampling(self, world):
        _, _, _, pairs, lm, _, _ = world
        text = pairs[1][0]
        speech = rl.sample_speech_guided(lm, text, 9, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        sampler = top_k_sampler(5)
        ids = [lm.vocab.sos, *text, lm.vocab.tos]
        for tok in speech:
            logits = lm.forward(ids, row_stable=True).data[-1][: lm.vocab.speech_size]
            assert sampler(logits, rng) == tok
            ids.append(tok)

    def test_too_short_lm_raises(self, world):
        vocab = world[0]
        lm = ToyLM(vocab, dim=8, n_blocks=1, max_len=8, rng=np.random.default_rng(5))
        text = [vocab.text_id(s) for s in (1, 2, 3)]
        # S, 3 text ids, T, then 4 tokens: the last is sampled from 8 ids
        assert len(rl.sample_speech_guided(lm, text, 4, np.random.default_rng(0))) == 4
        with pytest.raises(ValueError, match="exceeds max_len 8"):
            rl.sample_speech_guided(lm, text, 5, np.random.default_rng(0))


class TestFinetuneLoops:
    def test_preference_pairs_shape(self, world):
        vocab, _, motifs, pairs, lm, _, asr = world
        prefs = rl.make_preference_pairs(lm, asr, [t for t, _ in pairs[:10]],
                                         motifs, np.random.default_rng(11))
        for pref in prefs:
            assert pref.preferred != pref.rejected
            assert all(vocab.is_speech(t) for t in pref.preferred + pref.rejected)

    def test_dpo_improves_training_margin(self, world):
        vocab, _, motifs, pairs, lm, _, asr = world
        policy = trainable_copy(lm)
        prng = np.random.default_rng(12)
        prefs = rl.make_preference_pairs(policy, asr, [t for t, _ in pairs], motifs, prng)
        assert prefs, "sampling produced no distinct candidate pairs"
        before = rl.preference_margin(policy, prefs)
        rl.finetune_dpo(policy, prefs, steps=60, rng=np.random.default_rng(13),
                        beta_dpo=0.1, lr=3e-4)
        after = rl.preference_margin(policy, prefs)
        assert after > before

    def test_dpo_matches_a_frozen_reference_rescored_every_step(self, world, prefs):
        *_, lm, _, _ = world
        old, new = trainable_copy(lm), trainable_copy(lm)
        want = dpo_with_frozen_clone(old, prefs, 5, np.random.default_rng(15), 0.1, 3e-4)
        got = rl.finetune_dpo(new, prefs, 5, np.random.default_rng(15), 0.1, 3e-4)
        assert got == want
        assert param_fingerprint(new.parameters()) == param_fingerprint(old.parameters())

    def test_dpo_scores_each_reference_once(self, world, prefs, monkeypatch):
        *_, lm, _, _ = world
        calls = []
        score = rl.sequence_logprob
        monkeypatch.setattr(rl, "sequence_logprob",
                            lambda *args: calls.append(1) or score(*args))
        steps = 3
        rl.finetune_dpo(trainable_copy(lm), prefs, steps, np.random.default_rng(16))
        assert len(calls) == 2 * len(prefs) + 2 * min(4, len(prefs)) * steps

    def test_no_pairs_is_a_value_error_before_any_work(self, world, monkeypatch):
        *_, lm, _, _ = world
        monkeypatch.setattr(rl, "sequence_logprob", None)  # any scoring would fail
        with pytest.raises(ValueError, match="no preference pairs"):
            rl.finetune_dpo(trainable_copy(lm), [], 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no preference pairs"):
            rl.preference_margin(lm, [])

    def test_asr_finetune_keeps_backend_frozen(self, world):
        vocab, _, _, pairs, lm, _, asr = world
        policy = trainable_copy(lm)
        fp = asr.fingerprint()
        rl.finetune_asr(policy, asr, [t for t, _ in pairs[:6]], steps=5,
                        rng=np.random.default_rng(16))
        assert asr.fingerprint() == fp
