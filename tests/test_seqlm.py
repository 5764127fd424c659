import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsynth import cli, nn
from streamsynth import tensor as T
from streamsynth.config import RunConfig
from streamsynth.seqlm import (CacheMismatchError, GenerationResult, InterleaveConfig,
                               LmCache, ParseError, ToyLM, Vocabulary, build_icl_prompt,
                               build_nonstream, build_stream, deinterleave, generate,
                               generate_chunks, greedy_sampler, sequence_loss,
                               top_k_sampler)
from streamsynth.tensor import Tape

VOCAB = Vocabulary(speech_size=10, text_size=6)
CFG = InterleaveConfig(n=5, m=15)


def text_ids(*symbols):
    return [VOCAB.text_id(s) for s in symbols]


class ScriptedLM:
    """Stub model that emits a fixed script, one token per driver query."""

    def __init__(self, vocab, script):
        self.vocab = vocab
        self.script = list(script)
        self.cursor = 0

    def logits_last(self, ids, cache=None):
        logits = np.full(self.vocab.size, -1e3)
        logits[self.script[min(self.cursor, len(self.script) - 1)]] = 1e3
        self.cursor += 1
        return logits


class TestVocabulary:
    def test_layout_disjoint(self):
        v = VOCAB
        cats = [v.category(i) for i in range(v.size)]
        assert cats.count("speech") == 10
        assert cats.count("text") == 6
        assert {cats[v.sos], cats[v.tos], cats[v.eos], cats[v.filling]} == \
            {"sos", "tos", "eos", "filling"}

    def test_out_of_vocab(self):
        with pytest.raises(ValueError):
            VOCAB.category(VOCAB.size)

    def test_interleave_config_validation(self):
        with pytest.raises(ValueError):
            InterleaveConfig(0, 5)


class TestBuildNonstream:
    def test_basic_layout_and_mask(self):
        a, b = text_ids(0, 1)
        seq = build_nonstream(VOCAB, [a, b], [7, 8])
        assert seq.ids == [VOCAB.sos, a, b, VOCAB.tos, 7, 8, VOCAB.eos]
        # scored positions are exactly those predicting 7, 8 and E
        assert seq.loss_mask == [False, False, False, True, True, True, False]
        assert seq.targets[3:6] == [7, 8, VOCAB.eos]

    def test_empty_text(self):
        seq = build_nonstream(VOCAB, [], [3])
        assert seq.ids == [VOCAB.sos, VOCAB.tos, 3, VOCAB.eos]

    def test_turn_token_scoring_toggle(self):
        a = text_ids(2)[0]
        off = build_nonstream(VOCAB, [a], [5])
        pos = 1  # the text position predicting T
        assert off.targets[pos] == VOCAB.tos and not off.loss_mask[pos]


class TestBuildStream:
    def test_text_multiple_of_n_keeps_group_speech(self):
        text = text_ids(0, 1, 2, 3, 4)
        speech = list(range(10)) + list(range(5))
        seq = build_stream(VOCAB, text, speech, CFG)
        assert seq.ids == [VOCAB.sos, *text, *speech, VOCAB.tos, VOCAB.eos]

    def test_short_text_group_goes_straight_to_turn(self):
        text = text_ids(0, 1, 2)
        speech = list(range(9))
        seq = build_stream(VOCAB, text, speech, CFG)
        assert seq.ids == [VOCAB.sos, *text, VOCAB.tos, *speech, VOCAB.eos]

    def test_two_group_layout_with_filling_target(self):
        text = text_ids(0, 1, 2, 3, 4, 5, 0, 1, 2, 3)
        speech = [i % 10 for i in range(30)]
        seq = build_stream(VOCAB, text, speech, CFG)
        expected = [VOCAB.sos, *text[:5], *speech[:15], *text[5:], *speech[15:],
                    VOCAB.tos, VOCAB.eos]
        assert seq.ids == expected
        boundary = 1 + 5 + 15 - 1  # last speech token of the first group
        assert seq.targets[boundary] == VOCAB.filling
        assert seq.loss_mask[boundary]
        assert [i for i, t in enumerate(seq.targets) if t == VOCAB.filling] == [boundary]

    def test_content_preservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            text = text_ids(*rng.integers(0, 6, rng.integers(0, 12)))
            speech = [int(s) for s in rng.integers(0, 10, rng.integers(0, 40))]
            stream = build_stream(VOCAB, text, speech, CFG)
            nonstream = build_nonstream(VOCAB, text, speech)
            assert sorted(stream.ids) == sorted(nonstream.ids)
            fillings = [t for t in stream.targets if t == VOCAB.filling]
            assert len(fillings) == sum(
                1 for i in range(len(stream.ids) - 1)
                if VOCAB.is_speech(stream.ids[i]) and VOCAB.is_text(stream.ids[i + 1]))

    def test_mask_scores_only_speech_filling_eos(self):
        text = text_ids(0, 1, 2, 3, 4, 5, 0)
        speech = [i % 10 for i in range(21)]
        seq = build_stream(VOCAB, text, speech, CFG)
        for tgt, scored in zip(seq.targets, seq.loss_mask):
            if scored:
                assert VOCAB.is_speech(tgt) or tgt in (VOCAB.filling, VOCAB.eos)
            else:
                assert tgt == -1 or not VOCAB.is_speech(tgt)


class TestDeinterleave:
    @given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 60),
           st.integers(0, 120), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, n, m, text_len, speech_len, seed):
        rng = np.random.default_rng(seed)
        cfg = InterleaveConfig(n, m)
        text = text_ids(*rng.integers(0, 6, text_len))
        speech = [int(s) for s in rng.integers(0, 10, speech_len)]
        seq = build_stream(VOCAB, text, speech, cfg)
        assert deinterleave(seq, cfg, VOCAB) == (text, speech)

    def test_empty_input(self):
        assert deinterleave([], CFG, VOCAB) == ([], [])

    def test_stray_token_after_eos(self):
        seq = build_stream(VOCAB, text_ids(0), [1, 2, 3], CFG)
        with pytest.raises(ParseError) as err:
            deinterleave(seq.ids + [4], CFG, VOCAB)
        assert err.value.position == len(seq.ids)

    def test_speech_before_start(self):
        with pytest.raises(ParseError) as err:
            deinterleave([3, VOCAB.sos], CFG, VOCAB)
        assert err.value.position == 0

    def test_filling_never_in_ids(self):
        ids = [VOCAB.sos, VOCAB.filling, VOCAB.tos, VOCAB.eos]
        with pytest.raises(ParseError):
            deinterleave(ids, CFG, VOCAB)

    def test_wrong_group_structure_detected(self):
        # a split text group contradicts n=2 grouping
        t0, t1 = text_ids(0, 1)
        ids = [VOCAB.sos, t0, 1, 2, t1, VOCAB.tos, VOCAB.eos]
        with pytest.raises(ParseError):
            deinterleave(ids, InterleaveConfig(2, 2), VOCAB)


class TestIclPrompts:
    def test_nonstream_layout(self):
        pt, t = text_ids(0, 1), text_ids(2, 3)
        prompt = build_icl_prompt(VOCAB, pt, t, [7, 8], "nonstream", CFG)
        assert prompt.ids == [VOCAB.sos, *pt, *t, VOCAB.tos, 7, 8]
        assert prompt.past_turn and not prompt.streaming

    def test_nonstream_empty_prompt_speech(self):
        pt, t = text_ids(0), text_ids(1)
        prompt = build_icl_prompt(VOCAB, pt, t, [], "nonstream", CFG)
        assert prompt.ids == [VOCAB.sos, *pt, *t, VOCAB.tos]

    def test_sft_nonstream(self):
        t = text_ids(0, 1, 2)
        prompt = build_icl_prompt(VOCAB, [], t, [], "nonstream", CFG)
        assert prompt.ids == [VOCAB.sos, *t, VOCAB.tos]

    def test_sft_stream_first_group_only(self):
        t = text_ids(0, 1, 2, 3, 4, 5, 0)
        prompt = build_icl_prompt(VOCAB, [], t, [], "stream", CFG)
        assert prompt.ids == [VOCAB.sos, *t[:5]]
        assert prompt.text_left == t[5:]
        assert prompt.group_fill == 0 and not prompt.past_turn

    def test_stream_prompt_speech_exhausted_at_boundary(self):
        # ten text tokens against fifteen prompt speech tokens: the second
        # text group lands in the prompt, generation fills its speech group
        full = text_ids(0, 1, 2, 3, 4, 5, 0, 1, 2, 3)
        ps = [i % 10 for i in range(15)]
        prompt = build_icl_prompt(VOCAB, full[:5], full[5:], ps, "stream", CFG)
        assert prompt.ids == [VOCAB.sos, *full[:5], *ps, *full[5:]]
        assert prompt.text_left == [] and prompt.group_fill == 0

    def test_stream_prompt_speech_outlasts_text(self):
        t = text_ids(0, 1)
        ps = [1, 2, 3, 4]
        prompt = build_icl_prompt(VOCAB, [], t, ps, "stream", CFG)
        assert prompt.ids == [VOCAB.sos, *t, VOCAB.tos, *ps]
        assert prompt.past_turn

    def test_stream_prompt_speech_partial_group(self):
        full = text_ids(0, 1, 2, 3, 4)
        ps = [1, 2, 3]
        prompt = build_icl_prompt(VOCAB, [], full, ps, "stream", CFG)
        assert prompt.ids == [VOCAB.sos, *full, *ps]
        assert prompt.group_fill == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_icl_prompt(VOCAB, [], [], [], "batch", CFG)


class TestDriver:
    def test_immediate_eos_gives_empty_output(self):
        model = ScriptedLM(VOCAB, [VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text_ids(0, 1), [], "nonstream", CFG)
        result = generate(model, prompt, VOCAB, CFG)
        assert result.speech == [] and result.chunks == []
        assert not result.truncated and not result.flags

    def test_stream_protocol_with_filling(self):
        cfg = InterleaveConfig(n=2, m=3)
        text = text_ids(0, 1, 2, 3)
        script = [4, 5, 6, VOCAB.filling, 7, 8, 9, VOCAB.eos]
        model = ScriptedLM(VOCAB, script)
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.speech == [4, 5, 6, 7, 8, 9]
        assert result.chunks == [[4, 5, 6], [7, 8, 9]]
        # after group 2 text is exhausted; driver added T itself, then E
        assert result.ids == [VOCAB.sos, *text[:2], 4, 5, 6, *text[2:], 7, 8, 9,
                              VOCAB.tos, VOCAB.eos]
        assert not result.flags

    def test_driver_pads_even_without_filling(self):
        cfg = InterleaveConfig(n=2, m=2)
        text = text_ids(0, 1, 2, 3)
        # model never says FILLING at the boundary; driver flags and pads anyway
        script = [4, 5, 6, 7, 8, VOCAB.eos]
        model = ScriptedLM(VOCAB, script)
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert "missing-filling" in result.flags
        assert result.speech == [4, 5, 7, 8]  # the boundary prediction is dropped

    def test_short_final_text_group_followed_by_turn(self):
        cfg = InterleaveConfig(n=2, m=2)
        text = text_ids(0, 1, 2)  # second group is short
        script = [4, 5, VOCAB.filling, 6, 7, VOCAB.eos]
        model = ScriptedLM(VOCAB, script)
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.ids == [VOCAB.sos, *text[:2], 4, 5, *text[2:], VOCAB.tos,
                              6, 7, VOCAB.eos]

    def test_filling_with_no_text_left_is_flagged(self):
        cfg = InterleaveConfig(n=2, m=3)
        text = text_ids(0, 1)
        model = ScriptedLM(VOCAB, [4, VOCAB.filling, 5, VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.flags == ["filling-with-no-text"]
        assert result.ids == [VOCAB.sos, *text, 4, VOCAB.tos, 5, VOCAB.eos]

    def test_full_group_after_last_text_gets_turn_without_probe(self):
        cfg = InterleaveConfig(n=2, m=3)
        text = text_ids(0, 1)
        script = [4, 5, 6, 7, VOCAB.eos]
        model = ScriptedLM(VOCAB, script)
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.ids == [VOCAB.sos, *text, 4, 5, 6, VOCAB.tos, 7, VOCAB.eos]
        assert model.cursor == len(script)  # one query per generated token
        assert not result.flags

    def test_eos_with_text_left_is_flagged(self):
        cfg = InterleaveConfig(n=2, m=3)
        text = text_ids(0, 1, 2, 3)
        model = ScriptedLM(VOCAB, [4, VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.flags == ["eos-with-text-left"]
        assert not result.truncated
        assert result.ids == [VOCAB.sos, *text[:2], 4, VOCAB.eos]

    def test_stray_special_token_breaks_protocol(self):
        cfg = InterleaveConfig(n=2, m=3)
        text = text_ids(0, 1)
        model = ScriptedLM(VOCAB, [4, VOCAB.sos, 5, VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text, [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert result.flags == ["protocol-break:sos"]
        assert result.ids == [VOCAB.sos, *text, 4]
        assert result.speech == [4] and result.chunks == [[4]]

    def test_first_chunk_is_min_m_total(self):
        cfg = InterleaveConfig(n=5, m=4)
        model = ScriptedLM(VOCAB, [1, 2, VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text_ids(0), [], "stream", cfg)
        result = generate(model, prompt, VOCAB, cfg)
        assert [len(c) for c in result.chunks] == [2]

    def test_truncation_flag(self):
        model = ScriptedLM(VOCAB, [3])  # speech forever, never E
        prompt = build_icl_prompt(VOCAB, [], text_ids(0), [], "nonstream", CFG)
        result = generate(model, prompt, VOCAB, CFG, max_len=10)
        assert result.truncated and "length-budget" in result.flags

    def test_default_budget_capped_by_model_max_len(self):
        # the default budget, 4 * (3 * 10 + 16) ids, exceeds what the model scores
        model = ToyLM(VOCAB, dim=8, n_blocks=1, max_len=40,
                      rng=np.random.default_rng(0))
        prompt = build_icl_prompt(VOCAB, [], text_ids(*(i % 6 for i in range(10))), [],
                                  "stream", CFG)
        result = generate(model, prompt, VOCAB, CFG, sampler=lambda logits, rng: 3)
        assert result.truncated and "length-budget" in result.flags

    def test_chunk_iterator_matches_result(self):
        cfg = InterleaveConfig(n=2, m=3)
        model = ScriptedLM(VOCAB, [1, 2, 3, 4, VOCAB.eos])
        prompt = build_icl_prompt(VOCAB, [], text_ids(0, 1), [], "stream", cfg)
        sink = GenerationResult([], [], [])
        chunks, calls = [], []
        for chunk in generate_chunks(model, prompt, VOCAB, cfg, _sink=sink):
            chunks.append(chunk)
            calls.append(model.cursor)
        # one token per yield, each before the driver's next model call;
        # the sink still collects packages of M
        assert chunks == [[1], [2], [3], [4]]
        assert calls == [1, 2, 3, 4]
        assert sink.chunks == [[1, 2, 3], [4]]
        assert sink.speech == [1, 2, 3, 4]


class TestToyLM:
    def test_untrained_loss_is_uniform(self):
        vocab = Vocabulary(speech_size=7, text_size=3)
        model = ToyLM(vocab, dim=16, n_blocks=1, rng=np.random.default_rng(0))
        seq = build_nonstream(vocab, [vocab.text_id(0)], [1, 2])
        loss = sequence_loss(model, [seq])
        assert loss.item() == pytest.approx(np.log(vocab.size), rel=1e-12)

    def test_causality_bit_invariance(self):
        vocab = Vocabulary(speech_size=7, text_size=3)
        model = ToyLM(vocab, dim=16, n_blocks=2, rng=np.random.default_rng(1))
        # give the zero-initialized head real weights so logits vary
        model.head.w.data = np.random.default_rng(2).normal(0, 0.3,
                                                            model.head.w.data.shape)
        ids = [vocab.sos, vocab.text_id(0), vocab.tos, 1, 2, 3]
        changed = list(ids)
        changed[4] = 5
        base = model.forward(ids).data
        poked = model.forward(changed).data
        assert np.array_equal(base[:4], poked[:4])
        assert not np.array_equal(base[4:], poked[4:])

    def test_loss_mask_blocks_gradient(self):
        vocab = Vocabulary(speech_size=7, text_size=3)
        model = ToyLM(vocab, dim=16, n_blocks=1, rng=np.random.default_rng(3))
        seq = build_nonstream(vocab, [vocab.text_id(1), vocab.text_id(2)], [4, 5])
        logits = model.forward(seq.ids)
        grad_probe = T.Tensor(logits.data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_ignore(grad_probe, seq.targets,
                                          [not m for m in seq.loss_mask])
        tape.backward(loss)
        for i, scored in enumerate(seq.loss_mask):
            if not scored:
                assert np.array_equal(grad_probe.grad[i], np.zeros(vocab.size))

    def test_max_len_guard(self):
        vocab = Vocabulary(speech_size=4, text_size=2)
        model = ToyLM(vocab, dim=8, n_blocks=1, max_len=4,
                      rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            model.forward([vocab.sos] * 5)

    def test_top_k_sampler_seeded(self):
        logits = np.array([0.1, 2.0, 1.5, -1.0])
        sampler = top_k_sampler(k=2, temperature=1.0)
        draws1 = [sampler(logits, np.random.default_rng(9)) for _ in range(5)]
        draws2 = [sampler(logits, np.random.default_rng(9)) for _ in range(5)]
        assert draws1 == draws2
        assert set(draws1) <= {1, 2}
        assert greedy_sampler(logits, np.random.default_rng(0)) == 1


def _varied_lm(max_len: int = 64, n_blocks: int = 2) -> ToyLM:
    """A ToyLM whose head is not zero, so its logits differ from row to row."""
    model = ToyLM(VOCAB, dim=16, n_blocks=n_blocks, max_len=max_len,
                  rng=np.random.default_rng(7))
    model.head.w.data = np.random.default_rng(8).normal(0, 0.3, model.head.w.data.shape)
    return model


CACHED_LM = _varied_lm()

# one decoding step: 1-7 arbitrary ids, or a text group closed by turn-of-speech
_any_step = st.lists(st.integers(0, VOCAB.size - 1), min_size=1, max_size=7)
_text_then_turn = st.lists(st.integers(0, VOCAB.text_size - 1), min_size=1,
                           max_size=6).map(lambda s: text_ids(*s) + [VOCAB.tos])


class TestLmCache:
    @given(st.lists(st.one_of(_any_step, _text_then_turn), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_cached_logits_equal_row_stable_forward(self, steps):
        cache = LmCache()
        ids: list[int] = []
        for step in steps:
            ids.extend(step)
            got = CACHED_LM.logits_last(ids, cache)
            want = CACHED_LM.forward(ids, row_stable=True).data[-1]
            assert got.tobytes() == want.tobytes()
        assert cache.ids == ids
        assert all(k.shape == v.shape == (len(ids), 16) for k, v in cache.kv)

    def test_each_position_runs_through_each_block_once(self, monkeypatch):
        rows = []
        call = nn.TransformerBlock.__call__

        def counted(block, x, *args, **kwargs):
            rows.append(x.data.shape[0])
            return call(block, x, *args, **kwargs)

        monkeypatch.setattr(nn.TransformerBlock, "__call__", counted)
        model = _varied_lm()
        model.head.b.data[3] = 50.0  # greedy decoding emits speech token 3 throughout
        prompt = build_icl_prompt(VOCAB, [], text_ids(0, 1, 2), [], "nonstream", CFG)
        result = generate(model, prompt, VOCAB, CFG, max_len=40)
        assert result.speech == [3] * 40
        # every id but the last generated one is fed once to each block;
        # a whole-prefix rerun per token would push about 20 times as many rows
        assert sum(rows) == len(model.blocks) * (len(result.ids) - 1)

    def test_non_extending_ids_rejected(self):
        cache = LmCache()
        CACHED_LM.logits_last([VOCAB.sos, 1, 2], cache)
        with pytest.raises(CacheMismatchError):
            CACHED_LM.logits_last([VOCAB.sos, 4, 2, 5], cache)
        with pytest.raises(CacheMismatchError):
            CACHED_LM.logits_last([VOCAB.sos, 1, 2], cache)
        with pytest.raises(CacheMismatchError):
            CACHED_LM.logits_last([], LmCache())
        assert cache.ids == [VOCAB.sos, 1, 2]
        ids = [VOCAB.sos, 1, 2, 5]
        assert CACHED_LM.logits_last(ids, cache).tobytes() \
            == CACHED_LM.forward(ids, row_stable=True).data[-1].tobytes()

    def test_decodes_up_to_max_len(self):
        model = _varied_lm(max_len=12, n_blocks=1)
        cache = LmCache()
        ids = [VOCAB.sos]
        while len(ids) < 12:
            ids.append(int(np.argmax(model.logits_last(ids, cache))))
        assert model.logits_last(ids, cache).tobytes() \
            == model.forward(ids, row_stable=True).data[-1].tobytes()
        with pytest.raises(ValueError, match="exceeds max_len 12"):
            model.logits_last(ids + [1], cache)
        assert cache.length == 12


def test_lm_sft_backward_frees_what_it_has_passed():
    # One default-size LM SFT step over 16 default-corpus sequences. Backward
    # frees each sequence's [L, V] logits gradient and its closures once it
    # has passed them, so its peak stays near what the forward retained:
    # 7.0 MB above it, where a tape that keeps every node until the end
    # peaks 32.2 MB above it.
    cfg = RunConfig()
    vocab, _, pairs = cli._corpus_assets(cfg)
    seqs = cli._train_sequences(cfg, vocab, pairs)
    lm = ToyLM(**cli._lm_shape(cfg), rng=np.random.default_rng(0))
    rng = np.random.default_rng(0)
    batch = [seqs[i] for i in rng.choice(len(seqs), cfg.seqlm.batch_size, replace=False)]
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = sequence_loss(lm, batch)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        above = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    assert above < 15 * 2**20, f"backward peaked {above / 2**20:.1f} MB above the forward"
