import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsynth.latency import (SimulationError, StageTiming, l_chat_bound,
                                 l_tts, scripted_token_source, simulate)


class TestFormulas:
    def test_zero_timing(self):
        assert l_tts(15, StageTiming()) == 0.0

    def test_worked_example(self):
        timing = StageTiming(d_lm=0.010, d_fm=0.005, d_voc=0.002)
        assert l_tts(15, timing) == pytest.approx(0.255, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(0, 0.05, 3)
            base = l_tts(7, StageTiming(*d))
            assert l_tts(7, StageTiming(*(3.0 * d))) == pytest.approx(3.0 * base,
                                                                      rel=1e-12)

    def test_linearity_in_m(self):
        timing = StageTiming(0.004, 0.003, 0.001)
        assert l_tts(30, timing) == pytest.approx(2 * l_tts(15, timing), rel=1e-12)

    def test_chat_bound_reduces_to_tts(self):
        timing = StageTiming(0.01, 0.005, 0.002, d_llm=0.0)
        assert l_chat_bound(5, 15, timing) == l_tts(15, timing)

    def test_chat_worked_example(self):
        timing = StageTiming(0.010, 0.005, 0.002, d_llm=0.020)
        assert l_chat_bound(5, 15, timing) == pytest.approx(0.355, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            StageTiming(d_lm=-0.1)
        with pytest.raises(ValueError):
            l_tts(0, StageTiming())
        with pytest.raises(ValueError):
            l_chat_bound(0, 5, StageTiming())


class TestSimulator:
    def test_zero_timing_zero_latency(self):
        report = simulate(scripted_token_source(30, 15), StageTiming(), 15)
        assert report.first_package_seconds == 0.0
        assert report.tokens_before_first_package == 15

    def test_matches_formula_within_one_percent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            timing = StageTiming(*rng.uniform(0.001, 0.02, 3))
            report = simulate(scripted_token_source(45, 15), timing, 15)
            expected = l_tts(15, timing)
            assert abs(report.first_package_seconds - expected) <= 0.01 * expected

    def test_simulated_at_least_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            timing = StageTiming(*rng.uniform(0.0, 0.02, 3))
            report = simulate(scripted_token_source(30, 10), timing, 10)
            assert report.first_package_seconds >= l_tts(10, timing) - 1e-9

    def test_chunk_doubling_scales_latency(self):
        timing = StageTiming(0.01, 0.005, 0.002)
        small = simulate(scripted_token_source(60, 15), timing, 15)
        big = simulate(scripted_token_source(60, 30), timing, 30)
        ratio = big.first_package_seconds / small.first_package_seconds
        assert abs(ratio - 2.0) <= 0.05 * 2.0

    def test_chat_bound_never_violated(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            timing = StageTiming(*rng.uniform(0.0, 0.03, 4))
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 30))
            for overlap in (False, True):
                report = simulate(scripted_token_source(3 * m, m), timing, m,
                                  n_text=n, overlap=overlap)
                assert report.first_package_seconds <= l_chat_bound(n, m, timing) + 1e-12

    def test_breakdown_reconciles(self):
        timing = StageTiming(0.004, 0.002, 0.001, 0.005)
        for overlap in (False, True):
            report = simulate(scripted_token_source(20, 10), timing, 10, n_text=4,
                              overlap=overlap)
            assert abs(report.total_breakdown() - report.first_package_seconds) <= 1e-9

    def test_short_final_package(self):
        timing = StageTiming(0.01, 0.0, 0.0)
        report = simulate(scripted_token_source(7, 15), timing, 15)
        assert report.tokens_before_first_package == 7
        assert report.first_package_seconds == pytest.approx(0.07, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(0, 8), max_size=12), m=st.integers(1, 20),
           d=st.tuples(*[st.floats(0.0, 0.05)] * 4))
    def test_first_package_is_first_m_tokens(self, sizes, m, d):
        # any split of the same tokens into chunks gives the report of the
        # M-sized feed, and chunks past the first package are never read
        total = sum(sizes)
        timing = StageTiming(*d)

        def feed():
            start = 0
            for n in sizes:
                assert start < m, "read past the first package"
                yield list(range(start, start + n))
                start += n

        for overlap in (False, True):
            if total == 0:
                with pytest.raises(SimulationError):
                    simulate(feed(), timing, m, n_text=2, overlap=overlap)
                continue
            got = simulate(feed(), timing, m, n_text=2, overlap=overlap)
            want = simulate(scripted_token_source(total, m), timing, m, n_text=2,
                            overlap=overlap)
            assert got == want

    def test_empty_pipeline_is_error(self):
        with pytest.raises(SimulationError):
            simulate(iter([]), StageTiming(), 15)

    def test_overlap_no_slower_than_sequential(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            timing = StageTiming(*rng.uniform(0.001, 0.02, 3))
            seq = simulate(scripted_token_source(30, 10), timing, 10)
            ovl = simulate(scripted_token_source(30, 10), timing, 10, overlap=True)
            assert ovl.first_package_seconds <= seq.first_package_seconds + 1e-12

    def test_real_lm_chunks_feed_simulator(self):
        # the simulator consumes the streaming LM driver output directly
        from streamsynth.seqlm import (InterleaveConfig, Vocabulary,
                                       build_icl_prompt, generate_chunks,
                                       GenerationResult)
        vocab = Vocabulary(speech_size=9, text_size=4)
        cfg = InterleaveConfig(n=2, m=5)

        class Scripted:
            def __init__(self):
                self.toks = iter([1, 2, 3, 4, 5, vocab.filling, 6, 7, vocab.eos])

            def logits_last(self, ids, cache=None):
                logits = np.full(vocab.size, -1e3)
                logits[next(self.toks)] = 1e3
                return logits

        prompt = build_icl_prompt(vocab, [], [vocab.text_id(0)] * 4, [], "stream", cfg)
        chunks = generate_chunks(Scripted(), prompt, vocab, cfg,
                                 _sink=GenerationResult([], [], []))
        timing = StageTiming(0.01, 0.001, 0.001)
        report = simulate(chunks, timing, 5)
        assert report.tokens_before_first_package == 5
        assert report.first_package_seconds == pytest.approx(l_tts(5, timing),
                                                             rel=1e-9)
