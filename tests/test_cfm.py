import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsynth import cfm, seqlm
from streamsynth import tensor as T
from streamsynth.cfm import (CfmConfig, CfmModel, ConditionSet, FeatureSeq, MaskKind,
                             MaskSpec, build_mask, cfg_field, cosine_schedule,
                             energy_distance, ot_path, sample, stream_generate,
                             target_field, training_step)
from streamsynth.nn import TransformerBlock
from streamsynth.tensor import Tape, Tensor

SMALL = CfmConfig(n_features=4, token_vocab=40, token_embed=6, hidden=10,
                  speaker_dim=4, lookahead=2)


def small_model(seed=0):
    return CfmModel(SMALL, np.random.default_rng(seed))


STREAM_MODEL = small_model(seed=4)


def conditions(rng, n_tokens, ref_len=4):
    return ConditionSet(rng.normal(size=SMALL.speaker_dim),
                        [int(t) for t in rng.integers(0, SMALL.token_vocab, n_tokens)],
                        FeatureSeq(rng.normal(size=(ref_len, SMALL.n_features))))


class TestPathAndField:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0 = FeatureSeq(rng.normal(size=(5, 3)))
        x1 = FeatureSeq(rng.normal(size=(5, 3)))
        assert np.array_equal(ot_path(x0, x1, 0.0).frames, x0.frames)
        assert np.array_equal(ot_path(x0, x1, 1.0).frames, x1.frames)

    def test_equal_endpoints_constant(self):
        rng = np.random.default_rng(1)
        x = FeatureSeq(rng.normal(size=(4, 2)))
        assert np.allclose(ot_path(x, x, 0.3).frames, x.frames, atol=1e-15)
        assert np.array_equal(target_field(x, x).frames, np.zeros((4, 2)))

    def test_midpoint_is_mean(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        mid = ot_path(FeatureSeq(a), FeatureSeq(b), 0.5).frames
        assert np.allclose(mid, (a + b) / 2.0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            ot_path(FeatureSeq(np.zeros((2, 2))), FeatureSeq(np.zeros((3, 2))), 0.5)

    def test_time_out_of_range(self):
        x = FeatureSeq(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ot_path(x, x, 1.5)


class TestCosineSchedule:
    def test_endpoints_exact(self):
        assert cosine_schedule(0.0) == 0.0
        assert cosine_schedule(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_closed_form(self):
        assert cosine_schedule(0.5) == pytest.approx(1.0 - math.cos(math.pi / 4),
                                                     abs=1e-12)

    def test_strictly_monotone_grid(self):
        grid = [cosine_schedule(i / 999) for i in range(1000)]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_bijection_bounds(self):
        grid = [cosine_schedule(i / 999) for i in range(1000)]
        assert min(grid) == 0.0 and max(grid) == pytest.approx(1.0, abs=1e-15)

    def test_range_error(self):
        with pytest.raises(ValueError):
            cosine_schedule(-0.1)
        with pytest.raises(ValueError):
            cosine_schedule(1.1)


class TestMasks:
    def test_length_one_all_kinds(self):
        for kind in MaskKind:
            assert build_mask(MaskSpec(kind, chunk=4), 1).tolist() == [[True]]

    def test_full_causal_lower_triangular(self):
        mask = build_mask(MaskSpec(MaskKind.FULL_CAUSAL), 3)
        assert np.array_equal(mask, np.tril(np.ones((3, 3), dtype=bool)))

    def test_chunk_rows(self):
        mask = build_mask(MaskSpec(MaskKind.CHUNK, chunk=2), 4)
        assert mask[0].tolist() == [True, True, False, False]
        assert mask[2].tolist() == [True, True, True, True]

    def test_chunk2_rows(self):
        mask = build_mask(MaskSpec(MaskKind.CHUNK2, chunk=2), 6)
        assert mask[0].tolist() == [True] * 4 + [False] * 2
        assert mask[4].tolist() == [True] * 6

    def test_nesting_chain(self):
        for length in range(1, 65):
            causal = build_mask(MaskSpec(MaskKind.FULL_CAUSAL, chunk=5), length)
            chunk = build_mask(MaskSpec(MaskKind.CHUNK, chunk=5), length)
            chunk2 = build_mask(MaskSpec(MaskKind.CHUNK2, chunk=5), length)
            full = build_mask(MaskSpec(MaskKind.NON_CAUSAL), length)
            assert not (causal & ~chunk).any()
            assert not (chunk & ~chunk2).any()
            assert not (chunk2 & ~full).any()

    def test_rows_from_start_are_rows_of_the_square(self):
        for kind in MaskKind:
            for length in range(1, 20):
                square = build_mask(MaskSpec(kind, chunk=3), length)
                for start in range(length):
                    rows = build_mask(MaskSpec(kind, chunk=3), length, start)
                    assert np.array_equal(rows, square[start:])
        with pytest.raises(ValueError):
            build_mask(MaskSpec(MaskKind.CHUNK, chunk=3), 4, 4)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            MaskSpec(MaskKind.CHUNK, chunk=0)
        with pytest.raises(ValueError):
            build_mask(MaskSpec(MaskKind.CHUNK), 0)


class TestCfgField:
    def test_beta_zero_is_conditional(self):
        rng = np.random.default_rng(0)
        model = small_model()
        cond = conditions(rng, 3)
        mask = build_mask(MaskSpec(MaskKind.NON_CAUSAL), 6)
        state = Tensor(rng.normal(size=(6, SMALL.n_features)))
        direct = model.field(state, 0.4, cond, mask)
        guided = cfg_field(model, state, 0.4, cond, 0.0, mask)
        assert np.array_equal(direct.data, guided.data)

    def test_hardwired_fields_combine(self):
        class Wired:
            config = SMALL

            def field(self, state, t, cond, mask, unconditional=False, kv=None,
                      columns=None):
                # one call for both passes: conditional rows over unconditional ones
                assert len(columns) == 6 and mask.shape == (6, 6)
                return Tensor(np.concatenate([np.ones(state.data.shape),
                                              np.zeros(state.data.shape)]))

        state = Tensor(np.zeros((3, SMALL.n_features)))
        feats = Tensor(np.zeros((3, SMALL.hidden + SMALL.token_embed)))
        out = cfg_field(Wired(), state, 0.1, conditions(np.random.default_rng(0), 2), 0.7,
                        np.ones((3, 3), dtype=bool), token_feats=feats)
        assert np.allclose(out.data, 1.7, atol=1e-15)

    def test_affine_identity_in_beta(self):
        rng = np.random.default_rng(1)
        model = small_model()
        cond = conditions(rng, 4)
        mask = build_mask(MaskSpec(MaskKind.CHUNK, chunk=4), 8)
        state = Tensor(rng.normal(size=(8, SMALL.n_features)))
        outs = {b: cfg_field(model, state, 0.3, cond, b, mask).data for b in (0, 1, 2)}
        assert np.allclose(outs[2], 2 * outs[1] - outs[0], atol=1e-12)

    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf])
    def test_beta_outside_finite_nonnegative_rejected(self, beta):
        model = small_model()
        with pytest.raises(ValueError, match="guidance strength"):
            cfg_field(model, Tensor(np.zeros((2, 4))), 0.1, None, beta, None)

    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf])
    def test_samplers_reject_beta_before_estimator_work(self, beta, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("estimator work ran before the beta check")

        monkeypatch.setattr(CfmModel, "field", no_work)
        monkeypatch.setattr(CfmModel, "token_conditions", no_work)
        cond = conditions(np.random.default_rng(4), 3)
        with pytest.raises(ValueError, match="guidance strength"):
            sample(STREAM_MODEL, cond, 6, beta=beta)
        with pytest.raises(ValueError, match="guidance strength"):
            next(stream_generate(STREAM_MODEL, [cond.tokens], cond.v, cond.masked_ref,
                                 beta=beta, spec=MaskSpec(MaskKind.CHUNK, chunk=2)))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(MaskKind)), chunk=st.integers(1, 8),
           beta=st.sampled_from([0.7, 1.0, 2.0]), nfe=st.integers(1, 3),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
           ref_len=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_one_call_equals_two_calls(self, kind, chunk, beta, nfe, sizes, ref_len, seed):
        # the reference: each Euler step makes a conditional and an
        # unconditional field call and combines them
        rng = np.random.default_rng(seed)
        model = STREAM_MODEL
        spec = MaskSpec(kind, chunk=chunk)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, sum(sizes))]
        cond = ConditionSet(rng.normal(size=SMALL.speaker_dim), tokens,
                            FeatureSeq(rng.normal(size=(ref_len, SMALL.n_features))))
        length = cfm.UPSAMPLE * len(tokens)
        mask = build_mask(spec, length)
        x = cfm._frame_noise(seed, 0, length, SMALL.n_features)
        grid = [cosine_schedule(k / nfe) for k in range(nfe + 1)]
        for k in range(nfe):
            state = Tensor(x)
            vel = T.sub(T.scale(model.field(state, grid[k], cond, mask), 1.0 + beta),
                        T.scale(model.field(state, grid[k], cond, mask, unconditional=True),
                                beta))
            if k == 0:
                guided = cfg_field(model, state, grid[k], cond, beta, mask)
                assert guided.data.tobytes() == vel.data.tobytes()
            x = x + (grid[k + 1] - grid[k]) * vel.data
        offline = sample(model, cond, length, nfe=nfe, beta=beta, spec=spec, seed=seed)
        assert offline.frames.tobytes() == x.tobytes()
        if kind in (MaskKind.FULL_CAUSAL, MaskKind.CHUNK):
            ends = np.cumsum(sizes)
            parts = stream_generate(model, (tokens[e - n : e] for n, e in zip(sizes, ends)),
                                    cond.v, cond.masked_ref, nfe=nfe, beta=beta,
                                    spec=spec, seed=seed)
            assert np.concatenate([p.frames for p in parts]).tobytes() == x.tobytes()


def oracle_model(monkeypatch, field):
    """A small model whose estimator returns the constant ``field``."""
    model = small_model()
    monkeypatch.setattr(model, "field", lambda *args, **kwargs: Tensor(field))
    return model


class TestTrainingStep:
    def test_oracle_estimator_zero_loss(self, monkeypatch):
        rng = np.random.default_rng(0)
        x1 = FeatureSeq(rng.normal(size=(6, SMALL.n_features)))
        probe = np.random.default_rng(42)
        t = float(probe.uniform())
        x0 = probe.standard_normal(x1.frames.shape)
        # replay the same rng stream inside training_step via a fresh twin
        model = oracle_model(monkeypatch, x1.frames - x0)
        loss = training_step(model, x1, np.zeros(SMALL.speaker_dim), [1] * 3,
                             np.random.default_rng(42))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_oracle_estimator_zero_param_gradients(self, monkeypatch):
        rng = np.random.default_rng(1)
        x1 = FeatureSeq(rng.normal(size=(4, SMALL.n_features)))
        x0 = np.random.default_rng(7).standard_normal(x1.frames.shape)
        model = oracle_model(monkeypatch, x1.frames - x0)
        params = model.parameters()
        with Tape() as tape:
            loss = training_step(model, x1, np.zeros(SMALL.speaker_dim), [2, 3],
                                 np.random.default_rng(7))
        # a constant-oracle loss never touches the model, so nothing records
        assert not loss.requires_grad and tape.nodes == []
        assert all(p.grad is None for p in params)

    def test_full_mask_fraction_zeroes_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            flags = cfm._mask_fractions(rng, 10)
            assert 7 <= flags.sum() <= 10
            assert flags[-flags.sum():].all() if flags.sum() else True

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_halves_on_toy_dataset(self, seed):
        from streamsynth.dataio import features_for_tokens
        from streamsynth.nn import Adam

        rng = np.random.default_rng(20 + seed)
        model = small_model(seed=seed)
        opt = Adam(model.parameters(), lr=4e-3)
        v = rng.normal(size=SMALL.speaker_dim)
        data = []
        for _ in range(6):
            tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 4)]
            data.append((tokens, features_for_tokens(tokens, v, SMALL.n_features, rng)))
        losses = []
        for step in range(1400):
            opt.zero_grad()
            with Tape() as tape:
                loss = None
                for _ in range(4):
                    tokens, feats = data[int(rng.integers(len(data)))]
                    term = T.scale(training_step(model, feats, v, tokens, rng), 0.25)
                    loss = term if loss is None else T.add(loss, term)
            tape.backward(loss)
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:20])

    def test_masked_reference_frames_have_no_influence(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(8)
        tokens = [0, 1, 2]
        length = 6
        ref = rng.normal(size=(length, SMALL.n_features))
        flags = np.zeros(length, dtype=bool)
        flags[3:] = True
        masked = ref.copy()
        masked[flags] = 0.0
        cond = ConditionSet(np.zeros(SMALL.speaker_dim), tokens,
                            FeatureSeq(masked), flags)
        mask = build_mask(MaskSpec(MaskKind.NON_CAUSAL), length)
        state = Tensor(rng.normal(size=(length, SMALL.n_features)))
        out1 = model.field(state, 0.5, cond, mask).data
        # a different original suffix masks to the same conditions
        other = ref.copy()
        other[flags] = 99.0
        other[flags] = 0.0
        cond2 = ConditionSet(np.zeros(SMALL.speaker_dim), tokens,
                             FeatureSeq(other), flags)
        out2 = model.field(state, 0.5, cond2, mask).data
        assert np.array_equal(out1, out2)

    def test_condition_set_validates_masked_zeros(self):
        flags = np.array([False, True])
        with pytest.raises(ValueError):
            ConditionSet(np.zeros(2), [1], FeatureSeq(np.ones((2, 3))), flags)


class TestSampling:
    def test_constant_field_telescopes(self):
        class Wired:
            config = SMALL

            def token_conditions(self, tokens, mask, kv=None):
                return Tensor(np.zeros((2 * len(tokens), SMALL.hidden)))

            def field(self, state, t, cond, mask, unconditional=False, kv=None,
                      columns=None):
                return Tensor(np.full(state.data.shape, 2.5))

        rng = np.random.default_rng(0)
        cond = conditions(rng, 3)
        out = sample(Wired(), cond, 6, nfe=10, beta=0.0, seed=11)
        x0 = cfm._frame_noise(11, 0, 6, SMALL.n_features)
        assert np.allclose(out.frames, x0 + 2.5, atol=1e-12)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(1)
        model = small_model()
        cond = conditions(rng, 4)
        a = sample(model, cond, 8, nfe=4, seed=3)
        b = sample(model, cond, 8, nfe=4, seed=3)
        assert np.array_equal(a.frames, b.frames)
        c = sample(model, cond, 8, nfe=4, seed=4)
        assert not np.array_equal(a.frames, c.frames)

    def test_length_must_match_tokens(self):
        rng = np.random.default_rng(2)
        model = small_model()
        with pytest.raises(T.DimensionError):
            sample(model, conditions(rng, 3), 5)

    def test_nfe_validation(self):
        rng = np.random.default_rng(3)
        model = small_model()
        with pytest.raises(ValueError):
            sample(model, conditions(rng, 2), 4, nfe=0)


class TestStreaming:
    @pytest.mark.parametrize("kind", [MaskKind.FULL_CAUSAL, MaskKind.CHUNK])
    def test_stream_equals_offline(self, kind):
        rng = np.random.default_rng(10)
        model = small_model(seed=4)
        spec = MaskSpec(kind, chunk=6)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 12)]
        v = rng.normal(size=SMALL.speaker_dim)
        ref = FeatureSeq(rng.normal(size=(5, SMALL.n_features)))
        cond = ConditionSet(v, tokens, ref)
        offline = sample(model, cond, 24, nfe=3, beta=0.7, spec=spec, seed=9)
        chunks = [tokens[0:3], tokens[3:6], tokens[6:9], tokens[9:12]]
        parts = list(stream_generate(model, iter(chunks), v, ref, nfe=3, beta=0.7,
                                     spec=spec, seed=9))
        got = np.concatenate([p.frames for p in parts], axis=0)
        assert got.shape == offline.frames.shape
        assert np.array_equal(got, offline.frames)

    def test_single_chunk_degenerate(self):
        rng = np.random.default_rng(11)
        model = small_model(seed=5)
        spec = MaskSpec(MaskKind.FULL_CAUSAL)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 5)]
        v = rng.normal(size=SMALL.speaker_dim)
        ref = FeatureSeq(np.zeros((0, SMALL.n_features)))
        cond = ConditionSet(v, tokens, ref)
        offline = sample(model, cond, 10, nfe=2, beta=0.0, spec=spec, seed=1)
        parts = list(stream_generate(model, [tokens], v, ref, nfe=2, beta=0.0,
                                     spec=spec, seed=1))
        got = np.concatenate([p.frames for p in parts], axis=0)
        assert np.array_equal(got, offline.frames)

    def test_noncausal_rejected(self):
        # CHUNK2 widens by a chunk at every block and Euler step, so it is
        # rejected like NON_CAUSAL
        model = small_model()
        for kind in (MaskKind.NON_CAUSAL, MaskKind.CHUNK2):
            with pytest.raises(cfm.StreamingMaskError, match=kind.value):
                list(stream_generate(model, [[1]], np.zeros(SMALL.speaker_dim),
                                     FeatureSeq(np.zeros((0, SMALL.n_features))),
                                     spec=MaskSpec(kind)))

    def test_locality_window_with_lookahead(self):
        # perturbing tokens beyond the chunk window plus look-ahead leaves
        # determined frames bit-identical
        rng = np.random.default_rng(12)
        model = small_model(seed=6)
        spec = MaskSpec(MaskKind.CHUNK, chunk=4)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 10)]
        v = rng.normal(size=SMALL.speaker_dim)
        ref = FeatureSeq(np.zeros((0, SMALL.n_features)))
        base = sample(model, ConditionSet(v, tokens, ref), 20, nfe=2, beta=0.0,
                      spec=spec, seed=2).frames
        # frame 0 lives in chunk 0: window ends at frame 3 -> token 1, plus
        # look-ahead 2 -> tokens through index 3 matter, later ones must not
        poked = list(tokens)
        poked[6] = (poked[6] + 7) % SMALL.token_vocab
        out = sample(model, ConditionSet(v, poked, ref), 20, nfe=2, beta=0.0,
                     spec=spec, seed=2).frames
        assert np.array_equal(base[:4], out[:4])
        assert not np.array_equal(base, out)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from([MaskKind.FULL_CAUSAL, MaskKind.CHUNK]),
           chunk=st.integers(1, 12), beta=st.sampled_from([0.0, 0.7]),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
           ref_len=st.integers(0, 40), seed=st.integers(0, 2**16))
    def test_stream_bit_equals_sample(self, kind, chunk, beta, sizes, ref_len, seed):
        rng = np.random.default_rng(seed)
        model = STREAM_MODEL
        spec = MaskSpec(kind, chunk=chunk)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, sum(sizes))]
        v = rng.normal(size=SMALL.speaker_dim)
        ref = FeatureSeq(rng.normal(size=(ref_len, SMALL.n_features)))
        offline = sample(model, ConditionSet(v, tokens, ref), 2 * len(tokens), nfe=2,
                         beta=beta, spec=spec, seed=seed)
        ends = np.cumsum(sizes)
        chunks = [tokens[e - n : e] for n, e in zip(sizes, ends)]
        parts = list(stream_generate(model, iter(chunks), v, ref, nfe=2, beta=beta,
                                     spec=spec, seed=seed))
        got = np.concatenate([p.frames for p in parts], axis=0)
        assert got.shape == offline.frames.shape
        assert (got.view(np.uint64) == offline.frames.view(np.uint64)).all()

    @pytest.mark.parametrize("chunk", [3, 4, 7])
    def test_full_causal_token_feed_packages_whole_chunks(self, chunk):
        # one token at a time: packages end on mask-chunk boundaries, not
        # at every token, and still equal the one-shot sampler
        rng = np.random.default_rng(14)
        model = STREAM_MODEL
        spec = MaskSpec(MaskKind.FULL_CAUSAL, chunk=chunk)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 13)]
        v = rng.normal(size=SMALL.speaker_dim)
        ref = FeatureSeq(np.zeros((0, SMALL.n_features)))
        parts = list(stream_generate(model, ([t] for t in tokens), v, ref, nfe=2,
                                     beta=0.7, spec=spec, seed=3))
        assert [len(p) for p in parts[:-1]] == [chunk] * (len(parts) - 1)
        offline = sample(model, ConditionSet(v, tokens, ref), 26, nfe=2, beta=0.7,
                         spec=spec, seed=3)
        got = np.concatenate([p.frames for p in parts], axis=0)
        assert (got.view(np.uint64) == offline.frames.view(np.uint64)).all()

    def test_first_package_after_m_plus_p_tokens(self):
        # the real LM driver feeds the CFM: under CHUNK with 2M-frame chunks
        # the first package needs the M tokens of its chunk plus P look-ahead
        icfg = seqlm.InterleaveConfig(n=2, m=4)
        vocab = seqlm.Vocabulary(speech_size=SMALL.token_vocab, text_size=3)

        class CountingLM:
            calls = 0

            def logits_last(self, ids, cache=None):
                logits = np.full(vocab.size, -1e3)
                logits[vocab.eos if self.calls == 20 else 1 + self.calls % 30] = 1e3
                self.calls += 1
                return logits

        lm = CountingLM()
        prompt = seqlm.build_icl_prompt(vocab, [], [vocab.text_id(0)], [], "stream", icfg)
        spec = MaskSpec(MaskKind.CHUNK, chunk=2 * icfg.m)
        packages = stream_generate(STREAM_MODEL,
                                   seqlm.generate_chunks(lm, prompt, vocab, icfg),
                                   np.zeros(SMALL.speaker_dim),
                                   FeatureSeq(np.zeros((0, SMALL.n_features))),
                                   nfe=2, spec=spec)
        first = next(packages)
        assert len(first) == spec.chunk
        assert lm.calls == icfg.m + SMALL.lookahead

    def test_each_package_integrates_new_rows_only(self, monkeypatch):
        # one 3-token chunk per package: every frame is integrated exactly
        # once, by the package that completes it
        config = CfmConfig(n_features=4, token_vocab=40, token_embed=6, hidden=10,
                           speaker_dim=4, lookahead=2, n_align_blocks=0)
        model = CfmModel(config, np.random.default_rng(3))
        rows = []
        attention = T.masked_attention

        def counting(q, k, v, mask):
            rows.append(q.data.shape[0])
            return attention(q, k, v, mask)

        monkeypatch.setattr(T, "masked_attention", counting)
        rng = np.random.default_rng(13)
        tokens = [int(t) for t in rng.integers(0, config.token_vocab, 15)]
        chunks = [tokens[i : i + 3] for i in range(0, 15, 3)]
        spec = MaskSpec(MaskKind.CHUNK, chunk=6)
        parts = list(stream_generate(model, iter(chunks), rng.normal(size=4),
                                     FeatureSeq(np.zeros((0, 4))), nfe=2, beta=0.7,
                                     spec=spec, seed=1))
        assert sum(len(p) for p in parts) == 30
        calls_per_row = 2 * 2 * config.n_estimator_blocks  # step x pass x block
        assert sum(rows) == calls_per_row * 30

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from([MaskKind.FULL_CAUSAL, MaskKind.CHUNK]),
           chunk=st.integers(1, 12), beta=st.sampled_from([0.0, 0.7]),
           sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_package_token_conditions_are_rows_of_one_shot(self, kind, chunk, beta, sizes,
                                                           seed):
        # each package computes only its own frames' token conditions,
        # against the cached alignment keys, with the one-shot call's bytes
        rng = np.random.default_rng(seed)
        model = STREAM_MODEL
        spec = MaskSpec(kind, chunk=chunk)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, sum(sizes))]
        packages = []
        token_conditions = CfmModel.token_conditions

        def recording(self, *args, **kwargs):
            out = token_conditions(self, *args, **kwargs)
            packages.append((np.shape(args[1]), out.data.copy()))
            return out

        ends = np.cumsum(sizes)
        with mock.patch.object(CfmModel, "token_conditions", recording):
            list(stream_generate(model, (tokens[e - n : e] for n, e in zip(sizes, ends)),
                                 rng.normal(size=SMALL.speaker_dim),
                                 FeatureSeq(np.zeros((0, SMALL.n_features))), nfe=1,
                                 beta=beta, spec=spec, seed=seed))
        whole = model.token_conditions(tokens, build_mask(spec, 2 * len(tokens))).data
        done = 0
        for (rows, stop), feats in packages:
            assert stop - rows == done
            assert feats.tobytes() == whole[done:stop].tobytes()
            done = stop
        assert done == len(whole)

    def test_alignment_blocks_see_each_frame_once(self):
        # one 3-token chunk per package: each alignment block runs over every
        # frame exactly once, in the package that completes it
        model = STREAM_MODEL
        rows = {id(block): 0 for block in model.align_blocks}
        call = TransformerBlock.__call__

        def counting(self, x, *args, **kwargs):
            if id(self) in rows:
                rows[id(self)] += x.data.shape[0]
            return call(self, x, *args, **kwargs)

        rng = np.random.default_rng(21)
        tokens = [int(t) for t in rng.integers(0, SMALL.token_vocab, 15)]
        with mock.patch.object(TransformerBlock, "__call__", counting):
            parts = list(stream_generate(model, (tokens[i : i + 3] for i in range(0, 15, 3)),
                                         rng.normal(size=SMALL.speaker_dim),
                                         FeatureSeq(np.zeros((0, SMALL.n_features))),
                                         nfe=2, beta=0.7, spec=MaskSpec(MaskKind.CHUNK, 4)))
        assert len(parts) > 3
        assert list(rows.values()) == [30] * SMALL.n_align_blocks

    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_one_field_call_per_euler_step(self, beta, monkeypatch):
        # both CFG passes share one estimator call, and the stream keeps one
        # [K, V] per (Euler step, estimator block) holding both passes' rows
        calls, pairs = [], {}
        field = CfmModel.field

        def counting(self, *args, **kwargs):
            calls.append(len(kwargs["columns"]) == 2 * len(args[0].data))
            for pair in kwargs.get("kv") or ():
                pairs[id(pair)] = pair
            return field(self, *args, **kwargs)

        monkeypatch.setattr(CfmModel, "field", counting)
        nfe, spec = 3, MaskSpec(MaskKind.CHUNK, chunk=4)
        cond = conditions(np.random.default_rng(5), 10)
        packages = stream_generate(STREAM_MODEL, ([t] for t in cond.tokens), cond.v,
                                   cond.masked_ref, nfe=nfe, beta=beta, spec=spec)
        first = next(packages)
        assert calls == [beta > 0.0] * nfe
        rest = list(packages)
        assert len(calls) == nfe * (1 + len(rest))
        frames = len(first) + sum(len(p) for p in rest)
        assert len(pairs) == nfe * SMALL.n_estimator_blocks
        passes = 2 if beta > 0.0 else 1
        assert all(len(k) == len(v) == passes * frames for k, v in pairs.values())

    def test_emission_horizon_respects_lookahead(self):
        # frames 0-1 need token 0 plus look-ahead 2: final only once three
        # tokens arrived, and each further token settles two more frames
        received = []

        def one_by_one():
            for t in range(6):
                received.append(t)
                yield [t]

        packages = stream_generate(STREAM_MODEL, one_by_one(), np.zeros(SMALL.speaker_dim),
                                   FeatureSeq(np.zeros((0, SMALL.n_features))), nfe=2,
                                   spec=MaskSpec(MaskKind.FULL_CAUSAL, chunk=2))
        first = next(packages)
        assert (len(received), len(first)) == (SMALL.lookahead + 1, 2)
        second = next(packages)
        assert (len(received), len(second)) == (SMALL.lookahead + 2, 2)


class TestEnergyDistance:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_separated_clouds_positive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=(100, 2)) + 5.0
        assert energy_distance(x, y) > 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
        assert energy_distance(x, y) == pytest.approx(energy_distance(y, x), rel=1e-12)


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = FeatureSeq(rng.normal(size=(7, 3)))
        path = tmp_path / "frames.sfea"
        cfm.write_feature_file(path, seq)
        back = cfm.read_feature_file(path)
        assert np.array_equal(back.frames, seq.frames)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.sfea"
        cfm.write_feature_file(path, FeatureSeq(np.zeros((0, 4))))
        assert cfm.read_feature_file(path).frames.shape == (0, 4)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.sfea"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            cfm.read_feature_file(path)

    @pytest.mark.parametrize("body", ["1 2\n3 4\n", "1 2\n3\n5 6\n", "1 2\n3 4\n5 6\n7 8\n"])
    def test_body_must_match_header(self, tmp_path, body):
        path = tmp_path / "bad.sfea"
        path.write_text("SFEA 3 2\n" + body)
        with pytest.raises(cfm.FeatureFileError, match="body does not match header"):
            cfm.read_feature_file(path)

    @pytest.mark.parametrize("body,line", [("1 2\nx 4\n", 3), ("1 nan\n3 4\n", 2)])
    def test_bad_value_named_with_line(self, tmp_path, body, line):
        path = tmp_path / "bad.sfea"
        path.write_text("SFEA 2 2\n" + body)
        with pytest.raises(cfm.FeatureFileError, match=f"bad.sfea:{line}: non-"):
            cfm.read_feature_file(path)

    @pytest.mark.parametrize("header", ["SFEA 1.5 2", "SFEA -1 2", "SFEA 2 two"])
    def test_bad_header_count_named(self, tmp_path, header):
        path = tmp_path / "bad.sfea"
        path.write_text(header + "\n1 2\n2 3\n")
        with pytest.raises(cfm.FeatureFileError, match="bad.sfea: SFEA header counts"):
            cfm.read_feature_file(path)
