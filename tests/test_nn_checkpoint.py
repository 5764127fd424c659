import functools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from streamsynth import cfm, rl, seqlm
from streamsynth import tensor as T
from streamsynth.checkpoint import (CheckpointError, load_checkpoint, save_checkpoint)
from streamsynth.nn import Adam, Linear, TransformerBlock, param_fingerprint
from streamsynth.persist import load_cfm, load_codec, load_lm, save_cfm, save_codec, save_lm
from streamsynth.tensor import Tape, Tensor


class TestAdam:
    def test_descends_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            with Tape() as tape:
                loss = T.sum_all(T.mul(x, x))
            tape.backward(loss)
            opt.step()
        assert np.all(np.abs(x.data) < 1e-2)

    def test_skips_gradless_params(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([x, y], lr=0.1)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        opt.step()
        assert np.array_equal(y.data, np.ones(2))
        assert not np.array_equal(x.data, np.ones(2))

    def test_minimize_equals_hand_written_steps(self):
        x = Tensor(np.random.default_rng(8).normal(size=(5, 3)))

        def model():
            rng = np.random.default_rng(7)
            layers = [Linear(rng, 3, 6, std=0.5), Linear(rng, 6, 2, std=0.5)]
            params = [p for layer in layers for p in layer.parameters()]
            return (lambda: T.mean_all(T.abs_val(layers[1](T.relu(layers[0](x)))))), params

        loss_a, params_a = model()
        loss_b, params_b = model()
        opt_a, opt_b = Adam(params_a, lr=0.05), Adam(params_b, lr=0.05)
        for _ in range(6):
            got = opt_a.minimize(loss_a)
            opt_b.zero_grad()
            with Tape() as tape:
                want = loss_b()
            tape.backward(want)
            opt_b.step()
            assert got.data.tobytes() == want.data.tobytes()
            for p, q in zip(params_a, params_b):
                assert p.data.tobytes() == q.data.tobytes()
                assert p.grad.tobytes() == q.grad.tobytes()

    def test_step_equals_textbook_formula_bytes(self):
        # 50 steps over a matrix, a vector, a 0-d parameter and one whose
        # gradient is sometimes None, against the formula written out
        rng = np.random.default_rng(3)
        shapes = [(30, 7), (7,), (), (4, 2)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        opt = Adam(params, lr=0.01)
        want = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps, lr = Adam.b1, Adam.b2, Adam.eps, 0.01
        for t in range(1, 51):
            for i, p in enumerate(params):
                p.grad = None if i == 3 and t % 3 else rng.normal(size=shapes[i]) + 0.0
            opt.step()
            for i, p in enumerate(params):
                g = p.grad
                if g is None:
                    continue
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                want[i] = want[i] - lr * (m[i] / (1.0 - b1**t)) \
                    / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            for p, w in zip(params, want):
                assert p.data.tobytes() == np.asarray(w).tobytes()

    def test_step_allocates_no_temporary_per_parameter(self):
        # a step's working memory is its two scratch buffers the size of the
        # largest parameter, whatever the number of parameters
        rng = np.random.default_rng(4)
        params = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(200, 50), (200, 50), (50,), (3, 3), ()]]
        opt = Adam(params, lr=0.01)
        for p in params:
            p.grad = rng.normal(size=p.data.shape) + 0.0
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * params[0].data.nbytes + 4096

    def test_clip_grads_to_max_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros((2, 2)), requires_grad=True)
        idle = Tensor(np.zeros(3), requires_grad=True)
        a.grad, b.grad = np.array([3.0, 0.0]), np.array([[0.0, 4.0], [0.0, 0.0]])
        rl._clip_grads([a, b, idle], 2.0)
        assert np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum()) == pytest.approx(2.0)
        assert np.allclose(a.grad, [1.2, 0.0]) and np.allclose(b.grad, [[0.0, 1.6], [0.0, 0.0]])
        assert idle.grad is None
        small = [np.array([0.3, -0.4]), np.array([[0.0, 1e-3], [0.5, 0.0]])]
        a.grad, b.grad = small[0].copy(), small[1].copy()
        rl._clip_grads([a, b, idle], 2.0)
        assert np.array_equal(a.grad, small[0]) and np.array_equal(b.grad, small[1])


class TestBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transformer_block_gradients(self, seed):
        rng = np.random.default_rng(seed)
        block = TransformerBlock(rng, dim=6, std=0.1)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        mask = np.tril(np.ones((4, 4), dtype=bool))
        err = check_gradients(
            lambda: T.mean_all(T.abs_val(block(x, mask))),
            [x] + block.parameters(), max_coords=40,
            rng=np.random.default_rng(seed))
        assert err < 1e-4

    @given(st.integers(1, 400), st.sampled_from([24, 48]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fused_qkv_bytes_equal_separate_layers(self, rows, dim, row_stable, seed):
        # one project() call against three layer calls, both as the one-node
        # Linear and as a product followed by add_rowvec: the same forward
        # bytes, and after backward the same gradients into h, w and b
        rng = np.random.default_rng(seed)
        layers = [Linear(rng, dim, dim, std=0.3) for _ in range(3)]
        for layer in layers:
            layer.b.data[:] = rng.normal(size=dim)
        h = Tensor(rng.normal(size=(rows, dim)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(rows, dim))) for _ in range(3)]
        separate = {
            "fused": lambda: T.project(h, [(lay.w, lay.b) for lay in layers], row_stable),
            "linear": lambda: [lay(h, row_stable) for lay in layers],
            "two-node": lambda: [T.add_rowvec(T.matmul(h, lay.w, row_stable), lay.b)
                                 for lay in layers],
        }
        results = {}
        for name, run in separate.items():
            params = [h] + [p for lay in layers for p in lay.parameters()]
            for p in params:
                p.zero_grad()
            with Tape() as tape:
                outs = run()
                loss = functools.reduce(T.add, (T.sum_all(T.mul(o, w))
                                                for o, w in zip(outs, weights)))
            tape.backward(loss)
            results[name] = [o.data.tobytes() for o in outs] + [p.grad.tobytes() for p in params]
        assert results["fused"] == results["linear"] == results["two-node"]

    def test_non_finite_appended_kv_row_raises(self):
        rng = np.random.default_rng(0)
        block = TransformerBlock(rng, dim=6)
        kv = [np.zeros((0, 6)), np.zeros((0, 6))]
        block(Tensor(rng.normal(size=(3, 6))), np.tril(np.ones((3, 3), dtype=bool)), kv=kv)
        cached = [a.copy() for a in kv]
        block.wv.b.data[2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            block(Tensor(rng.normal(size=(1, 6))), np.ones((1, 4), dtype=bool), kv=kv)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(kv, cached))

    def test_linear_zero_init(self):
        rng = np.random.default_rng(0)
        layer = Linear(rng, 3, 4, zero=True)
        out = layer(Tensor(rng.normal(size=(2, 3))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_fingerprint_changes_with_params(self):
        rng = np.random.default_rng(1)
        layer = Linear(rng, 3, 3)
        fp = param_fingerprint(layer.parameters())
        layer.w.data[0, 0] += 1.0
        assert param_fingerprint(layer.parameters()) != fp


class TestWorkCounts:
    """Primitive outputs (``tensor._result`` calls) and product kernel calls
    (``tensor._product``) per cached LM token and per guided field call: a
    block makes one product for q, k and v, and a layer's bias rides in its
    product."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"_result": 0, "_product": 0}
        for name in calls:
            def counting(*args, _fn=getattr(T, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(T, name, counting)
        return calls

    def test_cached_lm_token(self, counts):
        lm = seqlm.ToyLM(seqlm.Vocabulary(speech_size=20, text_size=6), dim=8, n_blocks=2)
        cache = seqlm.LmCache()
        lm.logits_last([1, 2, 3], cache)
        counts.update(_result=0, _product=0)
        lm.logits_last([1, 2, 3, 4], cache)
        # embeddings 3; per block: 2 norms, 3 projections, 2 cache rows,
        # attention, 3 layers, silu, 2 residual adds; final norm and head
        assert counts == {"_result": 3 + 2 * 14 + 2, "_product": 2 * 4 + 1}

    def test_attention_backward(self, counts):
        # the gradients of k and of v are one product each, whatever the
        # number of rows
        rng = np.random.default_rng(0)
        block = TransformerBlock(rng, 8)
        x = Tensor(rng.normal(size=(12, 8)), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(block(x, np.tril(np.ones((12, 12), dtype=bool))))
        counts.update(_result=0, _product=0)
        tape.backward(loss)
        assert counts == {"_result": 0, "_product": 2}

    def test_guided_field_call(self, counts):
        config = cfm.CfmConfig(n_features=4, token_vocab=40, token_embed=6, hidden=10,
                               speaker_dim=4, lookahead=2, n_estimator_blocks=3)
        model = cfm.CfmModel(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        cond = cfm.ConditionSet(rng.normal(size=4), [1, 5, 9, 2],
                                cfm.FeatureSeq(np.zeros((0, 4))))
        mask = cfm.build_mask(cfm.MaskSpec(cfm.MaskKind.CHUNK, chunk=4), 8)
        feats = model.token_conditions(cond.tokens, mask)
        counts.update(_result=0, _product=0)
        cfm.cfg_field(model, Tensor(rng.normal(size=(8, 4))), 0.3, cond, 0.7, mask,
                      token_feats=feats)
        # input concat, est_in, relu; per block 12 as in the LM without a
        # cache; final norm and est_out
        assert counts == {"_result": 3 + 3 * 12 + 2, "_product": 1 + 3 * 4 + 1}


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [("weight", rng.normal(size=(3, 4))), ("bias", rng.normal(size=4))]
        path = tmp_path / "model.ssyn"
        save_checkpoint(path, "demo", arrays, {"note": "test"})
        module, params, meta = load_checkpoint(path)
        assert module == "demo"
        assert meta["note"] == "test"
        assert np.array_equal(params["weight"], arrays[0][1])
        assert np.array_equal(params["bias"], arrays[1][1])

    def test_header_magic(self, tmp_path):
        path = tmp_path / "model.ssyn"
        save_checkpoint(path, "demo", [("x", np.zeros(2))])
        raw = path.read_bytes()
        assert raw[:4] == b"SSYN"
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_bytes_deterministic(self, tmp_path):
        arrays = [("x", np.arange(6.0).reshape(2, 3))]
        p1, p2 = tmp_path / "a.ssyn", tmp_path / "b.ssyn"
        save_checkpoint(p1, "demo", arrays)
        save_checkpoint(p2, "demo", arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ssyn"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ssyn"
        save_checkpoint(path, "demo", [("x", np.zeros(8))])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(Exception):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["metadata", "count", "values"])
    def test_truncation_named(self, tmp_path, cut):
        path = tmp_path / "model.ssyn"
        save_checkpoint(path, "demo", [("x", np.zeros(8)), ("y", np.zeros(2))])
        raw = path.read_bytes()
        meta_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        keep = {"metadata": meta_end - 5, "count": meta_end + 8 + 64 + 3,
                "values": meta_end + 8 + 20}[cut]
        path.write_bytes(raw[:keep])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ssyn"
        save_checkpoint(path, "demo", [("x", np.zeros(2))])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestModelPersistence:
    def test_lm_roundtrip(self, tmp_path):
        from streamsynth.seqlm import ToyLM, Vocabulary
        vocab = Vocabulary(speech_size=9, text_size=4)
        model = ToyLM(vocab, dim=12, n_blocks=1, max_len=32,
                      rng=np.random.default_rng(0))
        model.head.w.data += np.random.default_rng(1).normal(
            0, 0.1, model.head.w.data.shape)
        path = tmp_path / "lm.ssyn"
        save_lm(path, model)
        back = load_lm(path)
        ids = [vocab.sos, vocab.text_id(0), vocab.tos, 3]
        assert np.array_equal(model.forward(ids).data, back.forward(ids).data)

    def test_cfm_roundtrip(self, tmp_path):
        from streamsynth.cfm import (CfmConfig, CfmModel, ConditionSet, FeatureSeq,
                                     sample)
        cfg = CfmConfig(n_features=3, token_vocab=10, token_embed=4, hidden=8,
                        speaker_dim=3, lookahead=1)
        model = CfmModel(cfg, np.random.default_rng(2))
        path = tmp_path / "cfm.ssyn"
        save_cfm(path, model)
        back = load_cfm(path)
        cond = ConditionSet(np.zeros(3), [1, 2], FeatureSeq(np.zeros((0, 3))))
        a = sample(model, cond, 4, nfe=2, seed=5)
        b = sample(back, cond, 4, nfe=2, seed=5)
        assert np.array_equal(a.frames, b.frames)

    def test_codec_roundtrip(self, tmp_path):
        from streamsynth.fsq import FsqCodec, FsqConfig
        codec = FsqCodec(FsqConfig(4, 1), hidden=6, rng=np.random.default_rng(3))
        path = tmp_path / "fsq.ssyn"
        save_codec(path, codec)
        back = load_codec(path)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 6)))
        d1, u1 = codec.quantize(x)
        d2, u2 = back.quantize(x)
        assert np.array_equal(d1, d2)
        assert np.array_equal(u1.data, u2.data)

    def test_wrong_module_rejected(self, tmp_path):
        from streamsynth.fsq import FsqCodec, FsqConfig
        codec = FsqCodec(FsqConfig(4, 1), hidden=6, rng=np.random.default_rng(5))
        path = tmp_path / "fsq.ssyn"
        save_codec(path, codec)
        with pytest.raises(ValueError):
            load_lm(path)
