import struct

import numpy as np
import pytest

from streamsynth import rl
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
        err = T.check_gradients(
            lambda: T.mean_all(T.abs_val(block(x, mask))),
            [x] + block.parameters(), max_coords=40,
            rng=np.random.default_rng(seed))
        assert err < 1e-4

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
