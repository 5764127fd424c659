import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsynth import tensor as T
from streamsynth.tensor import Tape, Tensor


def rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestElementwise:
    def test_add_sub_mul_shapes(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[10.0, 20.0], [30.0, 40.0]])
        assert np.array_equal(T.add(a, b).data, [[11, 22], [33, 44]])
        assert np.array_equal(T.sub(b, a).data, [[9, 18], [27, 36]])
        assert np.array_equal(T.mul(a, b).data, [[10, 40], [90, 160]])

    def test_scalar_mixing_allowed(self):
        a = Tensor([[1.0, 2.0]])
        assert np.array_equal(T.add(a, 1.0).data, [[2.0, 3.0]])
        assert np.array_equal(T.mul(a, 2.0).data, [[2.0, 4.0]])

    def test_no_broadcasting_beyond_scalar(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(3))
        with pytest.raises(T.DimensionError):
            T.add(a, b)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([np.inf, 1.0])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_outputs_finite(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(rows, cols)))
        b = Tensor(rng.normal(size=(rows, cols)))
        for out in (T.add(a, b), T.mul(a, b), T.silu(a), T.tanh(a), T.softplus(a)):
            assert np.all(np.isfinite(out.data))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = Tensor(rng.normal(size=(3, 4)))
        eye = Tensor(np.eye(3))
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_zeros_times_ones(self):
        z = Tensor(np.zeros((2, 3)))
        o = Tensor(np.ones((3, 4)))
        assert np.array_equal(T.matmul(z, o).data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = rand(rng, 4, 5)
        b = rand(rng, 5, 2)
        err = T.check_gradients(lambda: T.sum_all(T.matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_row_stable_prefix(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(37, 12)))
        w = Tensor(rng.normal(size=(12, 9)))
        full = T.matmul(x, w, row_stable=True).data
        for cut in (1, 7, 36):
            pre = T.matmul(Tensor(x.data[:cut]), w, row_stable=True).data
            assert np.array_equal(pre, full[:cut])


class TestActivationsSoftmax:
    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_activation_dispatch(self):
        x = Tensor([-1.0, 2.0])
        assert np.array_equal(T.activation(x, "relu").data, [0.0, 2.0])
        with pytest.raises(ValueError):
            T.activation(x, "gelu")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("op", ["relu", "silu", "tanh"])
    def test_activation_gradients(self, op, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)) + 0.05, requires_grad=True)
        err = T.check_gradients(lambda: T.mean_all(T.activation(x, op)), [x])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_softplus_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 5)
        err = T.check_gradients(
            lambda: T.mean_all(T.mul(T.softmax(x), T.softmax(x))), [x])
        assert err < 1e-4
        y = rand(rng, 4)
        assert T.check_gradients(lambda: T.mean_all(T.softplus(y)), [y]) < 1e-4


class TestLayerNormEmbeddingConcat:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layer_norm_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, g, b = rand(rng, 5, 6), rand(rng, 6), rand(rng, 6)
        err = T.check_gradients(
            lambda: T.mean_all(T.mul(T.layer_norm(x, g, b), T.layer_norm(x, g, b))),
            [x, g, b])
        assert err < 1e-4

    def test_embedding_lookup_and_grad(self):
        rng = np.random.default_rng(0)
        table = rand(rng, 7, 3)
        ids = [2, 2, 5]
        out = T.embedding_lookup(table, ids)
        assert np.array_equal(out.data, table.data[ids])
        with Tape() as tape:
            loss = T.sum_all(T.embedding_lookup(table, ids))
        tape.backward(loss)
        expected = np.zeros((7, 3))
        expected[2] = 2.0
        expected[5] = 1.0
        assert np.array_equal(table.grad, expected)

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.ones((3, 2))), [3])

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 4, 2), rand(rng, 4, 3)
        cat = T.concat_cols([a, b])
        assert np.array_equal(T.slice_cols(cat, 0, 2).data, a.data)
        assert np.array_equal(T.slice_cols(cat, 2, 5).data, b.data)
        err = T.check_gradients(
            lambda: T.mean_all(T.abs_val(T.slice_cols(T.concat_cols([a, b]), 1, 4))),
            [a, b])
        assert err < 1e-4


class TestConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 3)))
        kernel = Tensor([1.0, 0.0, 0.0])
        out = T.conv1d_right_padded(x, kernel, pad=2)
        assert np.array_equal(out.data, x.data)

    def test_lookahead_locality(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(10, 4))
        kernel = Tensor(rng.normal(size=3))
        out1 = T.conv1d_right_padded(Tensor(base), kernel, pad=2)
        poked = base.copy()
        poked[5] += 3.0  # i + 3 for i = 2, one past the look-ahead window
        out2 = T.conv1d_right_padded(Tensor(poked), kernel, pad=2)
        assert np.array_equal(out1.data[2], out2.data[2])
        assert not np.array_equal(out1.data[3], out2.data[3])

    def test_kernel_size_must_be_pad_plus_one(self):
        with pytest.raises(T.DimensionError):
            T.conv1d_right_padded(Tensor(np.ones((4, 2))), Tensor(np.ones(3)), pad=3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conv_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 8, 3)
        k = rand(rng, 4)
        err = T.check_gradients(
            lambda: T.mean_all(T.mul(T.conv1d_right_padded(x, k, 3),
                                     T.conv1d_right_padded(x, k, 3))), [x, k])
        assert err < 1e-4


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        logits = np.full((3, 4), -1e3)
        logits[1, 2] = 1e3
        out = T.cross_entropy_ignore(Tensor(logits), [0, 2, 0], [True, False, True])
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_ln4(self):
        out = T.cross_entropy_ignore(Tensor(np.zeros((2, 4))), [1, 3], [True, False])
        assert out.item() == pytest.approx(np.log(4.0), rel=1e-12)

    def test_ignored_positions_zero_gradient(self):
        rng = np.random.default_rng(0)
        logits = rand(rng, 4, 5)
        with Tape() as tape:
            loss = T.cross_entropy_ignore(logits, [1, 2, 3, 4],
                                          [False, True, True, False])
        tape.backward(loss)
        assert np.array_equal(logits.grad[1], np.zeros(5))
        assert np.array_equal(logits.grad[2], np.zeros(5))
        assert not np.array_equal(logits.grad[0], np.zeros(5))
        assert not np.array_equal(logits.grad[3], np.zeros(5))

    def test_all_ignored_raises(self):
        with pytest.raises(T.EmptyLossError):
            T.cross_entropy_ignore(Tensor(np.zeros((2, 3))), [0, 0], [True, True])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        logits = rand(rng, 5, 6)
        err = T.check_gradients(
            lambda: T.cross_entropy_ignore(logits, [0, 1, 2, 3, 4],
                                           [False, True, False, True, False]),
            [logits])
        assert err < 1e-4


class TestMaskedAttention:
    def test_identity_mask_returns_values(self):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(5, 3))) for _ in range(3))
        out = T.masked_attention(q, k, v, np.eye(5, dtype=bool))
        assert np.allclose(out.data, v.data, atol=1e-15)

    def test_identical_keys_full_mask_averages(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(np.tile(rng.normal(size=3), (4, 1)))
        v = Tensor(rng.normal(size=(4, 3)))
        out = T.masked_attention(q, k, v, np.ones((4, 4), dtype=bool))
        assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (4, 1)), atol=1e-12)

    def test_causal_mask_future_invariance(self):
        rng = np.random.default_rng(2)
        q, k = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 4)))
        v1 = rng.normal(size=(6, 4))
        v2 = v1.copy()
        v2[4:] += 1.5
        mask = np.tril(np.ones((6, 6), dtype=bool))
        out1 = T.masked_attention(q, k, Tensor(v1), mask)
        out2 = T.masked_attention(q, k, Tensor(v2), mask)
        assert np.array_equal(out1.data[:4], out2.data[:4])

    def test_all_masked_row_raises(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1] = False
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(T.MaskedRowError):
            T.masked_attention(x, x, x, mask)

    @pytest.mark.parametrize("lo", [0, 1, 3, 5])
    def test_query_suffix_matches_square_rows(self, lo):
        rng = np.random.default_rng(lo)
        q, k, v = (Tensor(rng.normal(size=(6, 4))) for _ in range(3))
        mask = rng.uniform(size=(6, 6)) < 0.6
        mask[np.arange(6), np.arange(6)] = True
        square = T.masked_attention(q, k, v, mask).data
        rect = T.masked_attention(Tensor(q.data[lo:]), k, v, mask[lo:]).data
        assert (rect.view(np.uint64) == square[lo:].view(np.uint64)).all()

    def test_query_suffix_gradients(self):
        rng = np.random.default_rng(4)
        q, k, v = rand(rng, 3, 4), rand(rng, 6, 4), rand(rng, 6, 4)
        mask = np.tril(np.ones((6, 6), dtype=bool))[3:]
        err = T.check_gradients(
            lambda: T.mean_all(T.abs_val(T.masked_attention(q, k, v, mask))),
            [q, k, v])
        assert err < 1e-4

    def test_rectangular_mask_shape_checked(self):
        x, kv = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
        with pytest.raises(T.DimensionError):
            T.masked_attention(x, kv, kv, np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        q, k, v = rand(rng, 5, 4), rand(rng, 5, 4), rand(rng, 5, 4)
        mask = rng.uniform(size=(5, 5)) < 0.7
        mask[np.arange(5), np.arange(5)] = True
        err = T.check_gradients(
            lambda: T.mean_all(T.abs_val(T.masked_attention(q, k, v, mask))),
            [q, k, v])
        assert err < 1e-4


class TestTapeSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(T.TapeError):
            tape.backward(y)

    def test_backward_without_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.sum_all(x)  # no tape active: not recorded
        with pytest.raises(T.TapeError):
            T.backward(y)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, [4.0])

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(x)
        tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_replay_bit_deterministic(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        mask = np.tril(np.ones((6, 6), dtype=bool))

        def run():
            a.zero_grad()
            b.zero_grad()
            with Tape() as tape:
                h = T.masked_attention(a, b, T.silu(T.matmul(a, b)), mask)
                loss = T.mean_all(T.abs_val(h))
            tape.backward(loss)
            return loss.data.copy(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)

    def test_no_grad_outside_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.scale(x, 2.0)
        assert not y.requires_grad

    def test_tapes_are_thread_confined(self):
        import threading

        results = {}

        def worker(name, seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            for _ in range(40):
                x.zero_grad()
                with Tape() as tape:
                    loss = T.mean_all(T.mul(T.tanh(x), T.tanh(x)))
                tape.backward(loss)
            results[name] = (loss.item(), x.grad.copy())

        threads = [threading.Thread(target=worker, args=(f"t{i}", i))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        for name, (loss, grad) in results.items():
            seed = int(name[1:])
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            with Tape() as tape:
                expected = T.mean_all(T.mul(T.tanh(x), T.tanh(x)))
            tape.backward(expected)
            assert loss == expected.item()
            assert np.array_equal(grad, x.grad)
