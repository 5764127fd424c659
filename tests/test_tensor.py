import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradcheck import check_gradients
from streamsynth import tensor as T
from streamsynth.cfm import MaskKind, MaskSpec, build_mask
from streamsynth.nn import Adam, Linear, TransformerBlock
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

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_gradients(self, op):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 3, 4), rand(rng, 3, 4)
        weights = Tensor(rng.normal(size=(3, 4)))
        fn = getattr(T, op)
        err = check_gradients(lambda: T.sum_all(T.mul(fn(a, b), weights)), [a, b])
        assert err < 1e-6

    def test_scale_and_abs_gradients(self):
        rng = np.random.default_rng(4)
        # keep abs_val's inputs off its kink at zero
        x = Tensor(np.sign(rng.normal(size=(3, 4))) * rng.uniform(0.2, 1.0, (3, 4)),
                   requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4)))
        for fn in (lambda: T.scale(x, -1.7), lambda: T.abs_val(x)):
            err = check_gradients(lambda: T.sum_all(T.mul(fn(), weights)), [x])
            assert err < 1e-6

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("shape", [(3,), ()])
    def test_operands_must_share_shape(self, op, shape):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(shape))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(T.DimensionError):
                getattr(T, op)(x, y)

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
        err = check_gradients(lambda: T.sum_all(T.matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_bias_shape_checked(self):
        with pytest.raises(T.DimensionError, match="bias shape"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), bias=Tensor(np.ones(3)))

    @pytest.mark.parametrize("layout", ["c", "column_block", "fortran"])
    def test_row_stable_is_in_order_sum(self, layout):
        # every output of the row-stable kernel is the sum over k in order,
        # from +0.0, for every shape, one column included, and any layout
        rng = np.random.default_rng(5)
        for rows, inner, cols in itertools.product((1, 2, 3, 7, 40, 100),
                                                   (1, 2, 5, 17, 48, 100),
                                                   (1, 2, 3, 24, 48)):
            a = rng.normal(size=(rows, inner))
            a[rng.uniform(size=a.shape) < 0.3] = -0.0
            b = rng.normal(size=(inner, cols))
            want = np.zeros((rows, cols))
            for k in range(inner):
                want += a[:, k:k + 1] * b[k]
            if layout == "column_block":
                a = np.concatenate([a, a], axis=1)[:, inner:]
                b = np.concatenate([b, b], axis=1)[:, cols:]
            elif layout == "fortran":
                a, b = np.asfortranarray(a), np.asfortranarray(b)
            got = T.matmul(Tensor(a), Tensor(b), row_stable=True).data
            assert got.tobytes() == want.tobytes(), (rows, inner, cols)

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
        err = check_gradients(lambda: T.mean_all(T.activation(x, op)), [x])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_softplus_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 5)
        err = check_gradients(
            lambda: T.mean_all(T.mul(T.softmax(x), T.softmax(x))), [x])
        assert err < 1e-4
        y = rand(rng, 4)
        assert check_gradients(lambda: T.mean_all(T.softplus(y)), [y]) < 1e-4


class TestLayerNormEmbeddingConcat:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layer_norm_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, g, b = rand(rng, 5, 6), rand(rng, 6), rand(rng, 6)
        err = check_gradients(
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

    @given(st.integers(1, 30), st.lists(st.integers(0, 29), max_size=40),
           st.sampled_from(["leaf", "take_rows"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_gradient_equals_dense_scatter(self, rows, ids, kind, seed):
        # two lookups: the first accumulation and a later one, each equal to
        # adding a zeroed table scattered with np.add.at; g holds -0.0
        rng = np.random.default_rng(seed)
        ids = [i % rows for i in ids]
        base = rand(rng, rows, 4)
        gs = [rng.normal(size=(len(ids), 4)) for _ in range(2)]
        for g in gs:
            g[rng.uniform(size=g.shape) < 0.3] = -0.0
        with Tape() as tape:
            table = base if kind == "leaf" else T.scale(base, 1.0)
            lookups = [T.take_rows(table, ids) for _ in gs]
        want = None
        for node, g in zip(tape.nodes[-2:], gs):
            node.backward_fn(g)
            dense = np.zeros((rows, 4))
            np.add.at(dense, ids, g)
            want = dense + 0.0 if want is None else want + dense
            assert table.grad.tobytes() == want.tobytes()
        assert all(np.array_equal(out.data, base.data[ids]) for out in lookups)

    def test_row_gradient_allocates_touched_rows_only(self):
        # after the first accumulation, a lookup's backward allocates no
        # table-sized float array, only an index entry per table row
        table = Tensor(np.zeros((20000, 48)), requires_grad=True)
        ids = [5, 17, 5, 9000]
        with Tape() as tape:
            for _ in range(2):
                T.embedding_lookup(table, ids)
        g = np.ones((len(ids), 48))
        tape.nodes[0].backward_fn(g)
        tracemalloc.start()
        try:
            tape.nodes[1].backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes / 10
        assert np.array_equal(table.grad[[5, 17, 9000]], [[4.0] * 48, [2.0] * 48, [2.0] * 48])

    def test_take_rows_is_not_an_embedding_lookup(self, monkeypatch):
        # a profiler wraps both by name, so one gather is one primitive call
        calls = []
        lookup = T.embedding_lookup
        monkeypatch.setattr(T, "embedding_lookup",
                            lambda *args: calls.append(args) or lookup(*args))
        table = Tensor(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(T.take_rows(table, [2, 0, 2]).data, table.data[[2, 0, 2]])
        assert calls == []
        T.embedding_lookup(table, [1])
        assert len(calls) == 1

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.ones((3, 2))), [3])

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 4, 2), rand(rng, 4, 3)
        cat = T.concat_cols([a, b])
        assert np.array_equal(T.slice_cols(cat, 0, 2).data, a.data)
        assert np.array_equal(T.slice_cols(cat, 2, 5).data, b.data)
        err = check_gradients(
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
        err = check_gradients(
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
        err = check_gradients(
            lambda: T.cross_entropy_ignore(logits, [0, 1, 2, 3, 4],
                                           [False, True, False, True, False]),
            [logits])
        assert err < 1e-4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), vocab=st.integers(1, 9),
           upstream=st.sampled_from([1.0, 0.25, -3.0, 1e-3]))
    def test_bytes_equal_four_temporary_formula(self, data, rows, vocab, upstream):
        logits = data.draw(arrays(np.float64, (rows, vocab), elements=st.floats(-1e3, 1e3)
                                  | st.just(-0.0)))
        ignore = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)
                           .filter(lambda ign: not all(ign)))
        targets = data.draw(st.lists(st.integers(0, vocab - 1), min_size=rows, max_size=rows))
        want_loss, want_grad = cross_entropy_reference(logits, targets, ignore, upstream)
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_ignore(x, targets, ignore)
            scaled = T.scale(loss, upstream)
        tape.backward(scaled)
        assert loss.data.tobytes() == want_loss.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()


def cross_entropy_reference(logits, targets, ignore, upstream):
    """The loss and logits gradient of cross_entropy_ignore as the plain
    formula computes them, with four [A, V] temporaries in the forward (the
    rows, ``z``, ``exp(z)``, ``logp``) and three in the backward; the
    gradient is stored as a tape stores a first gradient, ``+ 0.0``."""
    active = np.flatnonzero(np.logical_not(ignore))
    picks = (np.arange(active.size), np.asarray(targets, dtype=np.int64)[active])
    rows = logits[active]
    z = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = np.asarray(-logp[picks].sum() / active.size)
    soft = np.exp(logp)
    soft[picks] -= 1.0
    full = np.zeros_like(logits)
    full[active] = soft * (upstream / active.size)
    return loss, full + 0.0


def attention_reference(q, k, v, mask, g):
    """Row-by-row masked attention and its q, k, v gradients for upstream
    gradient ``g``: one matrix-vector product per row and direction, the
    arithmetic the grouped kernel must reproduce byte for byte."""
    inv_scale = 1.0 / np.sqrt(q.shape[1])
    windows, probs = [], []
    out = np.zeros_like(q)
    for i in range(q.shape[0]):
        idx = np.flatnonzero(mask[i])
        scores = (k[idx] @ q[i]) * inv_scale
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        out[i] = p @ v[idx]
        windows.append(idx)
        probs.append(p)
    qg, kg, vg = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for i, (idx, p) in enumerate(zip(windows, probs)):
        vg[idx] += p[:, None] * g[i]
        gp = v[idx] @ g[i]
        gs = p * (gp - (gp * p).sum())
        qg[i] = (gs @ k[idx]) * inv_scale
        kg[idx] += gs[:, None] * (q[i] * inv_scale)
    return out, qg, kg, vg


class TestMaskedAttention:
    @given(st.sampled_from(["build", "identity", "random"]), st.sampled_from(list(MaskKind)),
           st.integers(1, 40), st.integers(1, 200), st.integers(0, 199),
           st.sampled_from([(1, False), (3, False), (24, False), (48, False),
                            (24, True), (48, True)]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_reference_bytes(self, pattern, kind, chunk, length, start, width,
                                         seed):
        # with ``blocks``, q, k and v are column views of one [L, 3F] array;
        # the models pass C-contiguous operands, but at their widths views
        # give the same bytes too
        feat, blocks = width
        rng = np.random.default_rng(seed)
        if pattern == "build":
            mask = build_mask(MaskSpec(kind, chunk), length)
        elif pattern == "identity":
            mask = np.eye(length, dtype=bool)
        else:
            mask = rng.uniform(size=(length, length)) < 0.5
            mask[np.arange(length), rng.integers(0, length, length)] = True
        mask = mask[start % length:]  # rectangular [Lq, Lk], as the stream K/V cache calls
        if blocks:
            qkv = rng.normal(size=(length, 3 * feat))
            q, k, v = (Tensor(qkv[-len(mask):, :feat], requires_grad=True),
                       Tensor(qkv[:, feat:2 * feat], requires_grad=True),
                       Tensor(qkv[:, 2 * feat:], requires_grad=True))
        else:
            q, k, v = (rand(rng, n, feat) for n in (mask.shape[0], length, length))
        g = rng.normal(size=q.shape)
        with Tape() as tape:
            out = T.masked_attention(q, k, v, mask)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        tape.backward(loss)
        want = attention_reference(q.data, k.data, v.data, mask, g)
        for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("empty_rows, first", [
        ([2, 3, 4], 2),  # the start of a group of equal empty rows
        ([4], 4),  # a row inside a chunk of equal rows
        ([7], 7),  # the last row
    ])
    def test_masked_row_error_names_first_empty_row(self, empty_rows, first):
        mask = build_mask(MaskSpec(MaskKind.CHUNK, 3), 8)
        mask[empty_rows] = False
        x = Tensor(np.ones((8, 2)))
        with pytest.raises(T.MaskedRowError, match=rf"row {first} has"):
            T.masked_attention(x, x, x, mask)

    @given(st.sampled_from(["build", "random"]), st.sampled_from(list(MaskKind)),
           st.integers(1, 6), st.integers(1, 40), st.integers(0, 39), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reused_plan_equals_fresh_mask(self, pattern, kind, chunk, length, start, seed):
        # one plan handed to several calls gives each call the bytes of a
        # call that plans its bool mask afresh, forward and backward
        rng = np.random.default_rng(seed)
        if pattern == "build":
            mask = build_mask(MaskSpec(kind, chunk), length)
        else:
            mask = rng.uniform(size=(length, length)) < 0.5
            mask[np.arange(length), rng.integers(0, length, length)] = True
        mask = mask[start % length:]
        plan = T.AttentionPlan(mask)
        mask_copy = mask.copy()
        mask[:] = ~mask  # the plan keeps its own copy: no later edit makes it stale
        assert not plan.mask.flags.writeable
        assert np.array_equal(np.asarray(plan), mask_copy)
        for _ in range(2):
            q, k, v = (rand(rng, n, 3) for n in (mask.shape[0], length, length))
            g = rng.normal(size=q.shape)
            results = []
            for m in (plan, mask_copy):
                for t in (q, k, v):
                    t.zero_grad()
                with Tape() as tape:
                    loss = T.sum_all(T.mul(T.masked_attention(q, k, v, m), Tensor(g)))
                tape.backward(loss)
                results.append([loss.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v)])
            assert results[0] == results[1]

    def test_plan_raises_for_empty_row(self):
        mask = build_mask(MaskSpec(MaskKind.CHUNK, 2), 6)
        mask[3] = False
        with pytest.raises(T.MaskedRowError, match="row 3 has"):
            T.AttentionPlan(mask)

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
        err = check_gradients(
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
        err = check_gradients(
            lambda: T.mean_all(T.abs_val(T.masked_attention(q, k, v, mask))),
            [q, k, v])
        assert err < 1e-4


def _attention_case(rng, chunk):
    # a chunk mask over 7 keys seen from the last 5 queries: several groups,
    # some windows shared, as the stream K/V cache calls it
    mask = build_mask(MaskSpec(MaskKind.CHUNK, chunk), 7)[2:]
    return [rng.normal(size=(5, 3)), rng.normal(size=(7, 3)), rng.normal(size=(7, 3))], \
        lambda q, k, v: T.masked_attention(q, k, v, mask)


# every primitive with two or more tensor inputs -> (input arrays, op over Tensors);
# ``variant`` picks 0-d operands, the row-stable matmul or a 1-frame chunk mask
def _elementwise_case(op):
    return lambda rng, variant: ([rng.normal(size=() if variant else (3, 4))
                                  for _ in range(2)], op)


MULTI_INPUT_OPS = {
    "add": _elementwise_case(T.add),
    "sub": _elementwise_case(T.sub),
    "mul": _elementwise_case(T.mul),
    "matmul": lambda rng, variant: ([rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
                                   lambda a, b: T.matmul(a, b, row_stable=variant)),
    "matmul_bias": lambda rng, variant: (
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)],
        lambda a, b, c: T.matmul(a, b, row_stable=variant, bias=c)),
    "layer_norm": lambda rng, variant: ([rng.normal(size=(3, 5)), rng.normal(size=5),
                                        rng.normal(size=5)], T.layer_norm),
    "conv1d_right_padded": lambda rng, variant: (
        [rng.normal(size=(6, 3)), rng.normal(size=3)],
        lambda x, k: T.conv1d_right_padded(x, k, 2)),
    "add_rowvec": lambda rng, variant: ([rng.normal(size=(3, 4)), rng.normal(size=4)],
                                       T.add_rowvec),
    "concat_cols": lambda rng, variant: ([rng.normal(size=(3, 2)), rng.normal(size=(3, 1)),
                                         rng.normal(size=(3, 4))],
                                        lambda *parts: T.concat_cols(parts)),
    "masked_attention": lambda rng, variant: _attention_case(rng, 1 if variant else 3),
}


class TestFrozenInputs:
    """One gradient rule: freezing some inputs of a primitive leaves their
    ``grad`` None and every other input's gradient byte-equal to the one it
    gets when all inputs train."""

    @given(st.sampled_from(sorted(MULTI_INPUT_OPS)), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_frozen_inputs_get_no_gradient_and_change_no_other(self, name, variant, seed):
        rng = np.random.default_rng(seed)
        arrays, op = MULTI_INPUT_OPS[name](rng, variant)

        def grads(frozen):
            inputs = [Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
            with Tape() as tape:
                out = op(*inputs)
                loss = T.sum_all(T.mul(out, Tensor(weights)))
            if len(frozen) == len(inputs):
                assert not loss.requires_grad
            else:
                tape.backward(loss)
            return [t.grad for t in inputs]

        weights = rng.normal(size=op(*map(Tensor, arrays)).shape)
        trained = grads(())
        assert all(g is not None for g in trained)
        n = len(arrays)
        for frozen in itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(1, n + 1)):
            for i, g in enumerate(grads(frozen)):
                if i in frozen:
                    assert g is None
                else:
                    assert g.tobytes() == trained[i].tobytes(), (name, frozen, i)


class TestTapeSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(T.TapeError):
            tape.backward(y)

    def test_backward_consumes_the_tape(self):
        # recorded outputs give up their gradients, leaves keep theirs, and
        # the consumed tape cannot run backward again
        x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        w = Tensor([[2.0, 0.0], [-1.0, 1.5]], requires_grad=True)
        with Tape() as tape:
            loss = T.mean_all(T.relu(T.matmul(x, w)))
        outputs = [node.out for node in tape.nodes]
        tape.backward(loss)
        assert len(outputs) == 3 and all(out.grad is None for out in outputs)
        g = (x.data @ w.data > 0.0) * 0.25
        assert x.grad.tobytes() == (g @ w.data.T + 0.0).tobytes()
        assert w.grad.tobytes() == (x.data.T @ g + 0.0).tobytes()
        with pytest.raises(T.TapeError):
            tape.backward(loss)

    def test_intermediate_arrays_are_freed_by_backward(self):
        # Tensor has __slots__ and takes no weakref; its ndarray does
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        w = Tensor(np.full((4, 5), 0.5), requires_grad=True)

        def record():
            h = T.silu(T.matmul(x, w))
            return T.mean_all(h), weakref.ref(h.data)

        with Tape() as tape:
            loss, ref = record()
        assert ref() is not None
        tape.backward(loss)
        assert ref() is None
        assert x.grad is not None and w.grad is not None

    def test_backward_without_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.sum_all(x)  # no tape active: not recorded
        with pytest.raises(T.TapeError):
            Tape().backward(y)

    def test_recorded_steps_leave_no_cyclic_garbage(self):
        # a tensor does not point back at its tape, so a finished step is
        # freed by reference counting alone
        rng = np.random.default_rng(0)
        table = rand(rng, 12, 8)
        block = TransformerBlock(rng, 8)
        head = Linear(rng, 8, 12)
        opt = Adam([table, *block.parameters(), *head.parameters()], lr=1e-3)
        ids = [1, 4, 2, 7, 3]
        mask = np.tril(np.ones((5, 5), dtype=bool))

        def loss():
            h = block(T.embedding_lookup(table, ids), mask)
            return T.cross_entropy_ignore(head(h), ids[1:] + [0], [False] * 4 + [True])

        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                opt.minimize(loss)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_first_gradient_is_a_positive_zero_copy(self):
        # the first gradient is stored as g + 0.0: -0.0 turns into +0.0, as
        # adding into zeros did, and the stored array is not g itself
        x = Tensor(np.ones(3), requires_grad=True)
        g = np.array([-0.0, 1.5, -2.0])
        x.accumulate_grad(g)
        assert x.grad.tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()
        g[:] = 7.0
        assert x.grad.tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()
        x.accumulate_grad(np.array([-0.0, 0.5, 2.0]))
        assert x.grad.tobytes() == np.array([0.0, 2.0, 0.0]).tobytes()

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
