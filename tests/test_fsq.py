import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from streamsynth import fsq
from streamsynth import tensor as T
from streamsynth.fsq import FsqCodec, FsqConfig
from streamsynth.tensor import Tape, Tensor


class TestBoundedRound:
    def test_nearest_integer(self):
        assert np.array_equal(fsq.bounded_round(np.array([0.2, -0.4]), 1), [0, 0])

    def test_clamp(self):
        assert np.array_equal(fsq.bounded_round(np.array([9.0, -9.0]), 1), [1, -1])

    def test_ties_away_from_zero(self):
        assert np.array_equal(fsq.bounded_round(np.array([0.5, -0.5]), 1), [1, -1])
        assert np.array_equal(fsq.bounded_round(np.array([1.5, -1.5]), 2), [2, -2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fsq.bounded_round(np.array([np.nan]), 1)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, values, k):
        arr = np.asarray(values)
        once = fsq.bounded_round(arr, k)
        assert np.array_equal(fsq.bounded_round(once.astype(float), k), once)
        assert once.min() >= -k and once.max() <= k


class TestIndexCodec:
    def test_all_minus_one_is_zero(self):
        assert fsq.encode_index([-1] * 8, 1) == 0

    def test_all_plus_one_is_top(self):
        assert fsq.encode_index([1] * 8, 1) == 3**8 - 1 == 6560

    def test_hand_evaluated_pair(self):
        # digits (0, -1) offset by K=1 become (1, 0): 1*3^0 + 0*3^1
        assert fsq.encode_index([0, -1], 1) == 1

    def test_decode_examples(self):
        assert np.array_equal(fsq.decode_index(0, 8, 1), [-1] * 8)
        assert np.array_equal(fsq.decode_index(6560, 8, 1), [1] * 8)

    def test_range_errors(self):
        with pytest.raises(fsq.RangeError):
            fsq.encode_index([2], 1)
        with pytest.raises(fsq.RangeError):
            fsq.decode_index(3**4, 4, 1)
        with pytest.raises(fsq.RangeError):
            fsq.decode_index(-1, 4, 1)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_digits(self, d, k, seed):
        rng = np.random.default_rng(seed)
        digits = rng.integers(-k, k + 1, size=d)
        mu = fsq.encode_index(digits, k)
        assert np.array_equal(fsq.decode_index(mu, d, k), digits)

    def test_decode_indices_rows_match_decode_index(self):
        tokens = [0, 40, 80, 40]
        rows = fsq.decode_indices(tokens, 4, 1)
        for tok, row in zip(tokens, rows):
            assert np.array_equal(row, fsq.decode_index(tok, 4, 1))

    def test_decode_indices_token_zero_all_minus_one(self):
        digits = fsq.decode_indices([0, 0], d=8, k=1)
        assert digits.shape == (2, 8)
        assert np.array_equal(digits, [[-1] * 8] * 2)

    def test_decode_indices_roundtrip_with_encode(self):
        rng = np.random.default_rng(0)
        digits = rng.integers(-1, 2, size=(200, 4))
        tokens = [fsq.encode_index(row, 1) for row in digits]
        assert np.array_equal(fsq.decode_indices(tokens, 4, 1), digits)

    def test_decode_indices_out_of_range_token_named(self):
        # one bad token among good ones fails the whole batch, naming it
        with pytest.raises(fsq.RangeError, match="token 81 "):
            fsq.decode_indices([3, 81, 5], 4, 1)

    def test_exhaustive_small(self):
        cfg = FsqConfig(d=4, k=1)
        seen = set()
        for mu in range(cfg.codebook_size):
            digits = fsq.decode_index(mu, cfg.d, cfg.k)
            back = fsq.encode_index(digits, cfg.k)
            assert back == mu
            seen.add(tuple(digits))
        assert len(seen) == cfg.codebook_size


class TestQuantize:
    def test_default_codebook_size(self):
        cfg = FsqConfig()
        assert (cfg.d, cfg.k, cfg.codebook_size) == (8, 1, 6561)

    def test_zero_input_zero_bias(self):
        codec = FsqCodec(FsqConfig(d=4, k=1), hidden=6)
        digits, up = codec.quantize(Tensor(np.zeros((3, 6))))
        assert np.array_equal(digits, np.zeros((3, 4)))
        assert np.array_equal(up.data, np.zeros((3, 6)))

    def test_matches_composed_primitives(self):
        rng = np.random.default_rng(0)
        codec = FsqCodec(FsqConfig(d=4, k=1), hidden=6, rng=rng)
        h = Tensor(rng.normal(size=(5, 6)))
        digits, up = codec.quantize(h)
        low = codec.proj_down(h).data
        expected_digits = fsq.bounded_round(low, 1)
        assert np.array_equal(digits, expected_digits)
        expected_up = codec.proj_up(Tensor(expected_digits.astype(float))).data
        assert np.allclose(up.data, expected_up, atol=1e-15)

    def test_straight_through_matches_twin_exactly(self):
        rng = np.random.default_rng(1)
        codec = FsqCodec(FsqConfig(d=4, k=1), hidden=6, rng=rng)
        for trial in range(20):
            h = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            with Tape() as tape:
                _, up = codec.quantize(h, straight_through=True)
                loss = T.sum_all(up)
            tape.backward(loss)
            ste_grad = h.grad.copy()
            h.zero_grad()
            with Tape() as tape:
                _, up = codec.quantize(h, straight_through=False)
                loss = T.sum_all(up)
            tape.backward(loss)
            assert np.array_equal(ste_grad, h.grad)

    def test_reconstruction_piecewise_constant(self):
        rng = np.random.default_rng(2)
        codec = FsqCodec(FsqConfig(d=3, k=1), hidden=4, rng=rng)
        h = rng.normal(size=(2, 4))
        digits1, up1 = codec.quantize(Tensor(h))
        # nudge the input without crossing any rounding boundary
        low = codec.proj_down(Tensor(h)).data
        nudged = Tensor(h + 1e-9)
        digits2, up2 = codec.quantize(nudged)
        if np.array_equal(digits1, digits2):
            assert np.array_equal(up1.data, up2.data)

    def test_gradient_of_twin_path(self):
        rng = np.random.default_rng(3)
        codec = FsqCodec(FsqConfig(d=3, k=1), hidden=4, rng=rng)
        h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        err = check_gradients(
            lambda: T.mean_all(T.abs_val(codec.quantize(h, straight_through=False)[1])),
            [h] + codec.parameters())
        assert err < 1e-4


class TestUtilization:
    def test_full_codebook(self):
        cfg = FsqConfig(d=2, k=1)
        frac, hist = fsq.utilization(range(9), cfg)
        assert frac == 1.0
        assert hist == {i: 1 for i in range(9)}

    def test_single_repeated_code(self):
        cfg = FsqConfig(d=8, k=1)
        frac, hist = fsq.utilization([5] * 100, cfg)
        assert frac == pytest.approx(1 / 6561)
        assert hist == {5: 100}

    def test_empty_stream(self):
        frac, hist = fsq.utilization([], FsqConfig(d=2, k=1))
        assert frac == 0.0 and hist == {}

    def test_out_of_range_token(self):
        with pytest.raises(fsq.RangeError):
            fsq.utilization([9], FsqConfig(d=2, k=1))

    def test_uniform_inputs_cover_codebook(self):
        # Monte-Carlo oracle: uniform low-rank inputs hit >= 95% of 9 codes
        rng = np.random.default_rng(4)
        cfg = FsqConfig(d=2, k=1)
        h = rng.uniform(-1.5, 1.5, size=(1000, 2))
        tokens = [fsq.encode_index(row, 1) for row in fsq.bounded_round(h, 1)]
        frac, _ = fsq.utilization(tokens, cfg)
        assert frac >= 0.95

    def test_bounded_round_beats_vq_baseline(self):
        # same inputs, same code count: the nearest-neighbor baseline leaves
        # dead codes while bounded rounding covers the grid
        rng = np.random.default_rng(5)
        cfg = FsqConfig(d=4, k=1)
        h = rng.uniform(-1.5, 1.5, size=(4000, 4))
        tokens = [fsq.encode_index(row, 1) for row in fsq.bounded_round(h, 1)]
        fsq_util, _ = fsq.utilization(tokens, cfg)
        vq = fsq.VqBaseline(cfg.codebook_size, 4, np.random.default_rng(6))
        vq_util, _ = vq.utilization(h)
        assert fsq_util >= 0.99
        assert vq_util < 0.6 * fsq_util


class TestTokenFiles:
    def test_roundtrip(self, tmp_path):
        cfg = FsqConfig(d=4, k=1)
        path = tmp_path / "tokens.txt"
        fsq.write_token_file(path, [0, 80, 13], cfg)
        text = path.read_text()
        assert text.startswith("#fsq D=4 K=1\n")
        tokens, parsed = fsq.read_token_file(path)
        assert tokens == [0, 80, 13]
        assert parsed == cfg

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\n")
        with pytest.raises(ValueError):
            fsq.read_token_file(path)

    @pytest.mark.parametrize("header", ["#fsq D=4", "#fsq D4 K=1", "#fsq D=x K=1"])
    def test_malformed_header_named(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n1\n")
        with pytest.raises(fsq.TokenFileError, match="bad.txt"):
            fsq.read_token_file(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "oor.txt"
        path.write_text("#fsq D=2 K=1\n9\n")
        with pytest.raises(fsq.RangeError):
            fsq.read_token_file(path)

    def test_invalid_config_named(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("#fsq D=0 K=1\n")
        with pytest.raises(fsq.TokenFileError, match="zero.txt"):
            fsq.read_token_file(path)

    def test_non_integer_token_named_with_line(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("#fsq D=2 K=1\n3\n\n4.5\n")
        with pytest.raises(fsq.TokenFileError, match=r"junk.txt:4: token '4.5'"):
            fsq.read_token_file(path)
