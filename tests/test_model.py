import dataclasses
import hashlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from minit5 import tensor, training
from minit5.gradcheck import finite_diff_check
from minit5.model import (
    ModelConfig,
    ShapeError,
    budget_table,
    count_parameters,
    decode_logits,
    encode,
    forward,
    init_params,
    param_shapes,
    preset,
    relative_bucket,
    training_budget_ratio,
)
from minit5.noising import NoisedPair
from minit5.tensor import Tape, backward, cross_entropy, embedding, reshape
from minit5.training import AdamW, TrainingError, teacher_forced_loss
from test_gradcheck import attention_composition, gated_gelu_ffn_composition
from test_tensor import held_after_forward


def _tiny(vocab=64, **overrides):
    cfg = dict(vocab_size=vocab, d_model=16, d_ff=32, n_heads=2, d_kv=8,
               enc_layers=2, dec_layers=2, rel_buckets=8, rel_max_distance=16, dropout=0.0)
    cfg.update(overrides)
    return ModelConfig(**cfg)


def _bucket_oracle(offset, bidirectional, num_buckets, max_distance):
    # direct scalar translation of the bucketing definition, kept independent
    # of the vectorized implementation under test
    bucket = 0
    n = num_buckets
    if bidirectional:
        n = n // 2
        if offset > 0:
            bucket += n
        offset = abs(offset)
    else:
        offset = -min(offset, 0)
    max_exact = n // 2
    if offset < max_exact:
        return bucket + offset
    val = max_exact + int(
        math.log(offset / max_exact) / math.log(max_distance / max_exact) * (n - max_exact)
    )
    return bucket + min(val, n - 1)


class TestRelativeBucket:
    def test_zero_offset(self):
        assert relative_bucket(0, bidirectional=True) == 0

    def test_near_offsets_distinct(self):
        assert relative_bucket(1, True) != relative_bucket(2, True)

    def test_full_table_matches_oracle(self):
        for bidirectional in (True, False):
            for offset in range(-128, 129):
                got = relative_bucket(offset, bidirectional, 32, 128)
                want = _bucket_oracle(offset, bidirectional, 32, 128)
                assert got == want, (offset, bidirectional)

    def test_range_and_monotonicity(self):
        offsets = np.arange(-200, 201)
        for bidirectional in (True, False):
            buckets = relative_bucket(offsets, bidirectional, 32, 128)
            assert buckets.min() >= 0 and buckets.max() < 32
            neg = buckets[offsets <= 0][::-1]  # increasing |offset|
            assert (np.diff(neg) >= 0).all()
            if bidirectional:
                pos = buckets[offsets > 0]
                assert (np.diff(pos) >= 0).all()

    def test_config_admits_exactly_the_settings_it_can_bucket(self):
        # a setting buckets when, in both directions, every offset lands in
        # range with no floating-point error; ModelConfig admits just those
        offsets = np.arange(-400, 401)
        for buckets in range(1, 41):
            for distance in range(1, 101):
                try:
                    with np.errstate(all="raise"):
                        found = [relative_bucket(offsets, bidirectional, buckets, distance)
                                 for bidirectional in (True, False)]
                    bucketed = all(0 <= f.min() and f.max() < buckets for f in found)
                except ArithmeticError:  # ZeroDivisionError, FloatingPointError
                    bucketed = False
                try:
                    _tiny(rel_buckets=buckets, rel_max_distance=distance)
                    admitted = True
                except ValueError as e:
                    assert f"got {buckets} and {distance}" in str(e)
                    admitted = False
                assert admitted == bucketed, (buckets, distance)


class TestParameterCount:
    def test_small_preset_band(self):
        n = count_parameters(preset("small"))
        assert 5.5e7 <= n <= 8.0e7

    def test_large_preset_band(self):
        n = count_parameters(preset("large"))
        assert 7.0e8 <= n <= 8.0e8

    def test_all_dims_one(self):
        dims = dict(vocab_size=2, d_model=1, d_ff=1, n_heads=1, d_kv=1, enc_layers=1, dec_layers=1)
        with pytest.raises(ValueError, match="rel_buckets must be at least 4"):
            ModelConfig(**dims, rel_buckets=1, rel_max_distance=1)
        cfg = ModelConfig(**dims, rel_buckets=4, rel_max_distance=3)  # the fewest buckets relative_bucket takes
        params = init_params(cfg, np.random.default_rng(0))
        assert count_parameters(cfg) == sum(p.data.size for p in params.values())

    def test_formula_matches_allocation_on_random_configs(self):
        rng = np.random.default_rng(1)
        counted = 0
        for _ in range(50):
            settings = dict(
                vocab_size=int(rng.integers(2, 50)),
                d_model=int(rng.integers(1, 12)),
                d_ff=int(rng.integers(1, 20)),
                n_heads=int(rng.integers(1, 4)),
                d_kv=int(rng.integers(1, 6)),
                enc_layers=int(rng.integers(1, 4)),
                dec_layers=int(rng.integers(1, 4)),
                rel_buckets=int(rng.integers(2, 10)),
                rel_max_distance=int(rng.integers(4, 40)),
            )
            if settings["rel_buckets"] < 4 or settings["rel_max_distance"] <= settings["rel_buckets"] // 2:
                with pytest.raises(ValueError, match="rel_buckets must be at least 4"):
                    ModelConfig(**settings)
                continue
            cfg = ModelConfig(**settings)
            params = init_params(cfg, rng)
            assert count_parameters(cfg) == sum(p.data.size for p in params.values())
            counted += 1
        assert counted >= 30

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _tiny(d_model=0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig) if f.name != "dropout"])
    def test_every_size_field_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"ModelConfig.{name} must be positive"):
            _tiny(**{name: 0})

    # numpy integers are refused like the rest: json cannot write them into a checkpoint header
    @pytest.mark.parametrize("value", [2.0, True, "2", np.int64(2)], ids=["float", "bool", "str", "numpy"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig) if f.name != "dropout"])
    def test_every_size_field_must_be_an_int(self, name, value):
        with pytest.raises(TypeError, match=re.escape(f"ModelConfig.{name} must be an integer, got {value!r}")):
            _tiny(**{name: value})

    def test_exact_preset_counts(self):
        counts = {name: count_parameters(preset(name)) for name in ("tiny", "small", "large")}
        assert counts == {"tiny": 230_208, "small": 60_446_080, "large": 750_119_936}

    # sha256 over each parameter's path and bytes, in path order: a change to
    # a name, a shape, the order of the draws or a start value changes it,
    # and with it every loss, training.log and checkpoint
    @pytest.mark.parametrize("cfg, seed, dtype, digest", [
        pytest.param(preset("tiny"), 0, np.float32,
                     "b0b845fc3cd56d18544522f6db013ac560218678bdfe32df939a0aa9ec46d539", id="tiny-float32"),
        pytest.param(ModelConfig(vocab_size=97, d_model=24, d_ff=40, n_heads=3, d_kv=5, enc_layers=1,
                                 dec_layers=2, rel_buckets=6, rel_max_distance=20, dropout=0.0), 3, np.float64,
                     "e43523c9da72526facbaa6de5238d9a77afb9e7a002d35b27c3fece37cf625e3", id="d24-float64"),
    ])
    def test_init_params_draws_the_pinned_bytes(self, cfg, seed, dtype, digest):
        params = init_params(cfg, np.random.default_rng(seed), dtype)
        assert list(params) == list(param_shapes(cfg))
        h = hashlib.sha256()
        for name in sorted(params):
            assert params[name].data.dtype == dtype
            h.update(name.encode())
            h.update(params[name].data.tobytes())
        assert h.hexdigest() == digest


class TestBudget:
    def test_ratio_arithmetic(self):
        assert training_budget_ratio(1_000_000, 4096, 7.5e8) == pytest.approx(5.461, abs=0.001)
        assert training_budget_ratio(3_050_000, 8192, 7.5e8) == pytest.approx(33.31, abs=0.01)
        assert training_budget_ratio(763_000, 32768, 6.0e7) == pytest.approx(416.7, abs=0.1)

    def test_reference_table_within_five_percent(self):
        targets = {"large-1epoch": 5.5, "large-3epoch": 20.0, "large-5epoch": 33.0,
                   "small-1epoch": 68.0, "small-5epoch": 414.0}
        rows = budget_table()
        assert len(rows) == 5
        for name, _, _, _, _, ratio in rows:
            assert abs(ratio - targets[name]) / targets[name] < 0.05, name

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            training_budget_ratio(10, 10, 0)


class TestForward:
    def test_logit_shape_contract(self):
        cfg = _tiny(vocab=64)
        params = init_params(cfg, np.random.default_rng(2))
        logits = forward(cfg, params, np.zeros((2, 7), dtype=int) + 5, np.zeros((2, 5), dtype=int) + 6)
        assert logits.data.shape == (2, 5, 64)
        assert np.isfinite(logits.data).all()

    def test_ids_with_no_position_are_refused_naming_the_stack(self):
        from minit5.evaluation import greedy_decode

        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        with pytest.raises(ShapeError, match="encoder"):
            encode(cfg, params, [])
        with pytest.raises(ShapeError, match="encoder"):
            greedy_decode(cfg, params, [], 3)
        enc_out, enc_grid = encode(cfg, params, [[3, 4]])
        with pytest.raises(ShapeError, match="decoder"):
            decode_logits(cfg, params, enc_out, enc_grid, np.zeros((1, 0), dtype=int))
        with pytest.raises(ShapeError, match="decoder"):
            forward(cfg, params, [[3, 4]], np.zeros((1, 0), dtype=int))

    def test_causality_exact(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(3), dtype=np.float64)
        rng = np.random.default_rng(4)
        enc_in = rng.integers(3, 60, size=(1, 6))
        dec_a = rng.integers(3, 60, size=(1, 6))
        dec_b = dec_a.copy()
        t = 3
        dec_b[0, t] = (dec_b[0, t] + 1) % 60 + 3
        la = forward(cfg, params, enc_in, dec_a).data
        lb = forward(cfg, params, enc_in, dec_b).data
        # positions before t see identical prefixes: bitwise identical logits
        assert (la[0, :t] == lb[0, :t]).all()
        assert not np.allclose(la[0, t:], lb[0, t:])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_future_ids_leave_every_gradient_bitwise_unchanged(self, dtype):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(5), dtype=dtype)
        rng = np.random.default_rng(6)
        enc_in = rng.integers(3, 60, size=(1, 5))
        dec_in = rng.integers(3, 60, size=(1, 6))
        t = 2

        def grads(dec):
            # the loss reads only position t
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                logits = forward(cfg, params, enc_in, dec)
                backward(cross_entropy(embedding(reshape(logits, (6, cfg.vocab_size)), [t]), [7]), tape)
            return {name: p.grad.tobytes() for name, p in params.items()}

        base = grads(dec_in)
        future, present = dec_in.copy(), dec_in.copy()
        future[0, t + 1:] = (future[0, t + 1:] + 1) % 60 + 3
        present[0, t] = (present[0, t] + 1) % 60 + 3
        # every parameter, the tied embedding table included, sees nothing after t
        assert grads(future) == base
        assert any(g != base[name] for name, g in grads(present).items())

    def test_future_token_change_is_invisible(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(5), dtype=np.float64)
        rng = np.random.default_rng(6)
        enc_in = rng.integers(3, 60, size=(1, 5))
        dec_in = rng.integers(3, 60, size=(1, 6))
        t = 2

        def loss_at_t(ids):
            logits = reshape(forward(cfg, params, enc_in, ids), (6, cfg.vocab_size))
            return cross_entropy(embedding(logits, [t]), [7]).item()

        base = loss_at_t(dec_in)
        for future in range(t + 1, 6):
            perturbed = dec_in.copy()
            perturbed[0, future] = (perturbed[0, future] + 11) % 57 + 3
            other = loss_at_t(perturbed)
            assert other == base  # bitwise: future tokens cannot leak backward

    def test_pad_append_invariance(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        enc_in = rng.integers(3, 60, size=(2, 5))
        dec_in = rng.integers(3, 60, size=(2, 4))
        base = forward(cfg, params, enc_in, dec_in).data
        padded = np.concatenate([enc_in, np.zeros((2, 3), dtype=int)], axis=1)
        with_pad = forward(cfg, params, padded, dec_in).data
        assert np.abs(with_pad - base).max() < 1e-5

    def test_pad_tail_length_invariance(self):
        # masked pads carry exactly zero attention weight, so any amount of
        # trailing padding leaves the logits alone
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        body = rng.integers(3, 60, size=(1, 4))
        dec_in = rng.integers(3, 60, size=(1, 3))
        base = forward(cfg, params, body, dec_in).data
        for tail in (1, 2, 5):
            enc = np.concatenate([body, np.zeros((1, tail), dtype=int)], axis=1)
            out = forward(cfg, params, enc, dec_in).data
            assert np.abs(out - base).max() < 1e-5

    def test_out_of_range_ids_rejected(self):
        cfg = _tiny(vocab=16)
        params = init_params(cfg, np.random.default_rng(11))
        with pytest.raises(ShapeError):
            forward(cfg, params, np.array([[17]]), np.array([[1]]))

    @pytest.mark.parametrize("ids", [[[3.7]], [[3.0]], [[True]]])
    def test_non_integer_ids_rejected(self, ids):
        # a float id used to be truncated: 3.7 ran as id 3
        cfg = _tiny(vocab=16)
        params = init_params(cfg, np.random.default_rng(11))
        with pytest.raises(ShapeError, match="integer ids"):
            forward(cfg, params, np.array([[1]]), np.array(ids))
        with pytest.raises(ShapeError, match="integer ids"):
            forward(cfg, params, np.array(ids), np.array([[1]]))

    def test_ids_neither_1d_nor_2d_rejected(self):
        cfg = _tiny(vocab=16)
        params = init_params(cfg, np.random.default_rng(11))
        ids = np.ones((1, 2, 3), dtype=np.int64)
        refused = re.escape(" must be a batch of id sequences, got shape (1, 2, 3)")
        with pytest.raises(ShapeError, match="^input_ids" + refused):
            encode(cfg, params, ids)
        enc_out, enc_grid = encode(cfg, params, np.array([[3, 4]]))
        with pytest.raises(ShapeError, match="^decoder_input_ids" + refused):
            decode_logits(cfg, params, enc_out, enc_grid, ids)

    def test_an_empty_id_list_is_accepted(self):
        from minit5.model import _check_ids

        assert _check_ids([], 16, "ids").shape == (1, 0)

    def test_full_model_gradient_check(self):
        cfg = ModelConfig(vocab_size=20, d_model=8, d_ff=12, n_heads=2, d_kv=4,
                          enc_layers=2, dec_layers=2, rel_buckets=4, rel_max_distance=8,
                          dropout=0.0)
        rng = np.random.default_rng(12)
        params = init_params(cfg, rng, dtype=np.float64)
        enc_in = rng.integers(2, 20, size=(1, 5))
        dec_in = rng.integers(2, 20, size=(1, 4))
        targets = rng.integers(2, 20, size=4)

        def f():
            logits = forward(cfg, params, enc_in, dec_in)
            return cross_entropy(reshape(logits, (4, 20)), targets)

        err = finite_diff_check(f, params, max_coords_per_param=4,
                                rng=np.random.default_rng(13))
        assert err < 1e-4


def _pad_only_pairs(size):
    """`size` pairs of 64 rows each (48 input ids, 16 target ids); the input
    of pair size // 2 holds only the pad id."""
    rng = np.random.default_rng(size)
    pairs = [NoisedPair(rng.integers(3, 60, size=48).tolist(), rng.integers(3, 60, size=16).tolist())
             for _ in range(size)]
    pairs[size // 2] = NoisedPair([0] * 48, pairs[size // 2].target_ids)
    return pairs


# a batch whose teacher-forced loss runs as two parts
_SPLIT_SIZE = -(-training.SPLIT_WORK // (64 * _tiny().d_ff))


class TestPadOnlyInput:
    """An input that holds only the pad id has no encoder position, so
    cross-attention would have no key: encode refuses it naming its row,
    and teacher_forced_loss refuses the pair before any forward."""

    @pytest.mark.parametrize("size", [1, 2, _SPLIT_SIZE], ids=["alone", "mixed", "split"])
    def test_encode_and_forward_refuse_the_row(self, size):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        ids = np.array([p.input_ids for p in _pad_only_pairs(size)])
        with pytest.raises(ShapeError, match=f"^input_ids row {size // 2} holds only the pad id 0"):
            encode(cfg, params, ids)
        with pytest.raises(ShapeError, match=f"^input_ids row {size // 2} holds only the pad id 0"):
            forward(cfg, params, ids, np.ones((size, 3), dtype=np.int64))

    @pytest.mark.parametrize("ids", [[0], [0, 0], [[0, 0, 0]]])
    def test_greedy_decode_refuses_it(self, ids):
        from minit5.evaluation import greedy_decode

        cfg = _tiny()
        with pytest.raises(ShapeError, match="^input_ids row 0 holds only the pad id 0"):
            greedy_decode(cfg, init_params(cfg, np.random.default_rng(2)), ids, 3)

    @pytest.mark.parametrize("size", [1, 2, _SPLIT_SIZE], ids=["alone", "mixed", "split"])
    def test_teacher_forced_loss_refuses_the_pair_before_any_forward(self, size):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(2))
        pairs = _pad_only_pairs(size)
        assert (len(pairs) * 64 * cfg.d_ff >= training.SPLIT_WORK) == (size == _SPLIT_SIZE)
        with Tape() as tape:
            with pytest.raises(TrainingError, match="only the pad id 0"):
                teacher_forced_loss(cfg, params, pairs)
        assert tape.nodes == []


class TestFusedOps:
    """The model's fused attention and feed-forward ops against the
    primitive-op compositions they replaced."""

    @staticmethod
    def _compose(monkeypatch):
        import minit5.model as model

        monkeypatch.setattr(model, "attention", attention_composition)
        monkeypatch.setattr(model, "gated_gelu_ffn", gated_gelu_ffn_composition)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inference_logits_bitwise_equal_to_composition(self, seed, monkeypatch):
        cfg, params, rng = _random_bias_model(seed, np.float32)
        enc_in = np.concatenate([rng.integers(3, 60, size=(2, 7)), np.zeros((2, 2), dtype=int)], axis=1)
        dec_in = rng.integers(3, 60, size=(2, 6))
        fused = forward(cfg, params, enc_in, dec_in).data
        self._compose(monkeypatch)
        composed = forward(cfg, params, enc_in, dec_in).data
        assert np.array_equal(fused, composed)

    def _step(self, cfg, params, enc_in, dec_in, targets):
        for p in params.values():
            p.grad = None
        with Tape() as tape:
            logits = forward(cfg, params, enc_in, dec_in, train=True, rng=np.random.default_rng(0))
            loss = cross_entropy(reshape(logits, (-1, cfg.vocab_size)), targets.reshape(-1))
            backward(loss, tape)
        return loss.item(), {k: p.grad for k, p in params.items()}

    def test_training_step_matches_composition_float64(self, monkeypatch):
        # dropout on: the fused ops draw their masks in the composition's order
        cfg, params, rng = _random_bias_model(5, np.float64)
        cfg.dropout = 0.2
        enc_in = np.concatenate([rng.integers(3, 60, size=(2, 7)), np.zeros((2, 2), dtype=int)], axis=1)
        dec_in = rng.integers(3, 60, size=(2, 6))
        targets = rng.integers(3, 60, size=(2, 6))
        outputs = []  # every op output the tape records, collected as forward makes them

        def record(out, inputs, vjp, rebuild=None):
            outputs.append(tensor_record(out, inputs, vjp, rebuild))
            return outputs[-1]

        tensor_record = tensor._record
        monkeypatch.setattr(tensor, "_record", record)
        loss, grads = self._step(cfg, params, enc_in, dec_in, targets)
        assert outputs and all(t.grad is None for t in outputs if t.requires_grad)  # intermediates get no .grad
        assert all(g is not None for g in grads.values())
        self._compose(monkeypatch)
        ref_loss, ref_grads = self._step(cfg, params, enc_in, dec_in, targets)
        assert abs(loss - ref_loss) < 1e-12
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)


def _random_bias_model(seed, dtype, **overrides):
    """Random weights and random relative-bias tables: init leaves the tables
    at zero, which would hide a wrong bucket or query offset."""
    cfg = _tiny(rel_buckets=8, rel_max_distance=8, **overrides)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng, dtype=dtype)
    for key in ("encoder.rel_bias", "decoder.rel_bias"):
        params[key].data[...] = rng.normal(0.0, 1.0, size=params[key].data.shape)
    return cfg, params, rng


class TestDecodeCache:
    def _inputs(self, rng, dec_len):
        enc_in = np.concatenate([rng.integers(3, 60, size=(1, 6)), [[0]],
                                 rng.integers(3, 60, size=(1, 3)), [[0, 0]]], axis=1)
        return enc_in, rng.integers(3, 60, size=(1, dec_len))

    def _cached(self, cfg, params, enc_in, dec_in):
        """Logits of one cached call per position, joined along the positions."""
        from minit5.model import DecodeCache, decode_logits, encode

        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache = DecodeCache(cfg, params, enc_out, enc_grid, dec_in.shape[1])
        rows = [decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, t:t + 1], cache=cache).data
                for t in range(dec_in.shape[1])]
        assert cache.length == dec_in.shape[1]
        return np.concatenate(rows, axis=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_by_step_calls_match_one_full_call_float64(self, seed):
        # 30 positions run past rel_max_distance=8, into the log buckets
        # and the clamp
        cfg, params, rng = _random_bias_model(seed, np.float64)
        enc_in, dec_in = self._inputs(rng, 30)
        full = forward(cfg, params, enc_in, dec_in).data
        assert np.abs(self._cached(cfg, params, enc_in, dec_in) - full).max() < 1e-10

    def test_batch_of_two_step_by_step_calls_match_one_full_call_float64(self):
        # the cache writes each row's K/V into its own buffer row; row 1's input
        # ends in pads, so cross-attention reads packed encoder rows
        cfg, params, rng = _random_bias_model(6, np.float64)
        enc_in = rng.integers(3, 60, size=(2, 9))
        enc_in[1, 6:] = 0
        dec_in = rng.integers(3, 60, size=(2, 12))
        full = forward(cfg, params, enc_in, dec_in).data
        assert np.abs(self._cached(cfg, params, enc_in, dec_in) - full).max() < 1e-10

    def test_step_by_step_logits_allclose_to_full_call_float32(self):
        cfg, params, rng = _random_bias_model(3, np.float32)
        enc_in, dec_in = self._inputs(rng, 24)
        full = forward(cfg, params, enc_in, dec_in).data
        assert np.allclose(self._cached(cfg, params, enc_in, dec_in), full, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dec_layers", [1, 3])
    def test_padded_batch_of_two_at_other_depths_float64(self, dec_layers):
        # each self block writes and reads its own layer's slot of the K/V
        # buffer, in order: the logits match one full call, and slot i holds
        # layer i's K/V as the per-step oracle forms them
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(60 + dec_layers, np.float64, dec_layers=dec_layers)
        enc_in = rng.integers(3, 60, size=(2, 9))
        enc_in[0, 2], enc_in[1, 6:] = 0, 0
        dec_in = rng.integers(3, 60, size=(2, 12))
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache, oracle = DecodeCache(cfg, params, enc_out, enc_grid, 12), _JoinedState()
        rows = []
        for t in range(12):
            rows.append(decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, t:t + 1], cache=cache).data)
            oracle.logits(cfg, params, enc_out, enc_grid, dec_in[:, t:t + 1])
        full = forward(cfg, params, enc_in, dec_in).data
        assert np.abs(np.concatenate(rows, axis=1) - full).max() < 1e-10
        assert len(cache._kv) == len(oracle.kv) == dec_layers
        for i in range(dec_layers):
            for slot, want in zip(cache._kv[i], oracle.kv[i]):
                assert np.abs(slot - want.data.reshape(slot.shape)).max() < 1e-10

    def test_cache_refuses_training_and_an_active_tape(self):
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(4, np.float64)
        enc_in, dec_in = self._inputs(rng, 1)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache = DecodeCache(cfg, params, enc_out, enc_grid, 3)
        with pytest.raises(ValueError):
            decode_logits(cfg, params, enc_out, enc_grid, dec_in, cache=cache, train=True,
                          rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            decode_logits(cfg, params, enc_out, enc_grid, dec_in, cache=cache, lengths=[1])
        with Tape() as tape:
            with pytest.raises(ValueError):
                decode_logits(cfg, params, enc_out, enc_grid, dec_in, cache=cache)
        assert tape.nodes == [] and cache.length == 0


def _join_rows(old, new, batch):
    """Rows of two all-real grids of `batch` rows, each grid row's positions
    followed by its new ones."""
    f = new.shape[-1]
    return np.concatenate((old.reshape(batch, -1, f), new.reshape(batch, -1, f)), axis=1).reshape(-1, f)


class _JoinedState:
    """Test oracle: the cached decoder step as it was built before DecodeCache
    kept buffers. Every call re-joins each layer's self-attention K/V rows,
    and rebuilds the relative bias with `_rel_bias`."""

    def __init__(self):
        self.length = 0
        self.cross = {}
        self.kv = {}

    def logits(self, cfg, params, enc_out, enc_grid, ids):
        import minit5.model as model
        from minit5.tensor import Tensor, add, attention, gated_gelu_ffn, matmul, mul, rms_norm, transpose

        def project_kv(prefix, rows):
            return matmul(rows, params[f"{prefix}.k"]), matmul(rows, params[f"{prefix}.v"])

        def attend(prefix, h, kv, grids, causal, bias):
            ctx = attention(matmul(h, params[f"{prefix}.q"]), *kv, cfg.n_heads, cfg.d_kv**-0.5, grids, bias=bias,
                            causal=causal)
            return matmul(ctx, params[f"{prefix}.o"])

        b, n = ids.shape
        positions = np.arange(self.length, self.length + n)
        n_keys = self.length + n
        bias = model._rel_bias(params, "decoder.rel_bias", positions, n_keys, False, cfg)
        self_grids = ((None, (b, n)), (None, (b, n_keys)))
        cross_grids = ((None, (b, n)), enc_grid)
        x = embedding(params["embedding"], ids.reshape(-1))
        for i in range(cfg.dec_layers):
            base = f"decoder.layers.{i}"
            h = rms_norm(x, params[f"{base}.self_norm"])
            kv = project_kv(f"{base}.self", h)
            if i in self.kv:
                kv = tuple(Tensor(_join_rows(old.data, new.data, b)) for old, new in zip(self.kv[i], kv))
            self.kv[i] = kv
            x = add(x, attend(f"{base}.self", h, kv, self_grids, True, bias))
            h = rms_norm(x, params[f"{base}.cross_norm"])
            if i not in self.cross:
                self.cross[i] = project_kv(f"{base}.cross", enc_out)
            x = add(x, attend(f"{base}.cross", h, self.cross[i], cross_grids, False, None))
            h = rms_norm(x, params[f"{base}.ffn_norm"])
            x = add(x, gated_gelu_ffn(h, params[f"{base}.ffn.wi_0"], params[f"{base}.ffn.wi_1"],
                                      params[f"{base}.ffn.wo"]))
        self.length = n_keys
        x = rms_norm(x, params["decoder.final_norm"])
        logits = mul(matmul(x, transpose(params["embedding"])), cfg.d_model**-0.5)
        return logits.data.reshape(b, n, cfg.vocab_size)


class TestDecodeCacheBuffers:
    """DecodeCache's K/V buffer and bias table against the per-step
    construction they replaced, and the buffer's own invariants."""

    @staticmethod
    def _batch(rng, batch, dec_len):
        enc_in = rng.integers(3, 60, size=(batch, 11))
        enc_in[-1, 7:] = 0  # the last row's input ends in pads
        enc_in[0, 3] = 0  # and the first holds one inside
        return enc_in, rng.integers(3, 60, size=(batch, dec_len))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_logits_bitwise_equal_to_per_step_construction_float32(self, batch):
        # 40 positions run past 3 * rel_max_distance = 24, where every
        # offset is clamped
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(30 + batch, np.float32)
        steps = 40
        assert steps > 3 * cfg.rel_max_distance
        enc_in, dec_in = self._batch(rng, batch, steps)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache, oracle = DecodeCache(cfg, params, enc_out, enc_grid, steps), _JoinedState()
        for t in range(steps):
            ids = dec_in[:, t:t + 1]
            got = decode_logits(cfg, params, enc_out, enc_grid, ids, cache=cache).data
            want = oracle.logits(cfg, params, enc_out, enc_grid, ids)
            assert got.dtype == np.float32
            assert np.array_equal(got, want), t
        assert cache.length == oracle.length == steps

    def test_one_buffer_is_written_in_place(self):
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(40, np.float32)
        enc_in, dec_in = self._batch(rng, 1, 300)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache = DecodeCache(cfg, params, enc_out, enc_grid, 300)
        buf = cache._kv
        before = buf.copy()  # a snapshot of the buffer after each step, compared bit for bit
        for t in range(300):
            decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, t:t + 1], cache=cache)
            after = cache._kv.copy()
            assert cache._kv is buf
            written = (after.view(np.uint32) != before.view(np.uint32)).any(axis=(2, 4))  # [layers, 2, capacity]
            assert written[..., t].all() and not written[..., t + 1:].any()  # one position per step, every layer
            assert not written[..., :t].any()  # earlier positions stay put
            before = after

    def test_steps_never_read_the_encoder_output_again(self):
        # the cross K/V are laid onto the padded encoder grid once, when the
        # cache is built
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(42, np.float32)
        enc_in, dec_in = self._batch(rng, 2, 12)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        assert enc_grid[0] is not None
        caches = [DecodeCache(cfg, params, enc_out, enc_grid, 12) for _ in range(2)]

        def logits(cache):
            return [decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, t:t + 1], cache=cache).data
                    for t in range(12)]

        want = logits(caches[0])
        enc_out.data[...] = np.nan
        got = logits(caches[1])
        assert all(np.isfinite(g).all() and np.array_equal(g, w) for g, w in zip(got, want))

    def test_greedy_steps_give_the_pinned_logits_and_ids(self):
        # sha256 of the stacked step logits and of the greedy ids of a padded
        # batch of two, at float32: a change to any bit of a cached step shows
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(53, np.float32)
        steps = 40
        enc_in, _ = self._batch(rng, 2, 0)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache = DecodeCache(cfg, params, enc_out, enc_grid, steps)
        ids = np.zeros((2, 1), dtype=np.int64)  # the start symbol
        rows, picked = [], []
        for _ in range(steps):
            rows.append(decode_logits(cfg, params, enc_out, enc_grid, ids, cache=cache).data)
            ids = rows[-1].argmax(axis=-1)
            picked.append(ids)
        assert hashlib.sha256(np.concatenate(rows, axis=1).tobytes()).hexdigest() == (
            "96dcac1e6e468d43aa1fcb5ee66812354d745c6e548252848c63d2e6f9ec61a0")
        assert hashlib.sha256(np.concatenate(picked, axis=1).tobytes()).hexdigest() == (
            "ecb26e2858bf8fda30474b10b6198177270d30b1a3c13b21313c4d101838446b")

    def test_a_call_that_does_not_fit_is_refused_and_changes_nothing(self):
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(41, np.float32)
        enc_in, dec_in = self._batch(rng, 2, 3)
        enc_out, enc_grid = encode(cfg, params, enc_in)
        cache = DecodeCache(cfg, params, enc_out, enc_grid, 2)
        decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, :1], cache=cache)

        def refused(ids, match):
            state = cache._kv.tobytes()
            for call in (lambda: decode_logits(cfg, params, enc_out, enc_grid, ids, cache=cache),
                         lambda: cache.step(ids)):
                with pytest.raises(ShapeError, match=match):
                    call()
                assert cache._kv.tobytes() == state

        refused(dec_in[:1, 1:2], r"batch of 2.*\(1, 1\)")
        refused(dec_in[:, 1:3], r"batch of 2.*\(2, 2\)")
        # step used to embed -1 as the last vocab row and to raise IndexError at vocab_size
        refused(np.array([[-1], [3]]), rf"outside \[0, {cfg.vocab_size}\)")
        refused(np.array([[3], [cfg.vocab_size]]), rf"outside \[0, {cfg.vocab_size}\)")
        refused(np.array([[3.7], [3.0]]), "integer ids")
        assert cache.length == 1
        decode_logits(cfg, params, enc_out, enc_grid, dec_in[:, 1:2], cache=cache)
        refused(dec_in[:, 2:3], "full")
        assert cache.length == 2


def _ragged_batch(rng, size):
    """Pairs of ragged lengths; about a third of the inputs hold pad ids
    (id 0) inside them, which are never rows, in a batch or alone."""
    pairs = []
    for _ in range(size):
        inputs = rng.integers(3, 60, size=int(rng.integers(1, 9)))
        if inputs.size > 2 and rng.random() < 0.35:
            inputs[rng.integers(1, inputs.size - 1)] = 0
        pairs.append(NoisedPair(inputs.tolist(), rng.integers(3, 60, size=int(rng.integers(1, 7))).tolist()))
    return pairs


class TestRowLayout:
    """The row layout computes real positions only: a padded batch gives the
    same loss, gradients and logits as its examples run one at a time,
    which have no padding at all."""

    @staticmethod
    def _loss_and_grads(cfg, params, pairs):
        for p in params.values():
            p.grad = None
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, pairs)
            backward(loss, tape)
        return loss.item(), {k: np.zeros_like(p.data) if p.grad is None else p.grad for k, p in params.items()}

    @pytest.mark.parametrize("seed", range(24))
    def test_batch_loss_and_gradients_equal_per_example_runs(self, seed):
        cfg, params, rng = _random_bias_model(100 + seed, np.float64)
        pairs = _ragged_batch(rng, int(rng.integers(2, 6)))
        loss, grads = self._loss_and_grads(cfg, params, pairs)
        counts = [len(p.target_ids) for p in pairs]
        ref_loss, ref_grads = 0.0, {k: np.zeros_like(g) for k, g in grads.items()}
        for pair, n in zip(pairs, counts):  # the batch mean is the token-weighted mean of the examples
            one_loss, one_grads = self._loss_and_grads(cfg, params, [pair])
            ref_loss += one_loss * n / sum(counts)
            for k, g in one_grads.items():
                ref_grads[k] += g * n / sum(counts)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        for k, g in grads.items():
            assert np.abs(g - ref_grads[k]).max() <= 1e-10 * np.abs(ref_grads[k]).max(), k

    def test_feed_forward_sees_real_positions_only(self, monkeypatch):
        import minit5.model as model
        from minit5.tensor import gated_gelu_ffn

        rows = []

        def counted_ffn(x, *args, **kwargs):
            rows.append(x.shape[0])
            return gated_gelu_ffn(x, *args, **kwargs)

        monkeypatch.setattr(model, "gated_gelu_ffn", counted_ffn)
        cfg = _tiny(enc_layers=3, dec_layers=2, dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0))
        pairs = _ragged_batch(np.random.default_rng(1), 6)
        with Tape() as tape:
            backward(teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2)), tape)
        enc_real = sum(int(np.count_nonzero(p.input_ids)) for p in pairs)
        dec_real = sum(len(p.target_ids) for p in pairs)
        assert max(len(p.input_ids) for p in pairs) * len(pairs) > enc_real  # the batch has padding
        assert len(rows) == cfg.enc_layers + cfg.dec_layers
        assert sum(rows) == enc_real * cfg.enc_layers + dec_real * cfg.dec_layers

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_padded_forward_logits_match_per_example_runs_float32(self, seed):
        cfg, params, rng = _random_bias_model(200 + seed, np.float32)
        pairs = _ragged_batch(rng, 5)
        enc_in = np.zeros((5, max(len(p.input_ids) for p in pairs)), dtype=np.int64)
        dec_in = np.zeros((5, max(len(p.target_ids) for p in pairs)), dtype=np.int64)
        for i, p in enumerate(pairs):
            enc_in[i, : len(p.input_ids)] = p.input_ids
            dec_in[i, 1 : len(p.target_ids)] = p.target_ids[:-1]
        logits = forward(cfg, params, enc_in, dec_in).data
        assert logits.shape == (*dec_in.shape, cfg.vocab_size)
        for i, p in enumerate(pairs):
            n = len(p.target_ids)
            one = forward(cfg, params, [p.input_ids], dec_in[i : i + 1, :n]).data[0]
            np.testing.assert_allclose(logits[i, :n], one, rtol=1e-4, atol=1e-5)
            assert (logits[i, :n].argmax(-1) == one.argmax(-1)).all()

    def test_lengths_select_the_real_decoder_rows(self):
        from minit5.model import decode_logits, encode

        cfg, params, rng = _random_bias_model(7, np.float64)
        enc_in = rng.integers(3, 60, size=(3, 5))
        dec_in = rng.integers(3, 60, size=(3, 4))
        dec_in[:, 0] = 0  # the start symbol is the pad id, and real
        enc_out, enc_grid = encode(cfg, params, enc_in)
        full = decode_logits(cfg, params, enc_out, enc_grid, dec_in).data
        rows = decode_logits(cfg, params, enc_out, enc_grid, dec_in, lengths=[4, 1, 2]).data
        assert rows.shape == (7, cfg.vocab_size)
        np.testing.assert_allclose(rows, np.concatenate([full[0], full[1, :1], full[2, :2]]),
                                   rtol=1e-12, atol=1e-12)
        for bad in ([0, 1, 2], [5, 1, 1], [1, 2], [2.5, 1, 1], [True, 1, 1]):
            with pytest.raises(ShapeError):
                decode_logits(cfg, params, enc_out, enc_grid, dec_in, lengths=bad)


class TestTapeMemory:
    # 1.21 MB measured when the norm outputs and the q/k/v rows became
    # rebuild recipes (2.76 MB before, 4.43 MB while the feed-forward kept
    # its input projections), plus a 10% margin. Move this bound only with
    # its reason written in CHANGES.md.
    HELD_BOUND = 1_330_000

    @staticmethod
    def _padded_d64_step():
        """A d64 model at dropout 0.1 and a batch of 8 pairs of unequal lengths."""
        cfg = ModelConfig(vocab_size=256, d_model=64, d_ff=256, n_heads=4, d_kv=16, enc_layers=2,
                          dec_layers=2, rel_buckets=8, rel_max_distance=32, dropout=0.1)
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        pairs = [NoisedPair(rng.integers(3, 256, size=int(rng.integers(24, 64))).tolist(),
                            rng.integers(3, 256, size=int(rng.integers(4, 16))).tolist()) for _ in range(8)]
        return cfg, params, pairs

    def test_bytes_held_after_a_training_forward_stay_under_the_bound(self):
        cfg, params, pairs = self._padded_d64_step()
        held, _ = held_after_forward(
            lambda: teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2)))
        assert held < self.HELD_BOUND, held

    def test_backward_lets_each_node_go_as_it_replays_it(self):
        # backward must hand back every parameter's gradient, its largest op,
        # the encoder feed-forward, works in three [rows, d_ff] buffers, and
        # a rule forms again at most the inputs of an encoder attention, its
        # q, k and v rows; past that, the peak stays under what forward held
        # only when the replayed nodes' arrays are freed as the gradients
        # arrive
        cfg, params, pairs = self._padded_d64_step()
        grads = sum(p.data.nbytes for p in params.values())
        enc_rows = sum(len(p.input_ids) for p in pairs)
        ffn = 3 * enc_rows * cfg.d_ff * 4
        rebuilt = 3 * enc_rows * cfg.inner_dim * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2))
                held = tracemalloc.get_traced_memory()[0] - before
                tracemalloc.reset_peak()
                backward(loss, tape)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < held + grads + ffn + rebuilt, (peak, held, grads, ffn, rebuilt)

    def test_two_steps_give_the_pinned_loss_and_gradients(self):
        # sha256 of each step's loss and every gradient, in path order, at
        # dropout 0.1; recorded while every backward rule kept its inputs'
        # arrays, so a rule that forms an input again must form it bit for bit
        cfg, params, pairs = self._padded_d64_step()
        opt, rng = AdamW(params, lr=1e-2), np.random.default_rng(2)
        digests = []
        for _ in range(2):
            with Tape() as tape:
                loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=rng)
                backward(loss, tape)
            h = hashlib.sha256(loss.data.tobytes())
            for name in sorted(params):
                h.update(name.encode())
                h.update(params[name].grad.tobytes())
            digests.append(h.hexdigest())
            opt.step()
            opt.zero_grad()
        assert digests == ["6897a2700c8ca5ea390dbf7d6ac240f76fca6be3e3998c4b1d8cf9e92e0dd941",
                           "b352439753d6dcab3e680c1e42b14d8392bcfb16c3854ed5787db0240e015bda"]

    def test_backward_hands_each_parameter_over_once_after_its_last_reader(self):
        # the tied embedding is read by both lookups and the output
        # projection; it goes only when the encoder lookup, recorded first,
        # has replayed. The arrays handed over are the plain .grad arrays.
        cfg, params, pairs = self._padded_d64_step()
        names = {p: name for name, p in params.items()}
        handed = {}
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2))
            readers = [[i for i, node in enumerate(tape.nodes) if p in node.inputs] for p in params.values()]
            first = {name: r[0] for name, r in zip(params, readers)}

            def on_leaf(leaf, g):
                assert names[leaf] not in handed
                handed[names[leaf]] = (len(tape.nodes), g)

            backward(loss, tape, on_leaf=on_leaf)
        assert len(readers[list(params).index("embedding")]) == 3
        assert {name: left for name, (left, _) in handed.items()} == first
        assert all(p.grad is None for p in params.values())
        with Tape() as tape:
            backward(teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2)), tape)
        assert all(handed[name][1].tobytes() == p.grad.tobytes() for name, p in params.items())

    def test_norm_outputs_and_q_k_v_rows_are_freed_by_the_end_of_forward(self, monkeypatch):
        # the q/k/v projections, the feed-forward and the tied output
        # projection keep rebuild recipes of the norm outputs they read, and
        # attention those of its q, k and v rows
        import minit5.model as model

        cfg, params, pairs = self._padded_d64_step()
        projections = {id(p) for name, p in params.items() if name.rsplit(".", 1)[-1] in ("q", "k", "v")}
        norms, rows = [], []

        def rms_norm(x, gain):
            out = model_rms_norm(x, gain)
            norms.append(weakref.ref(out.data))
            return out

        def matmul(a, b):
            out = model_matmul(a, b)
            if id(b) in projections:
                rows.append(weakref.ref(out.data))
            return out

        model_rms_norm, model_matmul = model.rms_norm, model.matmul
        monkeypatch.setattr(model, "rms_norm", rms_norm)
        monkeypatch.setattr(model, "matmul", matmul)
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2))
            assert len(norms) == 2 * cfg.enc_layers + 1 + 3 * cfg.dec_layers + 1
            assert len(rows) == 3 * cfg.enc_layers + 6 * cfg.dec_layers
            assert [r for r in norms + rows if r() is not None] == []
            backward(loss, tape)
        assert all(p.grad is not None for p in params.values())

    def _step_with_recipes(self, monkeypatch, wrap):
        """Loss and gradients, as bytes, of one step of _padded_d64_step with
        every rebuild recipe replaced by wrap(recipe, kind) before _record
        stores it; kind is "norm" for an rms_norm output, else "product"."""
        record = tensor._record

        def wrapped(out, inputs, vjp, rebuild=None):
            if rebuild is not None:
                rebuild = wrap(rebuild, "norm" if inputs[1].data.ndim == 1 else "product")
            return record(out, inputs, vjp, rebuild)

        monkeypatch.setattr(tensor, "_record", wrapped)
        cfg, params, pairs = self._padded_d64_step()
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2))
            backward(loss, tape)
        return [loss.data.tobytes()] + [params[name].grad.tobytes() for name in sorted(params)]

    def test_each_recipe_forms_its_array_at_most_once_per_backward(self, monkeypatch):
        # a norm output is read by attention (through its q, k and v recipes)
        # and by the weight gradients of q, k and v, and the encoder's final
        # norm by every decoder layer's cross K/V; all those readers share
        # one formed array, so each norm output is formed exactly once
        formations = []

        def counted(recipe, kind):
            count, last = [kind, 0], [lambda: None]  # a weak reference to the last array formed
            formations.append(count)

            def form():
                arr = recipe()
                if last[0]() is not arr:
                    count[1] += 1
                    last[0] = weakref.ref(arr)
                return arr

            return form

        self._step_with_recipes(monkeypatch, counted)
        cfg = self._padded_d64_step()[0]
        norms = [n for kind, n in formations if kind == "norm"]
        products = [n for kind, n in formations if kind == "product"]
        assert norms == [1] * (2 * cfg.enc_layers + 1 + 3 * cfg.dec_layers + 1)
        # the q, k and v rows, each formed once by attention; the tied output
        # projection's recipe is never called
        assert products.count(1) == 3 * cfg.enc_layers + 6 * cfg.dec_layers and max(products) == 1

    def test_no_rule_writes_into_a_formed_array(self, monkeypatch):
        # the readers of a norm output share the array its recipe formed, so
        # a rule that wrote into it would hand the next reader other values;
        # with every formed array read-only, the step gives the plain bits
        def read_only(recipe, kind):
            def form():
                arr = recipe()
                arr.flags.writeable = False
                return arr

            return form

        plain = self._step_with_recipes(monkeypatch, lambda recipe, kind: recipe)
        assert self._step_with_recipes(monkeypatch, read_only) == plain

    def test_an_o_projection_output_is_freed_by_the_end_of_forward(self, monkeypatch):
        # attention's output projection feeds only the residual add, whose
        # backward rule reads neither operand
        import minit5.model as model

        cfg, params, pairs = self._padded_d64_step()
        o = params["encoder.layers.0.attn.o"]
        refs = []

        def matmul(a, b):
            out = model_matmul(a, b)
            if b is o:
                refs.append(weakref.ref(out.data))
            return out

        model_matmul = model.matmul
        monkeypatch.setattr(model, "matmul", matmul)
        with Tape() as tape:
            loss = teacher_forced_loss(cfg, params, pairs, train=True, rng=np.random.default_rng(2))
            assert len(refs) == 1 and refs[0]() is None
            backward(loss, tape)
