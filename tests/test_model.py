import math

import numpy as np
import pytest

from minit5.gradcheck import finite_diff_check
from minit5.model import (
    ModelConfig,
    ShapeError,
    budget_table,
    count_parameters,
    forward,
    init_params,
    preset,
    relative_bucket,
    training_budget_ratio,
)
from minit5.tensor import Tape, backward, cross_entropy, reshape
from test_gradcheck import attention_composition, gated_gelu_ffn_composition


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


class TestParameterCount:
    def test_small_preset_band(self):
        n = count_parameters(preset("small"))
        assert 5.5e7 <= n <= 8.0e7

    def test_large_preset_band(self):
        n = count_parameters(preset("large"))
        assert 7.0e8 <= n <= 8.0e8

    def test_all_dims_one(self):
        cfg = ModelConfig(vocab_size=2, d_model=1, d_ff=1, n_heads=1, d_kv=1,
                          enc_layers=1, dec_layers=1, rel_buckets=1, rel_max_distance=1)
        params = init_params(cfg, np.random.default_rng(0))
        assert count_parameters(cfg) == sum(p.data.size for p in params.values())

    def test_formula_matches_allocation_on_random_configs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cfg = ModelConfig(
                vocab_size=int(rng.integers(2, 50)),
                d_model=int(rng.integers(1, 12)),
                d_ff=int(rng.integers(1, 20)),
                n_heads=int(rng.integers(1, 4)),
                d_kv=int(rng.integers(1, 6)),
                enc_layers=int(rng.integers(1, 4)),
                dec_layers=int(rng.integers(1, 4)),
                rel_buckets=int(rng.integers(2, 10)),
                rel_max_distance=int(rng.integers(4, 40)),
                gated_ffn=bool(rng.integers(0, 2)),
            )
            params = init_params(cfg, rng)
            assert count_parameters(cfg) == sum(p.data.size for p in params.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _tiny(d_model=0)


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

    def test_future_gradient_exactly_zero(self):
        from minit5.model import decode_logits, encode
        from minit5.tensor import Tensor, add, embedding

        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(5), dtype=np.float64)
        rng = np.random.default_rng(6)
        enc_in = rng.integers(3, 60, size=(1, 5))
        dec_in = rng.integers(3, 60, size=(1, 6))
        t = 2
        targets = np.array([0, 0, 7, 0, 0, 0])  # loss reads only position t
        probe = Tensor(np.zeros((1, 6, cfg.d_model)), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            enc_out, enc_mask = encode(cfg, params, enc_in)
            embeds = add(embedding(params["embedding"], dec_in), probe)
            logits = decode_logits(cfg, params, enc_out, enc_mask, dec_in, inputs_embeds=embeds)
            loss = cross_entropy(reshape(logits, (6, cfg.vocab_size)), targets, ignore_id=0)
            backward(loss, tape)
        # gradient w.r.t. embedded decoder inputs: zero (exactly) after t
        assert (probe.grad[0, t + 1 :] == 0.0).all()
        assert np.abs(probe.grad[0, : t + 1]).max() > 0

    def test_future_token_change_is_invisible(self):
        cfg = _tiny()
        params = init_params(cfg, np.random.default_rng(5), dtype=np.float64)
        rng = np.random.default_rng(6)
        enc_in = rng.integers(3, 60, size=(1, 5))
        dec_in = rng.integers(3, 60, size=(1, 6))
        t = 2
        targets = np.array([0, 0, 7, 0, 0, 0])
        base = cross_entropy(
            reshape(forward(cfg, params, enc_in, dec_in), (6, cfg.vocab_size)), targets, ignore_id=0
        ).item()
        for future in range(t + 1, 6):
            perturbed = dec_in.copy()
            perturbed[0, future] = (perturbed[0, future] + 11) % 57 + 3
            other = cross_entropy(
                reshape(forward(cfg, params, enc_in, perturbed), (6, cfg.vocab_size)),
                targets,
                ignore_id=0,
            ).item()
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
            return cross_entropy(reshape(logits, (4, 20)), targets, ignore_id=0)

        err = finite_diff_check(f, params, max_coords_per_param=4,
                                rng=np.random.default_rng(13))
        assert err < 1e-4


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
            loss = cross_entropy(reshape(logits, (-1, cfg.vocab_size)), targets.reshape(-1), ignore_id=0)
            backward(loss, tape)
        return loss.item(), {k: p.grad for k, p in params.items()}, tape

    def test_training_step_matches_composition_float64(self, monkeypatch):
        # dropout on: the fused ops draw their masks in the composition's order
        cfg, params, rng = _random_bias_model(5, np.float64)
        cfg.dropout = 0.2
        enc_in = np.concatenate([rng.integers(3, 60, size=(2, 7)), np.zeros((2, 2), dtype=int)], axis=1)
        dec_in = rng.integers(3, 60, size=(2, 6))
        targets = rng.integers(3, 60, size=(2, 6))
        loss, grads, tape = self._step(cfg, params, enc_in, dec_in, targets)
        assert all(node.out.grad is None for node in tape.nodes)  # intermediates get no .grad
        assert all(g is not None for g in grads.values())
        self._compose(monkeypatch)
        ref_loss, ref_grads, _ = self._step(cfg, params, enc_in, dec_in, targets)
        assert abs(loss - ref_loss) < 1e-12
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)


def _random_bias_model(seed, dtype):
    """Random weights and random relative-bias tables: init leaves the tables
    at zero, which would hide a wrong bucket or query offset."""
    cfg = _tiny(rel_buckets=8, rel_max_distance=8)
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

    def _cached(self, cfg, params, enc_in, dec_in, chunks):
        from minit5.model import DecodeCache, decode_logits, encode

        enc_out, enc_mask = encode(cfg, params, enc_in)
        cache = DecodeCache()
        rows, start = [], 0
        for n in chunks:
            rows.append(decode_logits(cfg, params, enc_out, enc_mask, dec_in[:, start:start + n],
                                      cache=cache).data)
            start += n
        assert cache.length == dec_in.shape[1]
        return np.concatenate(rows, axis=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunked_calls_match_one_full_call_float64(self, seed):
        # 30 positions run past rel_max_distance=8, into the log buckets
        # and the clamp; chunks of several positions exercise the causal
        # mask at a non-zero query offset
        cfg, params, rng = _random_bias_model(seed, np.float64)
        enc_in, dec_in = self._inputs(rng, 30)
        full = forward(cfg, params, enc_in, dec_in).data
        cached = self._cached(cfg, params, enc_in, dec_in, [1, 4, 1, 10, 14])
        assert np.abs(cached - full).max() < 1e-10

    def test_step_by_step_logits_allclose_to_full_call_float32(self):
        cfg, params, rng = _random_bias_model(3, np.float32)
        enc_in, dec_in = self._inputs(rng, 24)
        full = forward(cfg, params, enc_in, dec_in).data
        cached = self._cached(cfg, params, enc_in, dec_in, [1] * 24)
        assert np.allclose(cached, full, rtol=1e-4, atol=1e-5)

    def test_cache_refuses_training_and_an_active_tape(self):
        from minit5.model import DecodeCache, decode_logits, encode

        cfg, params, rng = _random_bias_model(4, np.float64)
        enc_in, dec_in = self._inputs(rng, 3)
        enc_out, enc_mask = encode(cfg, params, enc_in)
        cache = DecodeCache()
        with pytest.raises(ValueError):
            decode_logits(cfg, params, enc_out, enc_mask, dec_in, cache=cache, train=True,
                          rng=np.random.default_rng(0))
        with Tape() as tape:
            with pytest.raises(ValueError):
                decode_logits(cfg, params, enc_out, enc_mask, dec_in, cache=cache)
        assert tape.nodes == [] and cache.length == 0
