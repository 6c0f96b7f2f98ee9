"""Encoder-decoder transformer with relative position bias and pre-norm
residual blocks (T5-family layout): shared input/output embedding, RMS-style
normalization, gated feed-forward, bucketed relative attention bias owned
once per stack, strictly causal decoder self-attention.

Parameters live in a flat dict keyed by path; `count_parameters` computes
the same total analytically, and `training_budget_ratio` is the
tokens-seen over parameter-count diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    attention,
    dropout,
    embedding,
    gated_gelu_ffn,
    gelu,
    matmul,
    mul,
    relu,
    reshape,
    rms_norm,
    softmax_lastdim,
    transpose,
)

# Unused here since attention and the gated FFN became fused ops: gelu and
# softmax_lastdim stay imported because the benchmark's traced run discovers
# the tensor ops to time in this namespace, and its tests require every op
# it names (perfbench/metrics.py TENSOR_OPS).

MASKED = -1e9  # additive attention-logit mask; underflows to weight 0 after softmax


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int
    d_ff: int
    n_heads: int
    d_kv: int
    enc_layers: int
    dec_layers: int
    rel_buckets: int = 32
    rel_max_distance: int = 128
    dropout: float = 0.1
    gated_ffn: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "d_ff", "n_heads", "d_kv", "enc_layers", "dec_layers", "rel_buckets", "rel_max_distance"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be positive")

    @property
    def inner_dim(self):
        return self.n_heads * self.d_kv


PRESETS = {
    # 8+8 layers / ~60M parameters and 24+24 layers / ~750M parameters at a
    # 32k vocabulary, with the v1.1-style gated feed-forward widths
    "small": dict(vocab_size=32000, d_model=512, d_ff=1024, n_heads=6, d_kv=64,
                  enc_layers=8, dec_layers=8),
    "large": dict(vocab_size=32000, d_model=1024, d_ff=2816, n_heads=16, d_kv=64,
                  enc_layers=24, dec_layers=24),
    # desk-scale config for demos and smoke tests
    "tiny": dict(vocab_size=512, d_model=64, d_ff=128, n_heads=4, d_kv=16,
                 enc_layers=2, dec_layers=2, rel_buckets=8, rel_max_distance=32),
}


def preset(name, **overrides):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return ModelConfig(**{**PRESETS[name], **overrides})


def relative_bucket(relative_position, bidirectional, num_buckets=32, max_distance=128):
    """Bucket index for a (memory - query) offset: exact for small offsets,
    logarithmic out to max_distance, clamped beyond. Bidirectional attention
    splits the buckets between negative and positive offsets."""
    rp = np.asarray(relative_position, dtype=np.int64)
    scalar = rp.ndim == 0
    rp = np.atleast_1d(rp)
    bucket = np.zeros_like(rp)
    n = num_buckets
    if bidirectional:
        n //= 2
        bucket += (rp > 0).astype(np.int64) * n
        rp = np.abs(rp)
    else:
        rp = -np.minimum(rp, 0)
    max_exact = n // 2
    is_small = rp < max_exact
    log_ratio = np.log(np.maximum(rp, 1) / max_exact) / math.log(max_distance / max_exact)
    large = max_exact + (log_ratio * (n - max_exact)).astype(np.int64)
    large = np.minimum(large, n - 1)
    bucket += np.where(is_small, rp, large)
    return int(bucket[0]) if scalar else bucket


def init_params(config, rng, dtype=np.float32):
    """Allocate the full parameter dict for a config.

    Weight matrices use fan-in scaled normal init, norm gains start at one,
    and the relative-bias tables start at zero. The embedding is shared
    between input lookup and output projection.
    """
    c = config
    params = {}

    def normal(shape, std):
        return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def attn_block(prefix):
        params[f"{prefix}.q"] = normal((c.d_model, c.inner_dim), c.d_model**-0.5)
        params[f"{prefix}.k"] = normal((c.d_model, c.inner_dim), c.d_model**-0.5)
        params[f"{prefix}.v"] = normal((c.d_model, c.inner_dim), c.d_model**-0.5)
        params[f"{prefix}.o"] = normal((c.inner_dim, c.d_model), c.inner_dim**-0.5)

    def ffn_block(prefix):
        if c.gated_ffn:
            params[f"{prefix}.wi_0"] = normal((c.d_model, c.d_ff), c.d_model**-0.5)
            params[f"{prefix}.wi_1"] = normal((c.d_model, c.d_ff), c.d_model**-0.5)
        else:
            params[f"{prefix}.wi"] = normal((c.d_model, c.d_ff), c.d_model**-0.5)
        params[f"{prefix}.wo"] = normal((c.d_ff, c.d_model), c.d_ff**-0.5)

    params["embedding"] = normal((c.vocab_size, c.d_model), 1.0)
    params["encoder.rel_bias"] = zeros((c.rel_buckets, c.n_heads))
    for i in range(c.enc_layers):
        base = f"encoder.layers.{i}"
        params[f"{base}.attn_norm"] = ones(c.d_model)
        attn_block(f"{base}.attn")
        params[f"{base}.ffn_norm"] = ones(c.d_model)
        ffn_block(f"{base}.ffn")
    params["encoder.final_norm"] = ones(c.d_model)

    params["decoder.rel_bias"] = zeros((c.rel_buckets, c.n_heads))
    for i in range(c.dec_layers):
        base = f"decoder.layers.{i}"
        params[f"{base}.self_norm"] = ones(c.d_model)
        attn_block(f"{base}.self")
        params[f"{base}.cross_norm"] = ones(c.d_model)
        attn_block(f"{base}.cross")
        params[f"{base}.ffn_norm"] = ones(c.d_model)
        ffn_block(f"{base}.ffn")
    params["decoder.final_norm"] = ones(c.d_model)
    return params


def count_parameters(config):
    """Analytic parameter count; equals the allocated element total exactly."""
    c = config
    attn = 3 * c.d_model * c.inner_dim + c.inner_dim * c.d_model
    ffn = (3 if c.gated_ffn else 2) * c.d_model * c.d_ff
    enc_layer = attn + ffn + 2 * c.d_model
    dec_layer = 2 * attn + ffn + 3 * c.d_model
    total = c.vocab_size * c.d_model
    total += c.enc_layers * enc_layer + c.d_model + c.rel_buckets * c.n_heads
    total += c.dec_layers * dec_layer + c.d_model + c.rel_buckets * c.n_heads
    return total


def _check_ids(ids, vocab_size, what):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"{what} must be a batch of id sequences, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ShapeError(f"{what} contains ids outside [0, {vocab_size})")
    return ids


def _rel_bias(params, key, query_positions, n_keys, bidirectional, config):
    """Bias rows [1, heads, queries, keys] for queries at the given absolute
    positions against keys at positions 0..n_keys-1."""
    offsets = np.arange(n_keys)[None, :] - query_positions[:, None]
    buckets = relative_bucket(offsets, bidirectional, config.rel_buckets, config.rel_max_distance)
    bias = embedding(params[key], buckets)  # [Tq, Tk, H]
    return reshape(transpose(bias, (2, 0, 1)), (1, config.n_heads, len(query_positions), n_keys))


def _project_kv(params, prefix, x, config):
    """Keys and values [batch, len, heads * d_kv] of one attention block."""
    return matmul(x, params[f"{prefix}.k"]), matmul(x, params[f"{prefix}.v"])


def _attention(params, prefix, queries, kv, mask, bias, config, train, rng):
    q = matmul(queries, params[f"{prefix}.q"])
    ctx = attention(q, *kv, config.n_heads, config.d_kv**-0.5, bias=bias, mask=mask,
                    p=config.dropout if train else 0.0, rng=rng)
    return matmul(ctx, params[f"{prefix}.o"])


def _ffn(params, prefix, x, config, train, rng):
    p = config.dropout if train else 0.0
    if config.gated_ffn:
        return gated_gelu_ffn(x, params[f"{prefix}.wi_0"], params[f"{prefix}.wi_1"],
                              params[f"{prefix}.wo"], p=p, rng=rng)
    return matmul(dropout(relu(matmul(x, params[f"{prefix}.wi"])), p, rng), params[f"{prefix}.wo"])


def _pad_mask(ids, pad_id, dtype):
    return np.where(ids == pad_id, MASKED, 0.0).astype(dtype)[:, None, None, :]


def _causal_mask(query_positions, n_keys, dtype):
    """Mask [1, 1, queries, keys] hiding keys after each query's position."""
    later = np.arange(n_keys)[None, :] > query_positions[:, None]
    return np.where(later, MASKED, 0.0).astype(dtype)[None, None]


class DecodeCache:
    """Decoder state carried across incremental `decode_logits` calls on one
    encoder output: the number of positions already decoded, each layer's
    cross-attention K/V (projected from the encoder output on first use) and
    each layer's self-attention K/V for every position so far. Inference
    only: cached K/V carry no gradient."""

    def __init__(self):
        self.length = 0
        self._cross = {}
        self._self = {}

    def cross(self, layer, project):
        if layer not in self._cross:
            self._cross[layer] = project()
        return self._cross[layer]

    def extend(self, layer, kv):
        """Append new positions' K/V; returns the K/V over all positions."""
        if layer in self._self:
            kv = tuple(Tensor(np.concatenate((old.data, new.data), axis=1))
                       for old, new in zip(self._self[layer], kv))
        self._self[layer] = kv
        return kv


def encode(config, params, input_ids, *, pad_id=0, train=False, rng=None):
    """Run the encoder stack. Returns (encoder output, encoder pad mask);
    self-attention sees every non-pad input position."""
    ids = _check_ids(input_ids, config.vocab_size, "input_ids")
    dtype = params["embedding"].data.dtype
    enc_mask = _pad_mask(ids, pad_id, dtype)
    n = ids.shape[1]
    bias = _rel_bias(params, "encoder.rel_bias", np.arange(n), n, True, config)
    x = embedding(params["embedding"], ids)
    if train:
        x = dropout(x, config.dropout, rng)
    for i in range(config.enc_layers):
        base = f"encoder.layers.{i}"
        h = rms_norm(x, params[f"{base}.attn_norm"])
        kv = _project_kv(params, f"{base}.attn", h, config)
        a = _attention(params, f"{base}.attn", h, kv, enc_mask, bias, config, train, rng)
        x = add(x, dropout(a, config.dropout, rng) if train else a)
        h = rms_norm(x, params[f"{base}.ffn_norm"])
        f = _ffn(params, f"{base}.ffn", h, config, train, rng)
        x = add(x, dropout(f, config.dropout, rng) if train else f)
    return rms_norm(x, params["encoder.final_norm"]), enc_mask


def decode_logits(config, params, enc_out, enc_mask, decoder_input_ids, *, train=False, rng=None,
                  inputs_embeds=None, cache=None):
    """Run the decoder stack over teacher-forced (or partially generated)
    decoder input ids. Self-attention is strictly causal; cross-attention
    sees non-pad encoder positions. Returns logits [batch, len, vocab].

    With a DecodeCache, decoder_input_ids are only the positions after those
    the cache has already seen; their K/V are appended to it, so greedy
    decoding runs one position per generated token. Cached calls are for
    inference: they refuse train=True and an active Tape.

    inputs_embeds, when given, replaces the embedding lookup (e.g. to probe
    gradients with respect to the embedded decoder inputs)."""
    if cache is None:
        cache = DecodeCache()
    elif train or Tape.active() is not None:
        raise ValueError("a DecodeCache is for inference: no train=True, no active Tape")
    ids = _check_ids(decoder_input_ids, config.vocab_size, "decoder_input_ids")
    dtype = params["embedding"].data.dtype
    n = ids.shape[1]
    positions = np.arange(cache.length, cache.length + n)
    n_keys = cache.length + n
    causal = _causal_mask(positions, n_keys, dtype)
    bias = _rel_bias(params, "decoder.rel_bias", positions, n_keys, False, config)
    if inputs_embeds is not None:
        if inputs_embeds.data.shape != (ids.shape[0], n, config.d_model):
            raise ShapeError(f"inputs_embeds shape {inputs_embeds.data.shape} does not match ids {ids.shape}")
        x = inputs_embeds
    else:
        x = embedding(params["embedding"], ids)
    if train:
        x = dropout(x, config.dropout, rng)
    for i in range(config.dec_layers):
        base = f"decoder.layers.{i}"
        h = rms_norm(x, params[f"{base}.self_norm"])
        kv = cache.extend(i, _project_kv(params, f"{base}.self", h, config))
        a = _attention(params, f"{base}.self", h, kv, causal, bias, config, train, rng)
        x = add(x, dropout(a, config.dropout, rng) if train else a)
        h = rms_norm(x, params[f"{base}.cross_norm"])
        kv = cache.cross(i, lambda: _project_kv(params, f"{base}.cross", enc_out, config))
        a = _attention(params, f"{base}.cross", h, kv, enc_mask, None, config, train, rng)
        x = add(x, dropout(a, config.dropout, rng) if train else a)
        h = rms_norm(x, params[f"{base}.ffn_norm"])
        f = _ffn(params, f"{base}.ffn", h, config, train, rng)
        x = add(x, dropout(f, config.dropout, rng) if train else f)
    cache.length = n_keys
    x = rms_norm(x, params["decoder.final_norm"])
    # shared embedding as the output projection, rescaled for the tie
    return mul(matmul(x, transpose(params["embedding"])), config.d_model**-0.5)


def forward(config, params, input_ids, decoder_input_ids, *, pad_id=0, train=False, rng=None):
    """Full pass: encoder over input_ids, decoder over decoder_input_ids."""
    enc_out, enc_mask = encode(config, params, input_ids, pad_id=pad_id, train=train, rng=rng)
    return decode_logits(config, params, enc_out, enc_mask, decoder_input_ids, train=train, rng=rng)


def training_budget_ratio(steps, batch_tokens, params):
    """Training tokens seen divided by parameter count."""
    if params <= 0:
        raise ValueError("parameter count must be positive")
    if steps <= 0 or batch_tokens <= 0:
        raise ValueError("steps and batch_tokens must be positive")
    return steps * batch_tokens / params


# reference full-scale training runs: (name, steps, batch tokens, parameters)
TRAINING_BUDGETS = [
    ("large-1epoch", 1_000_000, 4_096, 750_000_000),
    ("large-3epoch", 1_830_000, 8_192, 750_000_000),
    ("large-5epoch", 3_050_000, 8_192, 750_000_000),
    ("small-1epoch", 1_000_000, 4_096, 60_000_000),
    ("small-5epoch", 763_000, 32_768, 60_000_000),
]


def budget_table():
    """Rows of (name, steps, batch_tokens, params, tokens, ratio) for the
    reference training runs."""
    rows = []
    for name, steps, batch_tokens, n_params in TRAINING_BUDGETS:
        rows.append(
            (name, steps, batch_tokens, n_params, steps * batch_tokens,
             training_budget_ratio(steps, batch_tokens, n_params))
        )
    return rows
