"""Encoder-decoder transformer with relative position bias and pre-norm
residual blocks (T5-family layout): shared input/output embedding, RMS-style
normalization, gated-GELU feed-forward, bucketed relative attention bias owned
once per stack, strictly causal decoder self-attention.

The residual stream is carried as rows: a 2-D [real positions, d_model]
array with no padding in it (encoder positions whose id is not the pad id;
decoder positions inside each target, when `decode_logits` is given the
target lengths). The embedding, the norms, every projection, the feed-
forward, dropout, the residual branches (`add(x, dropout(a))`) and the tied
output projection are one 2-D computation over those rows. A grid (index,
(batch, len)) names the real positions; `tensor.attention` alone lays its
query, key and value rows out on their grids, zero-filled, hides the keys
that are not rows and, for self-attention in the decoder, the later ones,
and returns its context as rows. When every position is real (greedy
decoding, full batches) that layout is a view, and nothing is copied.

Incremental decoding passes a `DecodeCache`, which owns the per-decode
constants (cross-attention K/V, the self-attention K/V buffer written in
place, the decoder bias row of its last position).
Uncached calls, training among them, build the bias with `_rel_bias`, so
its gradient flows.

Parameters live in a flat dict keyed by path. `param_shapes` declares each
path and shape once; `init_params`, `count_parameters` and the checkpoint
check (`training.load_checkpoint`) all read it. `training_budget_ratio`
is the tokens-seen over parameter-count diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bpe import PAD_ID
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
    reshape,
    rms_norm,
    softmax_lastdim,
    transpose,
)

# Unused here since attention and the gated FFN became fused ops: gelu and
# softmax_lastdim stay imported because the benchmark's traced run discovers
# the tensor ops to time in this namespace, and its tests require every op
# it names (perfbench/metrics.py TENSOR_OPS).

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

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.name != "dropout"):
            value = getattr(self, name)
            # numpy integers are refused too: a config must round-trip through a checkpoint's JSON header
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"ModelConfig.{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"ModelConfig.{name} must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"ModelConfig.dropout must be in [0, 1), got {self.dropout}")
        if self.rel_buckets < 4 or self.rel_max_distance <= self.rel_buckets // 2:  # see relative_bucket
            raise ValueError(f"ModelConfig.rel_buckets must be at least 4 and ModelConfig.rel_max_distance more "
                             f"than rel_buckets // 2, got {self.rel_buckets} and {self.rel_max_distance}")

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


def param_shapes(config):
    """Each parameter's path and shape, in the order `init_params` draws
    them: the one place the parameter layout is written."""
    c = config
    d, inner, ff = c.d_model, c.inner_dim, c.d_ff
    attn = {"q": (d, inner), "k": (d, inner), "v": (d, inner), "o": (inner, d)}
    ffn = {"wi_0": (d, ff), "wi_1": (d, ff), "wo": (ff, d)}
    shapes = {"embedding": (c.vocab_size, d)}
    for stack, layers, blocks in (("encoder", c.enc_layers, ("attn", "ffn")),
                                  ("decoder", c.dec_layers, ("self", "cross", "ffn"))):
        shapes[f"{stack}.rel_bias"] = (c.rel_buckets, c.n_heads)
        for i in range(layers):
            for block in blocks:
                base = f"{stack}.layers.{i}.{block}"
                shapes[f"{base}_norm"] = (d,)
                shapes.update({f"{base}.{w}": shape for w, shape in (ffn if block == "ffn" else attn).items()})
        shapes[f"{stack}.final_norm"] = (d,)
    return shapes


def init_params(config, rng, dtype=np.float32):
    """Allocate the full parameter dict for a config.

    Weight matrices use fan-in scaled normal init, norm gains start at one,
    and the relative-bias tables start at zero. The embedding is shared
    between input lookup and output projection.
    """
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("rel_bias"):
            data = np.zeros(shape, dtype=dtype)
        elif len(shape) == 1:
            data = np.ones(shape, dtype=dtype)
        else:
            std = 1.0 if name == "embedding" else shape[0] ** -0.5
            data = rng.normal(0.0, std, size=shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def count_parameters(config):
    """Parameter count of a config; equals the allocated element total."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


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


def _grid(real):
    """The (index, shape) grid `tensor.attention` takes for a boolean [batch,
    len] array of real positions: their row-major flat indices, or None when
    every position is real. Rows come in that order, as `ids[real]` lists them."""
    return (None if real.all() else np.flatnonzero(real)), real.shape


def _project_kv(params, prefix, x):
    """Key and value rows [real positions, heads * d_kv] of one attention block."""
    return matmul(x, params[f"{prefix}.k"]), matmul(x, params[f"{prefix}.v"])


def _attention(params, prefix, queries, kv, grids, causal, bias, config, p, rng):
    q = matmul(queries, params[f"{prefix}.q"])
    ctx = attention(q, *kv, config.n_heads, config.d_kv**-0.5, grids, bias=bias, causal=causal, p=p, rng=rng)
    return matmul(ctx, params[f"{prefix}.o"])


def _ffn(params, prefix, x, p, rng):
    return gated_gelu_ffn(x, params[f"{prefix}.wi_0"], params[f"{prefix}.wi_1"], params[f"{prefix}.wo"],
                          p=p, rng=rng)


class DecodeCache:
    """Decoder state carried across incremental `decode_logits` calls on one
    encoder output, built once per decode. Each call adds one position per
    row. Inference only: the cached K/V carry no gradient.

    - `length`: the number of positions already decoded, at most `capacity`.
    - `cross[i]`: layer i's cross-attention K/V rows, projected here from
      the encoder output.
    - Self-attention K/V of every layer in one buffer [layers, 2, batch,
      capacity, inner], the batch size taken from the encoder grid. A call
      writes column `length` in place, and attention reads [batch, keys,
      inner] views of it.
    - The decoder's relative bias row [1, heads, 1, capacity] of a query at
      position capacity - 1, built by `_rel_bias`. The unidirectional bucket
      depends only on the distance query - key, so the query at position p
      takes the row's last p + 1 keys."""

    def __init__(self, config, params, enc_out, enc_grid, capacity):
        self.length = 0
        self.cross = [_project_kv(params, f"decoder.layers.{i}.cross", enc_out) for i in range(config.dec_layers)]
        dtype = params["embedding"].data.dtype
        self._kv = np.empty((config.dec_layers, 2, enc_grid[1][0], capacity, config.inner_dim), dtype=dtype)
        self._bias = _rel_bias(params, "decoder.rel_bias", np.array([capacity - 1]), capacity, False, config).data

    def bias(self, ids):
        """The decoder bias [1, heads, 1, keys] of the next position's query
        against every key so far. Refuses ids that are not one position per
        row of the cache's batch, and a full cache."""
        batch, capacity = self._kv.shape[2:4]
        if ids.shape != (batch, 1):
            raise ShapeError(f"a DecodeCache for a batch of {batch} takes decoder ids of shape "
                             f"({batch}, 1), got {ids.shape}")
        if self.length == capacity:
            raise ShapeError(f"the DecodeCache is full: it holds {capacity} positions")
        return Tensor(self._bias[..., capacity - 1 - self.length:])

    def extend(self, layer, kv):
        """Write the K/V rows [batch, inner] of the new position into column
        `length`; returns the K/V views [batch, keys, inner] over all
        positions so far."""
        buf = self._kv[layer]
        for slot, new in zip(buf, kv):
            slot[:, self.length] = new.data
        return Tensor(buf[0, :, :self.length + 1]), Tensor(buf[1, :, :self.length + 1])


def encode(config, params, input_ids, *, train=False, rng=None):
    """Run the encoder stack over the non-pad input positions. Returns
    (encoder output rows [real positions, d_model], their grid); a pad id
    is never a row, so attention never sees it as a key."""
    ids = _check_ids(input_ids, config.vocab_size, "input_ids")
    real = ids != PAD_ID
    grid = _grid(real)
    n = ids.shape[1]
    bias = _rel_bias(params, "encoder.rel_bias", np.arange(n), n, True, config)
    p = config.dropout if train else 0.0
    x = dropout(embedding(params["embedding"], ids[real]), p, rng)
    for i in range(config.enc_layers):
        base = f"encoder.layers.{i}"
        h = rms_norm(x, params[f"{base}.attn_norm"])
        kv = _project_kv(params, f"{base}.attn", h)
        a = _attention(params, f"{base}.attn", h, kv, (grid, grid), False, bias, config, p, rng)
        x = add(x, dropout(a, p, rng))
        h = rms_norm(x, params[f"{base}.ffn_norm"])
        x = add(x, dropout(_ffn(params, f"{base}.ffn", h, p, rng), p, rng))
    return rms_norm(x, params["encoder.final_norm"]), grid


def decode_logits(config, params, enc_out, enc_grid, decoder_input_ids, *, train=False, rng=None,
                  inputs_embeds=None, cache=None, lengths=None):
    """Run the decoder stack over teacher-forced (or partially generated)
    decoder input ids, against the output rows of `encode` and their grid.
    Self-attention is strictly causal; cross-attention sees non-pad encoder
    positions. Returns logits [batch, len, vocab].

    lengths, when given, holds each row's number of real positions (its
    target length): the rest of the row is padding and is never computed,
    and the logits are the rows [sum(lengths), vocab] of the real positions
    in row-major order. Position 0 holds the start symbol, the pad id, and
    is real.

    With a DecodeCache, decoder_input_ids are the one position per row that
    follows those the cache has already seen, [batch, 1] with the batch size
    of the cache's encoder grid; their K/V are written into its buffer, so
    greedy decoding runs one position per generated token. Cached calls are
    for inference: they refuse train=True, lengths and an active Tape.

    inputs_embeds [batch, len, d_model], when given, replaces the embedding
    lookup (e.g. to probe gradients with respect to the embedded decoder
    inputs)."""
    if cache is not None and (train or lengths is not None or Tape.active() is not None):
        raise ValueError("a DecodeCache is for inference: no train=True, no lengths, no active Tape")
    ids = _check_ids(decoder_input_ids, config.vocab_size, "decoder_input_ids")
    b, n = ids.shape
    real = np.ones((b, n), dtype=bool)
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (b,) or (lengths < 1).any() or (lengths > n).any():
            raise ShapeError(f"lengths {lengths.tolist()} do not fit decoder ids of shape {ids.shape}")
        real = np.arange(n)[None, :] < lengths[:, None]
    grid = _grid(real)
    if cache is None:
        n_keys = n
        bias = _rel_bias(params, "decoder.rel_bias", np.arange(n), n, False, config)
    else:
        bias = cache.bias(ids)
        n_keys = cache.length + 1
    # keys of a cached call are every position so far; else they are the queries
    self_grids = (grid, (grid[0], (b, n_keys)))
    cross_grids = (grid, enc_grid)
    if inputs_embeds is not None:
        if inputs_embeds.data.shape != (b, n, config.d_model):
            raise ShapeError(f"inputs_embeds shape {inputs_embeds.data.shape} does not match ids {ids.shape}")
        x = embedding(reshape(inputs_embeds, (b * n, config.d_model)), np.flatnonzero(real))
    else:
        x = embedding(params["embedding"], ids[real])
    p = config.dropout if train else 0.0
    x = dropout(x, p, rng)
    for i in range(config.dec_layers):
        base = f"decoder.layers.{i}"
        h = rms_norm(x, params[f"{base}.self_norm"])
        kv = _project_kv(params, f"{base}.self", h)
        if cache is not None:
            kv = cache.extend(i, kv)
        a = _attention(params, f"{base}.self", h, kv, self_grids, True, bias, config, p, rng)
        x = add(x, dropout(a, p, rng))
        h = rms_norm(x, params[f"{base}.cross_norm"])
        kv = _project_kv(params, f"{base}.cross", enc_out) if cache is None else cache.cross[i]
        a = _attention(params, f"{base}.cross", h, kv, cross_grids, False, None, config, p, rng)
        x = add(x, dropout(a, p, rng))
        h = rms_norm(x, params[f"{base}.ffn_norm"])
        x = add(x, dropout(_ffn(params, f"{base}.ffn", h, p, rng), p, rng))
    if cache is not None:
        cache.length = n_keys
    x = rms_norm(x, params["decoder.final_norm"])
    # shared embedding as the output projection, rescaled for the tie
    logits = mul(matmul(x, transpose(params["embedding"])), config.d_model**-0.5)
    return logits if lengths is not None else reshape(logits, (b, n, config.vocab_size))


def forward(config, params, input_ids, decoder_input_ids, *, train=False, rng=None):
    """Full pass: encoder over input_ids, decoder over decoder_input_ids.
    Returns logits [batch, len, vocab] at every decoder position."""
    enc_out, enc_grid = encode(config, params, input_ids, train=train, rng=rng)
    return decode_logits(config, params, enc_out, enc_grid, decoder_input_ids, train=train, rng=rng)


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
