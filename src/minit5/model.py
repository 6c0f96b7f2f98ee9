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
and returns its context as rows. When every position is real (full
batches, an unpadded input) that layout is a view, and nothing is copied.

Incremental decoding passes a `DecodeCache`, which owns the per-decode
constants (cross-attention K/V on their grid, the self-attention K/V buffer,
the decoder bias row) and runs each step itself, on arrays, bit for bit.
Uncached calls, training among them, build the bias with `_rel_bias`, so
its gradient flows.

Parameters live in a flat dict keyed by path. `param_shapes` declares each
path and shape once; `init_params`, `count_parameters` and the checkpoint
check (`training.load_checkpoint`) all read it. `training_budget_ratio`
is the tokens-seen over parameter-count diagnostic.
"""

from __future__ import annotations

import math
import os
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
from .tensor import _attention_weights, _gated_hidden, _heads, _key_mask, _merge, _rms_normed

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
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":  # a float id would be truncated
        raise ShapeError(f"{what} must hold integer ids, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
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


def decode_cache_shape(config, params, batch, capacity):
    """The shape [layers, 2, batch, capacity, inner] of a `DecodeCache`'s
    self-attention K/V buffer in the dtype of params. A buffer that exceeds
    the machine's physical memory (where `os.sysconf` tells it) raises
    ShapeError naming the decode budget; nothing is allocated."""
    dtype = params["embedding"].data.dtype
    shape = (config.dec_layers, 2, batch, capacity, config.inner_dim)
    kv_bytes = math.prod(shape) * dtype.itemsize
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or it cannot tell
        memory = -1
    if 0 < memory < kv_bytes:
        raise ShapeError(f"a decode budget of {capacity} tokens needs a {kv_bytes}-byte K/V buffer, "
                         f"more than the {memory} bytes of physical memory")
    return shape


class DecodeCache:
    """Decoder state carried across incremental `decode_logits` calls on one
    encoder output, built once per decode. Inference only: `step` adds one
    position per row, on arrays, with the ops' own kernels and bits.

    - `length`: the number of positions already decoded, at most `capacity`.
    - One table per decoder layer: its weight arrays, and its cross-attention
      K/V, projected from the encoder output and laid onto its grid once,
      [batch, heads, len, d_kv]; besides them the embedding, the final norm
      and the encoder grid's key mask.
    - Self-attention K/V of every layer in one buffer [layers, 2, batch,
      capacity, inner], the batch size taken from the encoder grid. A step
      writes column `length` in place, and attends over views of it. A
      capacity whose buffer exceeds the machine's physical memory is refused
      first (`decode_cache_shape`).
    - The decoder's relative bias row [1, heads, 1, capacity] of a query at
      position capacity - 1, built by `_rel_bias`. The unidirectional bucket
      depends only on the distance query - key, so the query at position p
      takes the row's last p + 1 keys."""

    def __init__(self, config, params, enc_out, enc_grid, capacity):
        shape = decode_cache_shape(config, params, enc_grid[1][0], capacity)
        self.length = 0
        self._config = config
        self._kv = np.empty(shape, dtype=params["embedding"].data.dtype)
        w = {name: p.data for name, p in params.items()}

        def layer(base):
            cross_kv = (_heads(enc_out.data @ w[f"{base}.cross.{n}"], enc_grid, config.n_heads, config.d_kv)
                        for n in "kv")
            return (w[f"{base}.self_norm"], tuple(w[f"{base}.self.{n}"] for n in "qkvo"),
                    w[f"{base}.cross_norm"], (w[f"{base}.cross.q"], *cross_kv, w[f"{base}.cross.o"]),
                    w[f"{base}.ffn_norm"], tuple(w[f"{base}.ffn.{n}"] for n in ("wi_0", "wi_1", "wo")))

        self._layers = [layer(f"decoder.layers.{i}") for i in range(config.dec_layers)]
        self._embedding, self._final_norm = w["embedding"], w["decoder.final_norm"]
        self._cross_mask = _key_mask(enc_grid, None, self._kv.dtype)
        self._bias = _rel_bias(params, "decoder.rel_bias", np.array([capacity - 1]), capacity, False, config).data

    def step(self, ids):
        """Logits [batch, 1, vocab] of the next position's ids [batch, 1]: the
        decoder's ops on arrays, new K/V into column `length`. Refuses, before
        anything is written, ids that are not integers in [0, vocab), ids that
        are not one position per row of the batch, and a full cache."""
        ids = _check_ids(ids, self._config.vocab_size, "decoder_input_ids")
        batch, capacity = self._kv.shape[2:4]
        if ids.shape != (batch, 1):
            raise ShapeError(f"a DecodeCache for a batch of {batch} takes decoder ids of shape "
                             f"({batch}, 1), got {ids.shape}")
        if self.length == capacity:
            raise ShapeError(f"the DecodeCache is full: it holds {capacity} positions")
        c, t = self._config, self.length
        grid, keys = (None, (batch, 1)), (None, (batch, t + 1))

        def attend(h, q, kh, vh, o, bias, mask):
            a = _attention_weights(_heads(h @ q, grid, c.n_heads, c.d_kv), kh, c.d_kv**-0.5, bias, mask)[0]
            return _merge(a @ vh, grid) @ o

        x = self._embedding[ids[:, 0]]
        for kv, layer in zip(self._kv, self._layers):
            self_norm, (q, k, v, o), cross_norm, cross, ffn_norm, (wi_0, wi_1, wo) = layer
            h = _rms_normed(x, self_norm)[0]
            kv[0, :, t], kv[1, :, t] = h @ k, h @ v
            kh, vh = (_heads(a[:, :t + 1], keys, c.n_heads, c.d_kv) for a in kv)
            x += attend(h, q, kh, vh, o, self._bias[..., capacity - 1 - t:], None)
            h = _rms_normed(x, cross_norm)[0]
            x += attend(h, *cross, None, self._cross_mask)
            h = _rms_normed(x, ffn_norm)[0]
            x += _gated_hidden(h, wi_0, wi_1) @ wo
        self.length = t + 1
        x = _rms_normed(x, self._final_norm)[0]
        # shared embedding as the output projection, rescaled for the tie
        return (x @ self._embedding.T * c.d_model**-0.5).reshape(batch, 1, c.vocab_size)


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
                  cache=None, lengths=None):
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
    of the cache's encoder grid, and `DecodeCache.step` computes the logits,
    so greedy decoding runs one position per generated token. Cached calls
    are for inference: they refuse train=True, lengths and an active Tape."""
    if cache is not None:
        if train or lengths is not None or Tape.active() is not None:
            raise ValueError("a DecodeCache is for inference: no train=True, lengths or active Tape")
        return Tensor(cache.step(decoder_input_ids))  # step checks the ids
    ids = _check_ids(decoder_input_ids, config.vocab_size, "decoder_input_ids")
    b, n = ids.shape
    real = np.ones((b, n), dtype=bool)
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (b,) or (lengths < 1).any() or (lengths > n).any():
            raise ShapeError(f"lengths {lengths.tolist()} do not fit decoder ids of shape {ids.shape}")
        real = np.arange(n)[None, :] < lengths[:, None]
    grid = _grid(real)
    bias = _rel_bias(params, "decoder.rel_bias", np.arange(n), n, False, config)
    p = config.dropout if train else 0.0
    x = dropout(embedding(params["embedding"], ids[real]), p, rng)
    for i in range(config.dec_layers):
        base = f"decoder.layers.{i}"
        h = rms_norm(x, params[f"{base}.self_norm"])
        kv = _project_kv(params, f"{base}.self", h)
        a = _attention(params, f"{base}.self", h, kv, (grid, grid), True, bias, config, p, rng)
        x = add(x, dropout(a, p, rng))
        h = rms_norm(x, params[f"{base}.cross_norm"])
        kv = _project_kv(params, f"{base}.cross", enc_out)
        a = _attention(params, f"{base}.cross", h, kv, (grid, enc_grid), False, None, config, p, rng)
        x = add(x, dropout(a, p, rng))
        h = rms_norm(x, params[f"{base}.ffn_norm"])
        x = add(x, dropout(_ffn(params, f"{base}.ffn", h, p, rng), p, rng))
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
