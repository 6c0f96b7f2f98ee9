"""Dense tensors with reverse-mode automatic differentiation on numpy.

Ops run eagerly. While a Tape is active (``with Tape() as tape:``), every
op whose inputs require gradients records a node on the tape: its backward
rule and the keys of its output and inputs. A node holds no output
tensor, and holds an input itself only when the input is a leaf: a tensor
that requires gradients and is no op's output on that tape (parameters,
probes). Each backward rule keeps only the arrays, shapes and flags it
reads, so an output that no rule reads is freed as soon as forward drops
it. ``backward(loss, tape)`` replays the tape once, in reverse, popping
each node as it runs its rule, so the tape's memory goes back as the
gradients come in; it accumulates gradients into ``Tensor.grad`` of the
leaves only. Intermediate outputs never get a ``.grad``, and a replayed
tape cannot be replayed again. With no tape active, ops are plain forward
computations (encoding for decoding, finite-difference probes); a cached
decoding step, ``model.DecodeCache.step``, runs on arrays alone, with this
module's array helpers and its norm and feed-forward kernels. Tapes are
per thread: a tape records only the ops of the thread that entered it.

Backward rules skip the work for operands that do not require gradients
(constants such as scales). An output recorded on a tape may carry a
rebuild recipe, which forms its array again with the op's own expression
from arrays the tape keeps anyway: ``rms_norm`` sets ``xd * inv * gd``
from its kept input, scale and gain, and ``matmul(a, W)`` with a 2-D ``W``
sets ``a.rebuild() @ W`` when ``a`` has one. A rule that keeps an input
(``matmul``, ``attention``, ``gated_gelu_ffn``) keeps a function that
returns its array, the recipe when there is one, and calls it in backward;
so no norm output and no q, k, v or cross-attention K/V projection
outlives the forward, and the gradients are bitwise those of kept arrays.
The tape memoizes every recipe it records: the first rule to read an
output forms it, later readers share it, and it goes with the last rule
that kept it. Off the tape no recipe is kept.
Besides the primitives there are fused ops that keep only what their
backward rule needs, and rebuild in backward what is cheap to rebuild. A
dropout mask is applied as booleans in forward and kept as bits, packed
along its last axis, which backward unpacks once (per block, in the
blocked ops):
- ``dropout`` keeps only its mask, so a residual branch
  ``add(x, dropout(a))`` holds only those bits: ``add`` keeps shapes, and
  dropout's output is freed when the add returns;
- multi-head ``attention`` runs over blocks of batch rows and keeps its q,
  k and v rows (or their recipes), its dropout mask and each query row's
  softmax max and sum; backward rebuilds the softmax weights block by
  block, so no ``[batch, heads, queries, keys]`` array of floats is ever
  whole, and each block writes its rows of the context (forward) and of
  the q, k and v gradients (backward) in place;
- the gated-GELU feed-forward ``gated_gelu_ffn``, with T5 v1.1's tanh GELU,
  keeps only its dropout mask besides its input (or its recipe) and
  weights; backward rebuilds both input projections with the forward's
  products, and the GELU and the hidden activations block by block, in
  place, so no ``[rows, d_ff]`` array of floats outlives the op's forward.

Ragged batches travel as rows: a 2-D ``[real positions, features]`` array
holding only the positions that are not padding, so every position-wise op
(``matmul`` by a weight, ``rms_norm``, ``gated_gelu_ffn``, ``dropout``,
``add``, ``cross_entropy``) is one 2-D computation over real tokens;
``cross_entropy`` has no ignore index and averages over all its rows.
``attention`` alone lays its rows out, one block of batch rows at a time,
on the zero-filled ``[batch, len, features]`` grid they came from, and
writes each block's context rows in place. It also builds every attention
mask, from the grid and a causal flag: a grid position that is not a row is
never a key.

float32 is the working precision for training. Build parameters as float64
when gradient-checking; ops follow the dtype of their inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes or index ranges are incompatible with the op."""


class TapeError(RuntimeError):
    """backward over a tape that an earlier backward already replayed."""


class Tensor:
    """A dense real-valued array plus an optional accumulated gradient. An
    op's output recorded on a tape carries the key its node names it by,
    and may carry a rebuild recipe: a function of no arguments that forms
    the array again, bit for bit, from arrays the tape keeps anyway."""

    __slots__ = ("data", "requires_grad", "grad", "key", "rebuild")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.key = None
        self.rebuild = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded primitive application: its output's key, its inputs and
    its backward rule. An input is named by its key when this tape produced
    it, is the leaf Tensor itself when it needs a gradient but no node on
    this tape produced it, and is None when it needs no gradient."""

    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction; ``backward`` pops it once, in reverse.
    """

    def __init__(self):
        self.nodes = []
        self.keys = set()  # keys of the outputs recorded here
        self.replayed = False

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.tapes.pop()
        return False

    @staticmethod
    def active():
        """The innermost tape currently recording on this thread, or None."""
        tapes = _TAPE_STACK.tapes
        return tapes[-1] if tapes else None


class _TapeStack(threading.local):
    """Each thread's stack of active tapes: a tape records only the ops of
    the thread that entered it."""

    def __init__(self):
        self.tapes = []


_TAPE_STACK = _TapeStack()


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, Tensor) else None
    return Tensor(np.asarray(x, dtype=dtype))


# One counter for every tape, so that a tensor produced on another tape never
# carries a key of this one.
_KEYS = itertools.count()


def _record(out, inputs, vjp, rebuild=None):
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.key = next(_KEYS)
        out.rebuild = None if rebuild is None else functools.cache(rebuild)
        tape.keys.add(out.key)
        tape.nodes.append(Node(out.key, tuple(_input_name(t, tape) for t in inputs), vjp))
    return out


def _input_name(t, tape):
    """How a node on tape names its input t (see Node)."""
    if not t.requires_grad:
        return None
    return t.key if t.key in tape.keys else t


def _kept(t):
    """What a backward rule keeps of its input t to read it: a function of
    no arguments that returns t's array, t's rebuild recipe when it has one."""
    data = t.data
    return t.rebuild or (lambda: data)


def backward(loss, tape, on_leaf=None):
    """Populate .grad on every leaf reachable from loss: a tensor that
    requires gradients and is not the output of a node on this tape.

    A tape is replayed once. backward pops each node as it replays it, so
    the arrays a backward rule keeps are freed as soon as the rule has run,
    and a second backward over the same tape raises TapeError. Gradients
    accumulate additively: across fan-out within this call, and across calls
    on other tapes into pre-existing .grad arrays. Each sum is a new array:
    backward never adds in place, since a rule may return an alias of its
    incoming gradient (add, reshape). A leaf's .grad is the array its
    backward rule returned, not a copy, so it may share memory with another
    leaf's .grad: replace .grad, never write into it.

    A leaf's gradient is handed over as soon as the last node that reads
    it (the first one recorded) has replayed, once per leaf: to
    on_leaf(leaf, gradient) when given, which then owns it and no .grad is
    set, else into the leaf's .grad.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if tape.replayed:
        raise TapeError("backward over a tape that was already replayed")
    tape.replayed = True
    if on_leaf is None:
        on_leaf = _accumulate
    nodes = tape.nodes
    # the leaves whose gradient is whole once node i has replayed
    first = {}
    for i, node in enumerate(nodes):
        for name in node.inputs:
            if isinstance(name, Tensor):
                first.setdefault(name, i)
    done = {}
    for leaf, i in first.items():
        done.setdefault(i, []).append(leaf)
    # gradients by the name a node gives its input: a key while the node
    # that produced it is still to be replayed, the leaf Tensor itself
    grads = {loss.key if loss.key in tape.keys else loss: np.ones_like(loss.data)}
    while nodes:
        node = nodes.pop()
        g = grads.pop(node.out, None)
        if g is not None:
            for name, ig in zip(node.inputs, node.vjp(g)):
                if name is not None and ig is not None:
                    grads[name] = ig if name not in grads else grads[name] + ig
        for leaf in done.pop(len(nodes), ()):
            if leaf in grads:
                on_leaf(leaf, grads.pop(leaf))
    # a loss that no node on this tape produced is its own leaf
    for leaf, g in grads.items():
        on_leaf(leaf, g)


def _accumulate(leaf, g):
    leaf.grad = g if leaf.grad is None else leaf.grad + g


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data + b.data)
    a_shape = a.data.shape if a.requires_grad else None
    b_shape = b.data.shape if b.requires_grad else None

    def vjp(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return _record(out, (a, b), vjp)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)
    a_shape, b_shape = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None  # each operand's gradient reads the other one
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, a_shape),
                None if ad is None else _unbroadcast(g * ad, b_shape))

    return _record(out, (a, b), vjp)


def _swap_last(x):
    return x.swapaxes(-1, -2)


def _rows(x):
    """x as a matrix of its trailing-dimension vectors."""
    return x.reshape(-1, x.shape[-1])


def matmul(a, b):
    """Matrix product. Supports 2-D weights on the right of stacked inputs,
    or equal leading batch dimensions on both operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if b.data.ndim != 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    ka = _kept(a) if b.requires_grad else None  # each operand's gradient reads the other one
    kb = _kept(b) if a.requires_grad else None
    weight = b.data.ndim == 2
    a_rebuild, bd = a.rebuild, b.data
    rebuild = None if a_rebuild is None or not weight else (lambda: a_rebuild() @ bd)

    def vjp(g):
        ga = None if kb is None else g @ _swap_last(kb())
        if ka is None:
            gb = None
        elif weight:
            gb = _rows(ka()).T @ _rows(g)
        else:
            gb = _swap_last(ka()) @ g
        return ga, gb

    return _record(out, (a, b), vjp, rebuild)


def embedding(table, ids):
    """Row lookup: table[V, d] indexed by an integer array of any shape."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = Tensor(table.data[ids])
    shape, dtype = table.data.shape, table.data.dtype

    def vjp(g):
        gt = np.zeros(shape, dtype=dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (gt,)

    return _record(out, (table,), vjp)


def softmax_lastdim(x):
    """Softmax over the trailing dimension, stabilized by max subtraction."""
    x = _as_tensor(x)
    if x.data.ndim == 0 or x.data.shape[-1] < 1 or x.data.size == 0:
        raise ShapeError(f"softmax needs a non-empty trailing dimension, got {x.shape}")
    s = _softmax_inplace(x.data.copy())[0]
    out = Tensor(s)

    def vjp(g):
        return (_softmax_grad_inplace(g.copy(), s),)

    return _record(out, (x,), vjp)


def _softmax_inplace(z, m=None, s=None):
    """Softmax over the trailing dimension of z, overwriting z; returns it
    with the row max m it subtracted and the row sum s of exponentials it
    divided by, both [..., 1]. Given the m and s of an earlier call on the
    same z, it rebuilds that call's result with the same ops, reducing
    nothing. The reductions are ndarray.max's and .sum's ufunc reduces,
    without their Python-level wrappers."""
    if m is None:
        m = np.maximum.reduce(z, axis=-1, keepdims=True)
    z -= m
    np.exp(z, out=z)
    if s is None:
        s = np.add.reduce(z, axis=-1, keepdims=True)
    z /= s
    return z, m, s


def _softmax_grad_inplace(g, s):
    """Gradient at the softmax input, s * (g - sum(g * s)), overwriting g."""
    g -= np.add.reduce(g * s, axis=-1, keepdims=True)
    g *= s
    return g


_RMS_EPS = 1e-6


def _rms_normed(xd, gd):
    """xd * inv * gd, and inv = 1/sqrt(mean(x^2) + _RMS_EPS) [..., 1] per row."""
    # np.mean's result, bit for bit, without its Python-level wrapper
    ms = np.add.reduce(np.square(xd), axis=-1, keepdims=True) / xd.shape[-1]
    inv = 1.0 / np.sqrt(ms + _RMS_EPS)
    return xd * inv * gd, inv


def rms_norm(x, gain):
    """Scale each trailing-dim vector by 1/sqrt(mean(x^2) + _RMS_EPS), then by gain.

    No mean subtraction and no bias (simplified layer normalization).
    """
    x, gain = _as_tensor(x), _as_tensor(gain)
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError("rms_norm needs a non-empty trailing dimension")
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeError(f"gain shape {gain.data.shape} does not match trailing dimension {d}")
    xd, gd = x.data, gain.data
    out, inv = _rms_normed(xd, gd)

    def vjp(g):
        u = g * gd
        ux = (u * xd).sum(axis=-1, keepdims=True)
        gx = u * inv - xd * inv**3 * ux / d
        ggain = (g * xd * inv).reshape(-1, d).sum(axis=0)
        return gx, ggain

    return _record(Tensor(out), (x, gain), vjp, lambda: xd * inv * gd)


def gelu(x):
    x = _as_tensor(x)
    xd = x.data
    cdf = _normal_cdf(xd)
    out = Tensor(xd * cdf)

    def vjp(g):
        return (g * _gelu_slope(xd, cdf),)

    return _record(out, (x,), vjp)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _normal_cdf(x, x2=None):
    """0.5 * (1 + tanh(k * (x + a x^3))), the tanh-form normal CDF, in one
    new array of x's dtype. x2, when given, is np.square(x), left as it is."""
    if x2 is None:
        cdf = np.square(x)
        cdf *= _GELU_A * _GELU_K
    else:
        cdf = x2 * (_GELU_A * _GELU_K)
    cdf += _GELU_K
    cdf *= x
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x, cdf, x2=None):
    """d/dx of x * cdf(x), exactly: cdf + x * 2k (1 + 3a x^2) * cdf * (1 - cdf),
    since 1 - tanh^2 = 4 cdf (1 - cdf). x2, when given, is np.square(x), and
    the slope is written over it."""
    d = np.square(x) if x2 is None else x2
    d *= 6.0 * _GELU_A * _GELU_K
    d += 2.0 * _GELU_K
    d *= x
    d *= cdf
    d *= 1.0 - cdf
    d += cdf
    return d


def cross_entropy(logits, targets):
    """Mean negative log-softmax probability of the target ids.

    logits: [positions, vocab], one row per position that counts (the
    decoder emits only real target positions); targets: int sequence of the
    same length. Every row is in the mean.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2 or logits.data.shape[0] == 0:
        raise ShapeError(f"cross_entropy expects [positions, vocab] logits with at least one row, "
                         f"got {logits.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    vocab = logits.data.shape[1]
    bad = (t < 0) | (t >= vocab)
    if bad.any():
        raise ShapeError(f"target id out of range [0, {vocab}) at position {int(np.argmax(bad))}")
    rows = np.arange(t.shape[0])
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(np.asarray((-logp[rows, t]).mean(), dtype=logits.data.dtype))

    def vjp(g):
        gl = np.exp(logp)
        gl[rows, t] -= 1.0
        return (gl * (g / rows.size),)

    return _record(out, (logits,), vjp)


def reshape(x, shape):
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    x_shape = x.data.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return _record(out, (x,), vjp)


def transpose(x, axes=None):
    x = _as_tensor(x)
    out = Tensor(x.data.transpose(axes))
    inverse = None if axes is None else tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _record(out, (x,), vjp)


def sum_all(x):
    x = _as_tensor(x)
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        return (np.full(shape, g.item(), dtype=dtype),)

    return _record(out, (x,), vjp)


_DROP_LEVELS = 1 << 16  # dropout masks compare 16-bit draws: p is quantized to 1/65536


def _dropout_mask(shape, p, rng):
    """Boolean keep-mask of inverted dropout and the scale of the kept
    elements; (None, 1.0) when p <= 0. An element is dropped when a uniform
    16-bit draw is below round(p * 65536), so the drop rate is p quantized
    to 1/65536 (at most 65535/65536), and the scale is the inverse of the
    quantized keep rate. An op applies the mask in forward and keeps it
    packed for backward (_pack)."""
    if p <= 0:
        return None, 1.0
    cut = min(round(p * _DROP_LEVELS), _DROP_LEVELS - 1)
    keep = rng.integers(0, _DROP_LEVELS, size=shape, dtype=np.uint16) >= cut
    return keep, _DROP_LEVELS / (_DROP_LEVELS - cut)


def _pack(keep):
    """A keep-mask as one bit per element, packed along its last axis; None
    stays None."""
    return None if keep is None else np.packbits(keep, axis=-1)


def _unpack(bits, width):
    """The boolean keep-mask [..., width] that _pack packed into bits (or a
    block of bits' rows); None stays None."""
    return None if bits is None else np.unpackbits(bits, axis=-1, count=width).view(np.bool_)


def _apply_mask(a, keep, scale, out=None):
    """a with the dropped elements zeroed and the kept ones scaled, written
    to out (a new array when None); a itself when there is no mask. keep is
    a boolean keep-mask broadcastable to a."""
    if keep is None:
        return a
    out = np.multiply(a, keep, out=out)
    out *= scale
    return out


def dropout(x, p, rng):
    """Inverted dropout; identity when p <= 0. The drop probability p is
    quantized to a multiple of 1/65536 (see _dropout_mask)."""
    if p <= 0:
        return x
    x = _as_tensor(x)
    keep, scale = _dropout_mask(x.data.shape, p, rng)
    out = Tensor(_apply_mask(x.data, keep, scale))
    bits, width = _pack(keep), x.data.shape[-1]

    def vjp(g):
        return (_apply_mask(g, _unpack(bits, width), scale),)

    return _record(out, (x,), vjp)


MASKED = -1e9  # additive attention-logit mask; underflows to weight 0 after softmax


def _later_keys(n_queries, n_keys, causal, dtype):
    """Additive mask [queries, keys] hiding from each query the keys after
    its position, or None when not causal. Query i of n sits at key position
    n_keys - n + i."""
    if not causal:
        return None
    later = np.arange(n_keys) > np.arange(n_keys - n_queries, n_keys)[:, None]
    return np.where(later, MASKED, 0.0).astype(dtype)


def _key_mask(kv_grid, later, dtype):
    """Additive mask [.., queries, keys] hiding the keys a query may not see,
    or None when every query sees every key: the key grid positions that are
    not rows, and the keys that later (from _later_keys, or None) hides."""
    index, (b, n_keys) = kv_grid
    if index is None:
        return later
    mask = np.full(b * n_keys, MASKED, dtype=dtype)
    mask[index] = 0.0
    mask = mask.reshape(b, 1, 1, n_keys)
    return mask if later is None else np.minimum(mask, later)


_BLOCK_ELEMENTS = 1 << 16  # blocked work runs over row blocks of about this many elements


def _row_blocks(n, width):
    """Slices of n rows of width elements each, in blocks of
    max(1, _BLOCK_ELEMENTS // width) rows, so a block's temporaries stay in
    cache."""
    step = max(1, _BLOCK_ELEMENTS // max(1, width))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _grid_block(grid, blk):
    """The grid of batch rows blk, and the slice of the grid's rows that lie
    on them (index increasing)."""
    index, (_, n) = grid
    shape = (blk.stop - blk.start, n)
    if index is None:
        return (None, shape), slice(blk.start * n, blk.stop * n)
    lo, hi = np.searchsorted(index, (blk.start * n, blk.stop * n))
    return (index[lo:hi] - blk.start * n, shape), slice(lo, hi)


def _heads(a, grid, n_heads, d):
    """The rows a of a grid (block) as [batch, heads, len, d], zero-filled
    where the grid has no row."""
    index, (b, n) = grid
    if index is not None:
        full = np.zeros((b * n, n_heads * d), dtype=a.dtype)
        full[index] = a
        a = full
    return a.reshape(b, n, n_heads, d).transpose(0, 2, 1, 3)


def _merge(a, grid):
    """Per-head a [batch, heads, len, d] of a grid (block) as its rows
    [n, heads * d]."""
    index, (b, n) = grid
    a = a.transpose(0, 2, 1, 3).reshape(b * n, a.shape[1] * a.shape[3])
    return a if index is None else a[index]


def _attention_weights(qh, kh, scale, bias, mask, m=None, s=None):
    """A block's softmax weights [batch, heads, queries, keys] with their row
    max and sum (see _softmax_inplace): the scaled scores plus the bias
    array and the key mask (see _key_mask), each of which may be None."""
    w = qh @ _swap_last(kh)
    w *= scale
    if bias is not None:
        w += bias
    if mask is not None:
        w += mask
    return _softmax_inplace(w, m, s)


def attention(q, k, v, n_heads, scale, grids, bias=None, causal=False, p=0.0, rng=None):
    """Multi-head scaled dot-product attention as one op, on rows.

    grids = (query grid, key grid), each (index, (batch, len)), with the
    same batch. q holds the rows [n, heads * d] of the query grid's real
    positions, k and v those of the key grid: row i is the row-major flat
    position index[i], index increasing, or position i when index is None
    (every position is real; q, k and v may then also come as
    [batch, len, heads * d], and the context and their gradients come in
    the same shape). Attention runs on the grids, zero-filled elsewhere, and
    decides itself which keys a query sees: no key position that is not a
    row, and with causal=True no key after the query's own position, query i
    of len_q sitting at key position len_k - len_q + i (in training the
    queries are the keys; the tests check fewer queries than keys against
    one query at a time).
    Per head, the scores q.k^T are multiplied by scale, then the Tensor bias,
    shared by the batch rows (broadcastable to [1, heads, queries, keys]),
    is added and the hidden keys get MASKED; the softmax weights take
    inverted dropout with probability p and weight the values. Returns the
    context rows of the query grid.

    The work runs over blocks of batch rows, each holding about
    _BLOCK_ELEMENTS softmax weights (see _row_blocks); a block lays out on
    the zero-filled grid only its own rows, and writes its rows of the context
    (in backward, of the q, k and v gradients) in place. The dropout mask is
    drawn at full shape first. No [batch, heads, queries, keys] array of
    floats outlives its block: the backward rule keeps the q, k and v rows
    (their rebuild recipes, when they have them: see _kept), the dropout mask
    and each query row's softmax max and sum, and rebuilds the weights block
    by block with the forward's own ops.
    """
    inner = q.data.shape[-1]
    if inner % n_heads or k.data.shape[-1] != inner or v.data.shape != k.data.shape:
        raise ShapeError(f"attention over {n_heads} heads: q {q.shape}, k {k.shape}, v {v.shape}")
    q_grid, kv_grid = grids
    (b, n_q), (b_kv, n_k) = q_grid[1], kv_grid[1]
    if b_kv != b:
        raise ShapeError(f"attention of a batch of {b} queries over a batch of {b_kv} keys")
    if causal and n_q > n_k:
        raise ShapeError(f"causal attention of {n_q} queries over {n_k} keys")
    if bias is not None and bias.data.ndim == 4 and bias.data.shape[0] != 1:
        raise ShapeError(f"attention bias {bias.shape} is not shared by the batch rows")
    d = inner // n_heads
    for a, (index, shape) in ((q.data, q_grid), (k.data, kv_grid), (v.data, kv_grid)):
        if a.size != inner * (shape[0] * shape[1] if index is None else len(index)):
            raise ShapeError(f"attention: {a.shape} does not fill the grid {shape} with index {index}")
        if index is not None and len(index) > 1 and (index[1:] <= index[:-1]).any():
            raise ShapeError("attention: a grid index must increase")
    qd, kd, vd = _rows(q.data), _rows(k.data), _rows(v.data)
    bias_d = None if bias is None else bias.data
    blocks = _row_blocks(b, n_heads * n_q * n_k)
    later = _later_keys(n_q, n_k, causal, qd.dtype)
    keep, drop_scale = _dropout_mask((b, n_heads, n_q, n_k), p, rng)
    out = np.empty(q.data.shape, np.result_type(qd, kd, vd))
    stats = []
    for blk in blocks:
        (q_part, q_rows), (kv_part, kv_rows) = _grid_block(q_grid, blk), _grid_block(kv_grid, blk)
        w, m, s = _attention_weights(_heads(qd[q_rows], q_part, n_heads, d),
                                     _heads(kd[kv_rows], kv_part, n_heads, d),
                                     scale, bias_d, _key_mask(kv_part, later, qd.dtype))
        w = _apply_mask(w, None if keep is None else keep[blk], drop_scale, out=w)
        _rows(out)[q_rows] = _merge(w @ _heads(vd[kv_rows], kv_part, n_heads, d), q_part)
        stats.append((m, s))
    bits = _pack(keep)
    q_shape, k_shape, v_shape = (t.data.shape if t.requires_grad else None for t in (q, k, v))
    bias_shape = bias.data.shape if bias is not None and bias.requires_grad else None
    kept = [_kept(t) for t in (q, k, v)]

    def vjp(g):
        qd, kd, vd = (_rows(form()) for form in kept)
        g = _rows(g)
        # each gradient in its operand's shape and the dtype of the products that form it
        gq = None if q_shape is None else np.empty(q_shape, np.result_type(g, vd, kd))
        gk = None if k_shape is None else np.empty(k_shape, np.result_type(g, vd, qd))
        gv = None if v_shape is None else np.empty(v_shape, np.result_type(g, qd, kd))
        gbias = None
        if bias_shape is not None:
            gbias = np.empty((1, n_heads, n_q, n_k), np.promote_types(g.dtype, vd.dtype))
        later = _later_keys(n_q, n_k, causal, qd.dtype)

        def block_grads(blk, m, s):
            """One block's gradients; its temporaries go when it returns."""
            (q_part, q_rows), (kv_part, kv_rows) = _grid_block(q_grid, blk), _grid_block(kv_grid, blk)
            qh, kh = _heads(qd[q_rows], q_part, n_heads, d), _heads(kd[kv_rows], kv_part, n_heads, d)
            w = _attention_weights(qh, kh, scale, bias_d, _key_mask(kv_part, later, qd.dtype), m, s)[0]
            keep = _unpack(None if bits is None else bits[blk], n_k)
            gh = _heads(g[q_rows], q_part, n_heads, d)
            if gv is not None:
                _rows(gv)[kv_rows] = _merge(_swap_last(_apply_mask(w, keep, drop_scale)) @ gh, kv_part)
            gw = gh @ _swap_last(_heads(vd[kv_rows], kv_part, n_heads, d))
            _apply_mask(gw, keep, drop_scale, out=gw)
            del keep, gh
            gw = _softmax_grad_inplace(gw, w)
            del w
            if gbias is not None:
                # one batch row at a time, in batch order, as a sum over the batch axis adds
                for row in range(len(gw)):
                    if blk.start + row == 0:
                        gbias[...] = gw[:1]
                    else:
                        np.add(gbias, gw[row:row + 1], out=gbias)
            if gq is not None:
                _rows(gq)[q_rows] = _merge(gw @ kh, q_part) * scale
            if gk is not None:
                _rows(gk)[kv_rows] = _merge(_swap_last(gw) @ qh, kv_part) * scale

        for blk, (m, s) in zip(blocks, stats):
            block_grads(blk, m, s)
        return gq, gk, gv, None if gbias is None else _unbroadcast(gbias, bias_shape)

    return _record(Tensor(out), (q, k, v) if bias is None else (q, k, v, bias), vjp)


def _by_row_blocks(body, *arrays):
    """body(*blocks) over the _row_blocks of the rows of the [..., width]
    arrays, as views; None passes through as None."""
    width = arrays[0].shape[-1]
    rows = [None if a is None else _rows(a) for a in arrays]
    for blk in _row_blocks(len(rows[0]), width):
        body(*(None if a is None else a[blk] for a in rows))


def _gate(gelu, h1, keep, scale):
    """The hidden activations, h1 * gelu under the keep-mask, over h1."""
    h1 *= gelu
    _apply_mask(h1, keep, scale, out=h1)


def _gated_hidden(xd, wi_0d, wi_1d, keep=None, scale=1.0):
    """gelu(x.wi_0) * (x.wi_1) under the keep-mask, over x.wi_1; the products
    run whole, the elementwise work by row blocks (see _by_row_blocks)."""
    h0 = xd @ wi_0d
    h = xd @ wi_1d

    def hidden(h0, h1, keep):
        gelu = _normal_cdf(h0)
        gelu *= h0
        _gate(gelu, h1, keep, scale)

    _by_row_blocks(hidden, h0, h, keep)
    return h


def gated_gelu_ffn(x, wi_0, wi_1, wo, p=0.0, rng=None):
    """Gated-GELU feed-forward as one op: (gelu(x.wi_0) * (x.wi_1)) with
    inverted dropout p, then .wo. x: [..., d_model]; wi_0, wi_1:
    [d_model, d_ff]; wo: [d_ff, d_model]. The matrix products run whole;
    the elementwise work between them runs over blocks of rows (see
    _by_row_blocks), and the dropout mask is drawn at full shape first. The
    hidden activations are written over x.wi_1, and both projections go
    once the output is formed: the backward rule keeps only x (or its
    rebuild recipe), the weights and the dropout mask. It rebuilds x.wi_0
    and x.wi_1 with the forward's own products, and the GELU and the hidden
    activations block by block with the forward's own ops, so its gradients
    are bitwise those that kept copies would give. It works in three [rows, d_ff] buffers: the
    gradient at the hidden activations, and the two projections, which
    become the gradient at x.wi_1 and the hidden activations in place."""
    wi_0d, wi_1d, wod = wi_0.data, wi_1.data, wo.data
    need_x, need_wi_0, need_wi_1, need_wo = x.requires_grad, wi_0.requires_grad, wi_1.requires_grad, wo.requires_grad
    keep, scale = _dropout_mask(x.data.shape[:-1] + wi_0d.shape[-1:], p, rng)
    out = Tensor(_gated_hidden(x.data, wi_0d, wi_1d, keep, scale) @ wod)
    bits, width = _pack(keep), wi_0d.shape[-1]
    kx = _kept(x)

    def vjp(g):
        xd = kx()
        gh = g @ wod.T
        h0 = xd @ wi_0d
        h1 = xd @ wi_1d

        def hidden_grad(h0, h1, bits, gh):
            """In place: h0 becomes gh1 = gelu(h0) * gh, gh becomes
            gh0 = slope * gh * h1, gh taken after the dropout mask, and h1
            the hidden activations as the forward made them. The block's
            bits are unpacked once, the CDF and the slope share one square
            of h0, and the GELU is formed over the CDF."""
            keep = _unpack(bits, width)
            x2 = np.square(h0)
            gelu = _normal_cdf(h0, x2)
            slope = _gelu_slope(h0, gelu, x2)
            gelu *= h0
            _apply_mask(gh, keep, scale, out=gh)
            np.multiply(gelu, gh, out=h0)
            gh *= slope
            gh *= h1
            _gate(gelu, h1, keep, scale)

        _by_row_blocks(hidden_grad, h0, h1, bits, gh)
        gwo = _rows(h1).T @ _rows(g) if need_wo else None
        del h1
        gh0, gh1 = gh, h0
        gx = None
        if need_x:
            gx = gh0 @ wi_0d.T
            gx += gh1 @ wi_1d.T
        xt = _rows(xd).T
        return (gx, xt @ _rows(gh0) if need_wi_0 else None,
                xt @ _rows(gh1) if need_wi_1 else None, gwo)

    return _record(out, (x, wi_0, wi_1, wo), vjp)
