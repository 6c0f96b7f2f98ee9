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
computations (used for decoding and finite-difference probes).

Backward rules skip the work for operands that do not require gradients
(constants such as scales). Besides the primitives there are fused ops
that keep only what their backward rule needs, and rebuild in backward what
is cheap to rebuild. A dropout mask is kept as bits, packed along its last
axis:
- ``dropout``, and ``residual`` (x + dropout(a)), keep only their mask;
- multi-head ``attention`` keeps its softmax weights and dropout mask, and
  lays its q, k and v rows out on their grids again;
- the gated-GELU feed-forward ``gated_gelu_ffn``, with T5 v1.1's tanh GELU,
  keeps its two input projections and dropout mask, and rebuilds the GELU
  and the hidden activations block by block.

Ragged batches travel as rows: a 2-D ``[real positions, features]`` array
holding only the positions that are not padding, so every position-wise op
(``matmul`` by a weight, ``rms_norm``, ``gated_gelu_ffn``, ``dropout``,
``residual``, ``cross_entropy``) is one 2-D computation over real tokens.
``attention`` alone lays its rows out on the zero-filled
``[batch, len, features]`` grid they came from, and returns its context as
rows again. It also builds every attention mask, from the grid and a causal
flag: a grid position that is not a row is never a key.

float32 is the working precision for training. Build parameters as float64
when gradient-checking; ops follow the dtype of their inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes or index ranges are incompatible with the op."""


class LossError(ValueError):
    """No loss can be formed (e.g. every target position is ignored)."""


class TapeError(RuntimeError):
    """backward over a tape that an earlier backward already replayed."""


class Tensor:
    """A dense real-valued array plus an optional accumulated gradient. An
    op's output recorded on a tape carries the key its node names it by."""

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.key = None

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
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    @staticmethod
    def active():
        """The innermost tape currently recording, or None."""
        return _TAPE_STACK[-1] if _TAPE_STACK else None


_TAPE_STACK: list[Tape] = []


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, Tensor) else None
    return Tensor(np.asarray(x, dtype=dtype))


# One counter for every tape, so that a tensor produced on another tape never
# carries a key of this one.
_KEYS = itertools.count()


def _record(out, inputs, vjp):
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.key = next(_KEYS)
        tape.keys.add(out.key)
        tape.nodes.append(Node(out.key, tuple(_input_name(t, tape) for t in inputs), vjp))
    return out


def _input_name(t, tape):
    """How a node on tape names its input t (see Node)."""
    if not t.requires_grad:
        return None
    return t.key if t.key in tape.keys else t


def _accumulate(t, g):
    if g.shape != t.data.shape:
        g = g.reshape(t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def backward(loss, tape):
    """Populate .grad on every leaf reachable from loss: a tensor that
    requires gradients and is not the output of a node on this tape.

    A tape is replayed once. backward pops each node as it replays it, so
    the arrays a backward rule keeps are freed as soon as the rule has run,
    and a second backward over the same tape raises TapeError. Gradients
    accumulate additively: across fan-out within this call, and across calls
    on other tapes into pre-existing .grad arrays. A leaf's .grad is the
    array its backward rule returned, not a copy, so it may share memory
    with another leaf's .grad: replace .grad, never write into it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if tape.replayed:
        raise TapeError("backward over a tape that was already replayed")
    tape.replayed = True
    # gradients by the name a node gives its input: a key while the node
    # that produced it is still to be replayed, the leaf Tensor itself
    grads = {loss.key if loss.key in tape.keys else loss: np.ones_like(loss.data)}
    # names whose gradient buffer this call allocated; only those are added
    # into in place, since add and reshape rules return aliases of g
    owned = set()
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for name, ig in zip(node.inputs, node.vjp(g)):
            if name is None or ig is None:
                continue
            if name not in grads:
                grads[name] = ig
            elif name in owned:
                grads[name] += ig
            else:
                grads[name] = grads[name] + ig
                owned.add(name)
    # every node is replayed, so what is left is the leaves' gradients
    for leaf, g in grads.items():
        _accumulate(leaf, g)


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
    ad = a.data if b.requires_grad else None  # each operand's gradient reads the other one
    bd = b.data if a.requires_grad else None
    weight = b.data.ndim == 2

    def vjp(g):
        ga = None if bd is None else g @ _swap_last(bd)
        if ad is None:
            gb = None
        elif weight:
            gb = _rows(ad).T @ _rows(g)
        else:
            gb = _swap_last(ad) @ g
        return ga, gb

    return _record(out, (a, b), vjp)


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
    s = _softmax_inplace(x.data.copy())
    out = Tensor(s)

    def vjp(g):
        return (_softmax_grad_inplace(g.copy(), s),)

    return _record(out, (x,), vjp)


def _softmax_inplace(z):
    """Softmax over the trailing dimension of z, overwriting z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_grad_inplace(g, s):
    """Gradient at the softmax input, s * (g - sum(g * s)), overwriting g."""
    g -= (g * s).sum(axis=-1, keepdims=True)
    g *= s
    return g


def rms_norm(x, gain, eps=1e-6):
    """Scale each trailing-dim vector by 1/sqrt(mean(x^2)+eps), then by gain.

    No mean subtraction and no bias (simplified layer normalization).
    """
    x, gain = _as_tensor(x), _as_tensor(gain)
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError("rms_norm needs a non-empty trailing dimension")
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeError(f"gain shape {gain.data.shape} does not match trailing dimension {d}")
    # np.mean's result, bit for bit, without its Python-level wrapper
    ms = np.add.reduce(np.square(x.data), axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(ms + eps)
    xd, gd = x.data, gain.data
    out = Tensor(xd * inv * gd)

    def vjp(g):
        u = g * gd
        ux = (u * xd).sum(axis=-1, keepdims=True)
        gx = u * inv - xd * inv**3 * ux / d
        ggain = (g * xd * inv).reshape(-1, d).sum(axis=0)
        return gx, ggain

    return _record(out, (x, gain), vjp)


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


def cross_entropy(logits, targets, ignore_id=0):
    """Mean negative log-softmax probability of the target ids.

    logits: [positions, vocab]; targets: int sequence of the same length.
    Positions whose target equals ignore_id contribute nothing to the value
    or the gradient.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [positions, vocab] logits, got {logits.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    vocab = logits.data.shape[1]
    bad = (t != ignore_id) & ((t < 0) | (t >= vocab))
    if bad.any():
        raise ShapeError(f"target id out of range [0, {vocab}) at position {int(np.argmax(bad))}")
    keep = np.where(t != ignore_id)[0]
    if keep.size == 0:
        raise LossError("empty loss: every target position is ignored")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -logp[keep, t[keep]]
    out = Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype))
    shape, dtype = logits.data.shape, logits.data.dtype

    def vjp(g):
        gl = np.zeros(shape, dtype=dtype)
        gl[keep] = np.exp(logp[keep])
        gl[keep, t[keep]] -= 1.0
        return (gl * (g / keep.size),)

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
    """Keep-mask of inverted dropout, one bit per element packed along the
    last axis (np.packbits), and the scale of the kept elements; (None, 1.0)
    when p <= 0. An element is dropped when a uniform 16-bit draw is below
    round(p * 65536), so the drop rate is p quantized to 1/65536 (at most
    65535/65536), and the scale is the inverse of the quantized keep rate."""
    if p <= 0:
        return None, 1.0
    cut = min(round(p * _DROP_LEVELS), _DROP_LEVELS - 1)
    keep = rng.integers(0, _DROP_LEVELS, size=shape, dtype=np.uint16) >= cut
    return np.packbits(keep, axis=-1), _DROP_LEVELS / (_DROP_LEVELS - cut)


def _apply_mask(a, keep, scale, out=None):
    """a with the dropped elements zeroed and the kept ones scaled, written
    to out (a new array when None); a itself when there is no mask. keep is
    packed as _dropout_mask packs it, for a's shape or a block of its rows."""
    if keep is None:
        return a
    out = np.multiply(a, np.unpackbits(keep, axis=-1, count=a.shape[-1]).view(np.bool_), out=out)
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

    def vjp(g):
        return (_apply_mask(g, keep, scale),)

    return _record(out, (x,), vjp)


def residual(x, a, p, rng):
    """x + dropout(a, p, rng) as one op, drawing the same mask from rng; a
    plain add when p <= 0. The backward rule keeps only the dropout mask."""
    if p <= 0:
        return add(x, a)
    if x.data.shape != a.data.shape:
        raise ShapeError(f"residual of {a.shape} onto {x.shape}")
    keep, scale = _dropout_mask(a.data.shape, p, rng)
    out = _apply_mask(a.data, keep, scale)
    out += x.data
    a_grad = a.requires_grad

    def vjp(g):
        return g, _apply_mask(g, keep, scale) if a_grad else None

    return _record(Tensor(out), (x, a), vjp)


MASKED = -1e9  # additive attention-logit mask; underflows to weight 0 after softmax


def _key_mask(kv_grid, n_queries, causal, dtype):
    """Additive mask [.., queries, keys] hiding the keys a query may not see,
    or None when every query sees every key: the key grid positions that are
    not rows and, when causal, the keys after the query's position. Query i
    of n sits at key position len - n + i, so a single query sees every key."""
    index, (b, n_keys) = kv_grid
    mask = None
    if index is not None:
        mask = np.full(b * n_keys, MASKED, dtype=dtype)
        mask[index] = 0.0
        mask = mask.reshape(b, 1, 1, n_keys)
    if causal and n_queries > 1:
        later = np.arange(n_keys) > np.arange(n_keys - n_queries, n_keys)[:, None]
        later = np.where(later, MASKED, 0.0).astype(dtype)
        mask = later if mask is None else np.minimum(mask, later)
    return mask


def attention(q, k, v, n_heads, scale, grids, bias=None, causal=False, p=0.0, rng=None):
    """Multi-head scaled dot-product attention as one op, on rows.

    grids = (query grid, key grid), each (index, (batch, len)). q holds the
    rows [n, heads * d] of the query grid's real positions, k and v those of
    the key grid: row i is the row-major flat position index[i], or position
    i when index is None (every position is real; k and v may then also come
    as [batch, len, heads * d]). Attention runs on the grids, zero-filled
    elsewhere, and decides itself which keys a query sees: no key position
    that is not a row, and with causal=True no key after the query's own
    position, query i of len_q sitting at key position len_k - len_q + i
    (the queries are the keys, or the last of them in a cached decoding step).
    Per head, the scores q.k^T are multiplied by scale, then the Tensor bias
    (broadcastable to [batch, heads, queries, keys]) is added and the hidden
    keys get MASKED; the softmax weights take inverted dropout with
    probability p and weight the values. Returns the context rows of the
    query grid. The backward rule keeps the softmax weights, the dropout
    mask and the q, k and v rows: when a grid has positions that are not
    rows, its zero-filled copies of q, k and v are temporaries, and backward
    lays the rows out again.
    """
    inner = q.data.shape[-1]
    if inner % n_heads or k.data.shape[-1] != inner or v.data.shape != k.data.shape:
        raise ShapeError(f"attention over {n_heads} heads: q {q.shape}, k {k.shape}, v {v.shape}")
    q_grid, kv_grid = grids
    n_q, n_k = q_grid[1][1], kv_grid[1][1]
    if causal and n_q > n_k:
        raise ShapeError(f"causal attention of {n_q} queries over {n_k} keys")
    d = inner // n_heads

    def heads(a, grid):
        index, (b, n) = grid
        if a.size != inner * (b * n if index is None else len(index)):
            raise ShapeError(f"attention: {a.shape} does not fill the grid {(b, n)} with index {index}")
        if index is not None:  # rows at their grid positions, zeros elsewhere
            full = np.zeros((b * n, inner), dtype=a.dtype)
            full[index] = a
            a = full
        return a.reshape(b, n, n_heads, d).transpose(0, 2, 1, 3)

    def merge(a, grid, shape):
        """Per-head a [batch, heads, len, d] back as rows, or in `shape` when
        the grid has no index."""
        index = grid[0]
        a = a.transpose(0, 2, 1, 3).reshape(shape if index is None else (-1, inner))
        return a if index is None else a[index]

    qd, kd, vd = q.data, k.data, v.data
    qh, kh, vh = heads(qd, q_grid), heads(kd, kv_grid), heads(vd, kv_grid)
    w = qh @ _swap_last(kh)
    w *= scale
    if bias is not None:
        w += bias.data
    mask = _key_mask(kv_grid, n_q, causal, w.dtype)
    if mask is not None:
        w += mask
    w = _softmax_inplace(w)
    keep, drop_scale = _dropout_mask(w.shape, p, rng)
    out = Tensor(merge(_apply_mask(w, keep, drop_scale) @ vh, q_grid, qd.shape))
    q_shape, kv_shape = qd.shape, kd.shape
    need_v = v.requires_grad
    bias_shape = bias.data.shape if bias is not None and bias.requires_grad else None
    kd = kd if q.requires_grad else None  # only the query gradient reads k
    qd = qd if k.requires_grad else None  # only the key gradient reads q

    def vjp(g):
        gh = heads(g, q_grid)
        gv = merge(_swap_last(_apply_mask(w, keep, drop_scale)) @ gh, kv_grid, kv_shape) if need_v else None
        gw = gh @ _swap_last(heads(vd, kv_grid))
        gw = _softmax_grad_inplace(_apply_mask(gw, keep, drop_scale, out=gw), w)
        gbias = None if bias_shape is None else _unbroadcast(gw, bias_shape)
        gq = None if kd is None else merge(gw @ heads(kd, kv_grid), q_grid, q_shape) * scale
        gk = None if qd is None else merge(_swap_last(gw) @ heads(qd, q_grid), kv_grid, kv_shape) * scale
        return gq, gk, gv, gbias

    return _record(out, (q, k, v) if bias is None else (q, k, v, bias), vjp)


_BLOCK_ELEMENTS = 1 << 16  # elementwise FFN work runs over row blocks of about this many elements


def _by_row_blocks(body, *arrays):
    """body(*blocks) over blocks of max(1, _BLOCK_ELEMENTS // width) rows of
    the [..., width] arrays, so each block's temporaries stay in cache; None
    passes through as None. A call that fits in one block gets the arrays
    themselves."""
    width = arrays[0].shape[-1]
    step = max(1, _BLOCK_ELEMENTS // width)
    n = arrays[0].size // width
    if n <= step:
        body(*arrays)
        return
    rows = [None if a is None else _rows(a) for a in arrays]
    for i in range(0, n, step):
        body(*(None if a is None else a[i:i + step] for a in rows))


def gated_gelu_ffn(x, wi_0, wi_1, wo, p=0.0, rng=None):
    """Gated-GELU feed-forward as one op: (gelu(x.wi_0) * (x.wi_1)) with
    inverted dropout p, then .wo. x: [..., d_model]; wi_0, wi_1:
    [d_model, d_ff]; wo: [d_ff, d_model]. The matrix products run whole;
    the elementwise work between them runs over blocks of rows (see
    _by_row_blocks), and the dropout mask is drawn at full shape first. The
    backward rule keeps both input projections and the dropout mask: the
    normal CDF lives only inside a block, and backward rebuilds it and the
    hidden activations block by block, with the forward's own ops."""
    xd, wi_0d, wi_1d, wod = x.data, wi_0.data, wi_1.data, wo.data
    need_x, need_wi_0, need_wi_1, need_wo = x.requires_grad, wi_0.requires_grad, wi_1.requires_grad, wo.requires_grad
    h0 = xd @ wi_0d
    h1 = xd @ wi_1d
    keep, scale = _dropout_mask(h0.shape, p, rng)

    def hidden(h0, h1, keep, h, x2=None):
        """h = dropout(gelu(h0) * h1), written to h; returns the CDF of h0.
        x2, when given, is np.square(h0)."""
        cdf = _normal_cdf(h0, x2)
        np.multiply(h0, cdf, out=h)
        h *= h1
        _apply_mask(h, keep, scale, out=h)
        return cdf

    h = np.empty_like(h0)
    _by_row_blocks(hidden, h0, h1, keep, h)
    out = Tensor(h @ wod)

    def vjp(g):
        gh = g @ wod.T
        gh1 = np.empty_like(gh)
        h = np.empty_like(gh)

        def hidden_grad(h0, h1, keep, h, gh, gh1):
            """h rebuilt as the forward made it; gh1 = gelu(h0) * gh and, in
            gh's place, gh0 = slope * gh * h1, gh taken after the dropout mask.
            The CDF and the slope share one square of h0."""
            x2 = np.square(h0)
            cdf = hidden(h0, h1, keep, h, x2)
            _apply_mask(gh, keep, scale, out=gh)
            np.multiply(h0, cdf, out=gh1)
            gh1 *= gh
            gh *= _gelu_slope(h0, cdf, x2)
            gh *= h1

        _by_row_blocks(hidden_grad, h0, h1, keep, h, gh, gh1)
        gwo = _rows(h).T @ _rows(g) if need_wo else None
        del h
        gh0 = gh
        gx = None
        if need_x:
            gx = gh0 @ wi_0d.T
            gx += gh1 @ wi_1d.T
        xt = _rows(xd).T
        return (gx, xt @ _rows(gh0) if need_wi_0 else None,
                xt @ _rows(gh1) if need_wi_1 else None, gwo)

    return _record(out, (x, wi_0, wi_1, wo), vjp)
