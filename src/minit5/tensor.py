"""Dense tensors with reverse-mode automatic differentiation on numpy.

Ops run eagerly. While a Tape is active (``with Tape() as tape:``), every
op whose inputs require gradients records a backward rule on the tape;
``backward(loss, tape)`` then replays the tape in reverse and accumulates
gradients into ``Tensor.grad`` of the leaves only: tensors that require
gradients and are no op's output on that tape (parameters, probes).
Intermediate outputs never get a ``.grad``. With no tape active, ops are
plain forward computations (used for decoding and finite-difference probes).

Backward rules skip the work for operands that do not require gradients
(constants such as scales). Besides the primitives there are fused ops that
save only what their backward rule needs: ``dropout``, multi-head
``attention`` and the gated-GELU feed-forward ``gated_gelu_ffn``, with T5
v1.1's tanh GELU.

Ragged batches travel as rows: a 2-D ``[real positions, features]`` array
holding only the positions that are not padding, so every position-wise op
(``matmul`` by a weight, ``rms_norm``, ``gated_gelu_ffn``, ``dropout``,
``add``, ``cross_entropy``) is one 2-D computation over real tokens.
``attention`` alone lays its rows out on the zero-filled
``[batch, len, features]`` grid they came from, and returns its context as
rows again. It also builds every attention mask, from the grid and a causal
flag: a grid position that is not a row is never a key.

float32 is the working precision for training. Build parameters as float64
when gradient-checking; ops follow the dtype of their inputs.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes or index ranges are incompatible with the op."""


class LossError(ValueError):
    """No loss can be formed (e.g. every target position is ignored)."""


class Tensor:
    """A dense real-valued array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

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
    """One recorded primitive application: output, inputs, backward rule."""

    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction; ``backward`` walks it once in reverse.
    """

    def __init__(self):
        self.nodes = []

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


def _record(out, inputs, vjp):
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(Node(out, inputs, vjp))
    return out


def _accumulate(t, g):
    if g.shape != t.data.shape:
        g = g.reshape(t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def backward(loss, tape):
    """Populate .grad on every leaf reachable from loss: a tensor that
    requires gradients and is not the output of a node on this tape.

    Gradients accumulate additively: across fan-out within this call, and
    across repeated calls into pre-existing .grad arrays. A leaf's .grad is
    the array its backward rule returned, not a copy, so it may share memory
    with another leaf's .grad: replace .grad, never write into it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    produced = {id(node.out) for node in tape.nodes}
    grads = {id(loss): np.ones_like(loss.data)}
    leaves = {} if id(loss) in produced else {id(loss): loss}
    # keys whose gradient buffer this call allocated; only those are added
    # into in place, since add and reshape rules return aliases of g
    owned = set()
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for inp, ig in zip(node.inputs, node.vjp(g)):
            if ig is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key not in grads:
                grads[key] = ig
                if key not in produced:
                    leaves[key] = inp
            elif key in owned:
                grads[key] += ig
            else:
                grads[key] = grads[key] + ig
                owned.add(key)
    for key, t in leaves.items():
        _accumulate(t, grads[key])


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

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), vjp)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

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

    def vjp(g):
        ga = g @ _swap_last(b.data) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif b.data.ndim == 2:
            gb = _rows(a.data).T @ _rows(g)
        else:
            gb = _swap_last(a.data) @ g
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

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
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
    out = Tensor(x.data * inv * gain.data)

    def vjp(g):
        u = g * gain.data
        ux = (u * x.data).sum(axis=-1, keepdims=True)
        gx = u * inv - x.data * inv**3 * ux / d
        ggain = (g * x.data * inv).reshape(-1, d).sum(axis=0)
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


def _normal_cdf(x, out=None):
    """0.5 * (1 + tanh(k * (x + a x^3))), the tanh-form normal CDF, in one
    buffer of x's dtype: out, or a new array when None."""
    cdf = np.square(x, out=out)
    cdf *= _GELU_A * _GELU_K
    cdf += _GELU_K
    cdf *= x
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x, cdf):
    """d/dx of x * cdf(x), exactly: cdf + x * 2k (1 + 3a x^2) * cdf * (1 - cdf),
    since 1 - tanh^2 = 4 cdf (1 - cdf)."""
    d = np.square(x)
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

    def vjp(g):
        gl = np.zeros_like(logits.data)
        gl[keep] = np.exp(logp[keep])
        gl[keep, t[keep]] -= 1.0
        return (gl * (g / keep.size),)

    return _record(out, (logits,), vjp)


def reshape(x, shape):
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def vjp(g):
        return (g.reshape(x.data.shape),)

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

    def vjp(g):
        return (np.full_like(x.data, g.item()),)

    return _record(out, (x,), vjp)


_DROP_LEVELS = 1 << 16  # dropout masks compare 16-bit draws: p is quantized to 1/65536


def _dropout_mask(shape, p, rng):
    """Boolean keep-mask of inverted dropout and the scale of the kept
    elements; (None, 1.0) when p <= 0. An element is dropped when a uniform
    16-bit draw is below round(p * 65536), so the drop rate is p quantized
    to 1/65536 (at most 65535/65536), and the scale is the inverse of the
    quantized keep rate."""
    if p <= 0:
        return None, 1.0
    cut = min(round(p * _DROP_LEVELS), _DROP_LEVELS - 1)
    keep = rng.integers(0, _DROP_LEVELS, size=shape, dtype=np.uint16) >= cut
    return keep, _DROP_LEVELS / (_DROP_LEVELS - cut)


def _apply_mask(a, keep, scale, out=None):
    """a with the dropped elements zeroed and the kept ones scaled, written
    to out (a new array when None); a itself when there is no mask."""
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

    def vjp(g):
        return (_apply_mask(g, keep, scale),)

    return _record(out, (x,), vjp)


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
    query grid. The backward rule keeps only the softmax weights and the
    dropout mask.
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

    def merge(a, grid, like):
        """Per-head a [batch, heads, len, d] back in the layout of `like`."""
        index = grid[0]
        a = a.transpose(0, 2, 1, 3).reshape(like.shape if index is None else (-1, inner))
        return a if index is None else a[index]

    qh, kh, vh = heads(q.data, q_grid), heads(k.data, kv_grid), heads(v.data, kv_grid)
    w = qh @ _swap_last(kh)
    w *= scale
    if bias is not None:
        w += bias.data
    mask = _key_mask(kv_grid, n_q, causal, w.dtype)
    if mask is not None:
        w += mask
    w = _softmax_inplace(w)
    keep, drop_scale = _dropout_mask(w.shape, p, rng)
    out = Tensor(merge(_apply_mask(w, keep, drop_scale) @ vh, q_grid, q.data))

    def vjp(g):
        gh = heads(g, q_grid)
        gv = (merge(_swap_last(_apply_mask(w, keep, drop_scale)) @ gh, kv_grid, v.data)
              if v.requires_grad else None)
        gw = gh @ _swap_last(vh)
        gw = _softmax_grad_inplace(_apply_mask(gw, keep, drop_scale, out=gw), w)
        gbias = _unbroadcast(gw, bias.data.shape) if bias is not None and bias.requires_grad else None
        gq = merge(gw @ kh, q_grid, q.data) * scale if q.requires_grad else None
        gk = merge(_swap_last(gw) @ qh, kv_grid, k.data) * scale if k.requires_grad else None
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
    backward rule keeps both input projections, the normal CDF of the
    first, the hidden activations and the dropout mask."""
    h0 = x.data @ wi_0.data
    h1 = x.data @ wi_1.data
    keep, scale = _dropout_mask(h0.shape, p, rng)
    cdf = np.empty_like(h0)
    h = np.empty_like(h0)

    def hidden(h0, h1, keep, cdf, h):
        _normal_cdf(h0, out=cdf)
        np.multiply(h0, cdf, out=h)
        h *= h1
        _apply_mask(h, keep, scale, out=h)

    _by_row_blocks(hidden, h0, h1, keep, cdf, h)
    out = Tensor(h @ wo.data)

    def vjp(g):
        gwo = _rows(h).T @ _rows(g) if wo.requires_grad else None
        gh = g @ wo.data.T
        gh1 = np.empty_like(gh)

        def hidden_grad(h0, h1, keep, cdf, gh, gh1):
            """gh1 = gelu(h0) * gh and, in gh's place, gh0 = slope * gh * h1,
            gh taken after the dropout mask."""
            _apply_mask(gh, keep, scale, out=gh)
            np.multiply(h0, cdf, out=gh1)
            gh1 *= gh
            gh *= _gelu_slope(h0, cdf)
            gh *= h1

        _by_row_blocks(hidden_grad, h0, h1, keep, cdf, gh, gh1)
        gh0 = gh
        gx = None
        if x.requires_grad:
            gx = gh0 @ wi_0.data.T
            gx += gh1 @ wi_1.data.T
        xt = _rows(x.data).T
        return (gx, xt @ _rows(gh0) if wi_0.requires_grad else None,
                xt @ _rows(gh1) if wi_1.requires_grad else None, gwo)

    return _record(out, (x, wi_0, wi_1, wo), vjp)
