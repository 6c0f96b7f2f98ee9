"""Dense tensors with reverse-mode automatic differentiation on numpy.

Ops run eagerly. While a Tape is active (``with Tape() as tape:``), every
op whose inputs require gradients records a backward rule on the tape;
``backward(loss, tape)`` then replays the tape in reverse and accumulates
gradients into ``Tensor.grad``. With no tape active, ops are plain forward
computations (used for decoding and finite-difference probes).

float32 is the working precision for training. Build parameters as float64
when gradient-checking; ops follow the dtype of their inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the module-level functions do the real work.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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
    t.grad = g.copy() if t.grad is None else t.grad + g


def backward(loss, tape):
    """Populate .grad for every requires_grad tensor reachable from loss.

    Gradients accumulate additively: across fan-out within this call, and
    across repeated calls into pre-existing .grad arrays.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for node in reversed(tape.nodes):
        g = grads.get(id(node.out))
        if g is None:
            continue
        for inp, ig in zip(node.inputs, node.vjp(g)):
            if ig is None or not inp.requires_grad:
                continue
            key = id(inp)
            grads[key] = grads[key] + ig if key in grads else ig
            holders[key] = inp
        if node.out.requires_grad:
            _accumulate(node.out, grads.pop(id(node.out)))
            holders.pop(id(node.out), None)
    # whatever is left never appeared as a node output: leaves (and a loss
    # that is itself a leaf)
    for key, g in grads.items():
        _accumulate(holders[key], g)


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
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), vjp)


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), vjp)


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)

    def vjp(g):
        return (-g,)

    return _record(out, (a,), vjp)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record(out, (a, b), vjp)


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


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
        ga = g @ _swap_last(b.data)
        if b.data.ndim == 2:
            k = a.data.shape[-1]
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
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
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (x,), vjp)


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
    ms = np.mean(np.square(x.data), axis=-1, keepdims=True)
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
    cdf = 0.5 * (1.0 + erf(xd / math.sqrt(2.0)))
    out = Tensor(xd * cdf)

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + xd * pdf),)

    return _record(out, (x,), vjp)


def relu(x):
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))

    def vjp(g):
        return (g * (x.data > 0),)

    return _record(out, (x,), vjp)


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


def dropout(x, p, rng):
    """Inverted dropout; identity when p <= 0."""
    if p <= 0:
        return x
    x = _as_tensor(x)
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, Tensor(mask))
