"""Teacher-forced loss, AdamW, LR schedule, token-budget batch packing and
binary checkpoints with per-blob checksums.

Checkpoints round-trip bit-exactly: little-endian blobs in path-sorted
order behind a magic/version header, streamed through
`fileio.atomic_write`, so a failed save never leaves a partial artifact.
A damaged file raises CheckpointError naming the byte offset.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .fileio import atomic_write
from .model import ModelConfig, forward
from .tensor import Tensor, cross_entropy, reshape

CHECKPOINT_MAGIC = b"MNT5CKPT"
CHECKPOINT_VERSION = 1


class TrainingError(ValueError):
    pass


class NumericalError(FloatingPointError):
    """Non-finite loss or gradients."""


class CheckpointError(RuntimeError):
    pass


def _pad_batch(sequences, pad_id):
    width = max(len(s) for s in sequences)
    out = np.full((len(sequences), width), pad_id, dtype=np.int64)
    for i, s in enumerate(sequences):
        out[i, : len(s)] = s
    return out


def teacher_forced_loss(config, params, pairs, *, pad_id=0, train=False, rng=None):
    """Mean cross-entropy of the targets under teacher forcing.

    pairs: objects with input_ids / target_ids (noised pairs or encoded
    task examples). The decoder consumes [start, target[:-1]] with the pad
    id as the start symbol; pad positions in the padded targets are ignored.
    """
    pairs = list(pairs)
    if not pairs:
        raise TrainingError("empty batch")
    if any(len(p.target_ids) == 0 for p in pairs):
        raise TrainingError("empty target sequence in batch")
    enc_in = _pad_batch([p.input_ids for p in pairs], pad_id)
    targets = _pad_batch([p.target_ids for p in pairs], pad_id)
    b, t = targets.shape
    dec_in = np.concatenate([np.full((b, 1), pad_id, dtype=np.int64), targets[:, :-1]], axis=1)
    logits = forward(config, params, enc_in, dec_in, pad_id=pad_id, train=train, rng=rng)
    return cross_entropy(reshape(logits, (b * t, config.vocab_size)), targets.reshape(-1), ignore_id=pad_id)


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step_count = 0

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr=None):
        """One update from the gradients currently stored on the parameters.
        Parameters without gradients are skipped."""
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient in parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)

    def state(self):
        return {
            "step": self.step_count,
            "hyper": {"lr": self.lr, "betas": [self.beta1, self.beta2],
                      "eps": self.eps, "weight_decay": self.weight_decay},
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
        }

    def load_state(self, state):
        self.step_count = state["step"]
        hyper = state["hyper"]
        self.lr = hyper["lr"]
        self.beta1, self.beta2 = hyper["betas"]
        self.eps = hyper["eps"]
        self.weight_decay = hyper["weight_decay"]
        for k in self.m:
            self.m[k] = state["m"][k].astype(self.m[k].dtype, copy=True)
            self.v[k] = state["v"][k].astype(self.v[k].dtype, copy=True)


def lr_schedule(step, base_lr, warmup=10_000):
    """Linear warmup to base_lr, then inverse-square-root decay."""
    if step < 1:
        raise TrainingError(f"schedule step must be >= 1, got {step}")
    if step <= warmup:
        return base_lr * step / warmup
    return base_lr * math.sqrt(warmup / step)


def token_batch_pack(examples, budget, size=None):
    """Greedy in-order packing into batches of at most `budget` total tokens.

    No example is split; an example alone exceeding the budget is an error
    (truncate upstream). Yields lists of examples.
    """
    if size is None:
        size = lambda e: len(e.input_ids) + len(e.target_ids)
    batch = []
    batch_tokens = 0
    for ex in examples:
        n = size(ex)
        if n > budget:
            raise TrainingError(f"single example of {n} tokens exceeds the {budget}-token budget")
        if batch and batch_tokens + n > budget:
            yield batch
            batch = []
            batch_tokens = 0
        batch.append(ex)
        batch_tokens += n
    if batch:
        yield batch


@dataclass(eq=False)  # identity comparison: holds numpy arrays
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    step: int = 0
    optimizer: dict | None = None
    rng_state: dict | None = None
    version: int = CHECKPOINT_VERSION

    @classmethod
    def from_model(cls, config, params, step=0, optimizer=None, rng=None):
        raw = {k: p.data.copy() for k, p in params.items()}
        rng_state = rng.bit_generator.state if rng is not None else None
        opt = optimizer.state() if isinstance(optimizer, AdamW) else optimizer
        return cls(config, raw, step=step, optimizer=opt, rng_state=rng_state)

    def to_params(self):
        """Parameter dict of gradient-tracking tensors over copies of the
        stored arrays."""
        return {k: Tensor(a.copy(), requires_grad=True) for k, a in self.params.items()}

    def make_rng(self):
        rng = np.random.default_rng(0)
        if self.rng_state is not None:
            rng.bit_generator.state = self.rng_state
        return rng


def _write_sized(f, size_fmt, data):
    """Length-prefixed bytes, the inverse of _Reader.text."""
    f.write(struct.pack(size_fmt, len(data)))
    f.write(data)


def _write_blob(f, path, arr):
    data = np.ascontiguousarray(arr)
    dtype = data.dtype.newbyteorder("<").str
    payload = data.astype(dtype, copy=False).tobytes()
    _write_sized(f, "<H", path.encode("utf-8"))
    _write_sized(f, "<B", dtype.encode("ascii"))
    f.write(struct.pack("<B", data.ndim))
    for dim in data.shape:
        f.write(struct.pack("<I", dim))
    _write_sized(f, "<Q", payload)
    f.write(struct.pack("<I", zlib.crc32(payload)))


class _Reader:
    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size

    def fail(self, offset, problem):
        raise CheckpointError(f"corrupt checkpoint at byte offset {offset}: {problem}")

    def read(self, n, what):
        offset = self.f.tell()
        data = self.f.read(n) if n <= self.size - offset else b""
        if len(data) != n:
            self.fail(offset, f"truncated {what}")
        return data

    def unpack(self, fmt, what):
        (value,) = struct.unpack(fmt, self.read(struct.calcsize(fmt), what))
        return value

    def text(self, size_fmt, what, encoding="utf-8"):
        """A length-prefixed string."""
        data = self.read(self.unpack(size_fmt, f"{what} size"), what)
        try:
            return data.decode(encoding)
        except UnicodeDecodeError:
            self.fail(self.f.tell() - len(data), f"{what} is not {encoding}")

    def json(self, what):
        """A length-prefixed JSON document; empty means None."""
        offset = self.f.tell() + 4  # the document follows its 4-byte size
        text = self.text("<I", what)
        try:
            return json.loads(text) if text else None
        except ValueError:
            self.fail(offset, f"{what} is not valid JSON")


def _read_blob(r):
    path = r.text("<H", "blob path")
    dtype_str = r.text("<B", "dtype", encoding="ascii")
    offset = r.f.tell() - len(dtype_str)
    try:  # the writer stores canonical little-endian numeric type strings only
        dtype = np.dtype(dtype_str)
        valid = dtype.str == dtype_str and dtype.kind in "biufc"
    except (TypeError, ValueError, SyntaxError):  # numpy parses some type strings as Python literals
        valid = False
    if not valid:
        r.fail(offset, f"invalid dtype {dtype_str!r} in '{path}'")
    ndim = r.unpack("<B", "ndim")
    shape = tuple(r.unpack("<I", "dimension") for _ in range(ndim))
    nbytes = r.unpack("<Q", "payload size")
    offset = r.f.tell()
    if nbytes != dtype.itemsize * math.prod(shape):
        r.fail(offset, f"payload size {nbytes} does not match {dtype_str} {list(shape)} in '{path}'")
    payload = r.read(nbytes, f"payload of '{path}'")
    crc = r.unpack("<I", "checksum")
    if zlib.crc32(payload) != crc:
        r.fail(offset, f"checksum mismatch in '{path}'")
    return path, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_checkpoint(path, checkpoint):
    """Stream the checkpoint blob by blob through an atomic write."""
    with atomic_write(path, binary=True) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", checkpoint.version))
        f.write(struct.pack("<Q", checkpoint.step))
        _write_sized(f, "<I", json.dumps(dataclasses.asdict(checkpoint.config)).encode("utf-8"))
        rng_json = "" if checkpoint.rng_state is None else json.dumps(checkpoint.rng_state)
        _write_sized(f, "<I", rng_json.encode("utf-8"))
        f.write(struct.pack("<B", 0 if checkpoint.optimizer is None else 1))
        names = sorted(checkpoint.params)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            _write_blob(f, name, checkpoint.params[name])
        if checkpoint.optimizer is not None:
            opt = checkpoint.optimizer
            f.write(struct.pack("<Q", opt["step"]))
            _write_sized(f, "<I", json.dumps(opt["hyper"]).encode("utf-8"))
            for name in names:
                _write_blob(f, name, opt["m"][name])
            for name in names:
                _write_blob(f, name, opt["v"][name])


def load_checkpoint(path):
    """Parse and verify a checkpoint; never returns partial state. Any
    damage raises CheckpointError."""
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = r.read(len(CHECKPOINT_MAGIC), "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        version = r.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
        step = r.unpack("<Q", "step")
        offset = f.tell()
        try:
            config = ModelConfig(**r.json("config"))
        except (TypeError, ValueError) as e:
            r.fail(offset, f"invalid model config ({e})")
        rng_state = r.json("rng state")
        has_opt = r.unpack("<B", "optimizer flag")
        n_params = r.unpack("<I", "parameter count")
        params = dict(_read_blob(r) for _ in range(n_params))
        optimizer = None
        if has_opt:
            opt_step = r.unpack("<Q", "optimizer step")
            hyper = r.json("hyper")
            m = dict(_read_blob(r) for _ in range(n_params))
            v = dict(_read_blob(r) for _ in range(n_params))
            optimizer = {"step": opt_step, "hyper": hyper, "m": m, "v": v}
        if f.read(1):
            r.fail(f.tell() - 1, "trailing data")
    return Checkpoint(config, params, step=step, optimizer=optimizer, rng_state=rng_state, version=version)


def select_best_checkpoint(checkpoints, validation, vocab, *, max_output_tokens, pad_id=0):
    """Decode the validation set with every checkpoint and keep the one with
    the highest mean ROUGE-L; ties go to the earliest. Returns
    (best checkpoint, scores)."""
    checkpoints = list(checkpoints)
    validation = list(validation)
    if not checkpoints:
        raise TrainingError("no checkpoints to select from")
    if not validation:
        raise TrainingError("empty validation set")
    scores = []
    for ck in checkpoints:
        outputs = evaluation.decode_examples(ck.config, ck.to_params(), vocab, validation, max_output_tokens,
                                             pad_id=pad_id)
        scores.append(sum(evaluation.rouge_l(out, ex.target_text) for out, ex in zip(outputs, validation))
                      / len(validation))
    best = int(np.argmax(scores))  # argmax returns the first (earliest) maximum
    return checkpoints[best], scores
