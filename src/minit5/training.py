"""Teacher-forced loss, AdamW, LR schedule, token-budget batch packing,
the pretraining batch stream, binary checkpoints and best-checkpoint
selection by the task's own metric.

A checkpoint (format version 2) is `MNT5CKPT`, a u32 version, a u32 header
size, a JSON header (step, config, RNG state, optimizer step and hyper, and
a table of each array's name, dtype, shape and CRC32), the header's CRC32,
then the raw little-endian arrays in table order. It round-trips bit-exactly
and is streamed through `fileio.atomic_write`, so a failed save never leaves
a partial artifact. A checkpoint holds what its config implies: the table
must be the one `save_checkpoint` writes for the stored config, checked
before any payload byte is read. Damage, another version, or another table
raises CheckpointError.

`Checkpoint.from_model` holds the live parameter and AdamW moment arrays,
not copies: `AdamW.step` replaces each array with a new one instead of
writing into it, so a checkpoint stays a snapshot while training goes on,
and saving one copies no array.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import PART_THREADS, evaluation, noising, tensor
from .bpe import PAD_ID
from .fileio import atomic_write
from .model import ModelConfig, decode_logits, encode, param_shapes
from .tensor import Tape, Tensor, _record, backward, cross_entropy, mul

CHECKPOINT_MAGIC = b"MNT5CKPT"
CHECKPOINT_VERSION = 2
_PREFIX = struct.Struct("<8sII")  # magic, version, header size in bytes


class TrainingError(ValueError):
    pass


class NumericalError(FloatingPointError):
    """Non-finite loss or gradients."""


class CheckpointError(RuntimeError):
    pass


def _pad_batch(sequences):
    width = max(len(s) for s in sequences)
    out = np.full((len(sequences), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(sequences):
        out[i, : len(s)] = s
    return out


# (encoder rows + decoder rows) * d_ff from which a batch runs as two parts:
# where two parts on two threads began to beat the whole batch on one, for
# tiny and d256 batches alike (2^17.6 to 2^18 on a 2-CPU machine)
SPLIT_WORK = 1 << 18


def teacher_forced_loss(config, params, pairs, *, train=False, rng=None):
    """Mean cross-entropy of the targets under teacher forcing.

    pairs: objects with input_ids / target_ids (noised pairs or encoded
    task examples). The decoder consumes [start, target[:-1]] with the pad
    id as the start symbol. Only real positions are computed: the encoder
    skips pad inputs and the decoder stops each row at its target's length,
    so its rows are the target positions that count, every one in the mean.
    No input or target may be empty, and a target may not hold the pad id.

    A batch of at least 2 pairs whose (encoder rows + decoder rows) * d_ff
    reaches SPLIT_WORK runs as two parts (see _two_part_loss), each on a
    thread of its own when PART_THREADS allows, else one after the other;
    the bits are the same either way. On an active tape a part's backward
    follows its forward, so a split batch's gradients are formed before
    this returns; they reach .grad only through the caller's backward.
    """
    pairs = list(pairs)
    if not pairs:
        raise TrainingError("empty batch")
    if any(len(p.input_ids) == 0 for p in pairs):
        raise TrainingError("empty input sequence in batch")
    if any(len(p.target_ids) == 0 for p in pairs):
        raise TrainingError("empty target sequence in batch")
    if any(PAD_ID in p.target_ids for p in pairs):
        raise TrainingError(f"target sequence in batch holds the pad id {PAD_ID}")
    if train and config.dropout > 0 and rng is None:
        raise TrainingError(f"a training forward at dropout {config.dropout} draws its masks from rng, which is None")
    rows = sum(len(p.input_ids) + len(p.target_ids) for p in pairs)
    if len(pairs) < 2 or rows * config.d_ff < SPLIT_WORK:
        return _loss(config, params, pairs, train, rng)
    return _two_part_loss(config, params, pairs, train, rng)


def _loss(config, params, pairs, train, rng):
    """teacher_forced_loss of a checked batch, run whole."""
    enc_in = _pad_batch([p.input_ids for p in pairs])
    targets = _pad_batch([p.target_ids for p in pairs])
    dec_in = np.concatenate([np.full((len(pairs), 1), PAD_ID, dtype=np.int64), targets[:, :-1]], axis=1)
    enc_out, enc_grid = encode(config, params, enc_in, train=train, rng=rng)
    logits = decode_logits(config, params, enc_out, enc_grid, dec_in, train=train, rng=rng,
                           lengths=[len(p.target_ids) for p in pairs])
    return cross_entropy(logits, np.concatenate([p.target_ids for p in pairs]))


_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="minit5-part")  # no thread before a submit


def _both(fn):
    """(fn(0), fn(1)), each call whole on one thread: fn(1) on the part
    thread, which the first call starts, when PART_THREADS is 2, else after
    fn(0) on this thread. fn(1) has finished when this returns or raises;
    an error of fn(0) wins, and either is raised unchanged."""
    if PART_THREADS < 2:
        return fn(0), fn(1)
    second = _POOL.submit(fn, 1)
    try:
        first = fn(0)
    finally:
        wait([second])
    return first, second.result()


def _two_part_loss(config, params, pairs, train, rng):
    """The loss of two parts of the batch, split at the pair boundary that
    best balances their target rows. Each part runs _loss over the caller's
    params on its own tape (a forward writes only its outputs, so the parts
    share them), and weights its mean by its share of the target rows, so
    the sum is the mean over every target row. When dropout draws, each
    part draws from a generator seeded by a draw of rng, so rng's state
    (which checkpoints keep) is the whole story. On an active tape each
    part replays its own tape right after its forward, on its thread, and
    sums each parameter's gradient into the other part's as the second
    arrives (backward's on_leaf, by leaf): no tape outlives its part, two
    full gradient sets are never alive, and no .grad is written. The sum is
    one node over the parameters, whose backward rule hands out the sums."""
    ends = np.cumsum([len(p.target_ids) for p in pairs])
    k = 1 + int(np.argmin(np.abs(2 * ends[:-1] - ends[-1])))
    parts = (pairs[:k], pairs[k:])
    shares = (ends[k - 1] / ends[-1], (ends[-1] - ends[k - 1]) / ends[-1])
    rngs = (rng, rng)
    if train and config.dropout > 0:
        rngs = tuple(np.random.default_rng(seed) for seed in rng.integers(1 << 63, size=2))
    record = Tape.active() is not None and any(p.requires_grad for p in params.values())
    summed, lock = {}, threading.Lock()

    def on_leaf(leaf, grad):
        with lock:  # IEEE addition commutes: the same bits in either order
            other = summed.get(leaf)
            summed[leaf] = grad if other is None else other + grad

    def part(i):
        with Tape() if record else contextlib.nullcontext() as tape:
            loss = mul(_loss(config, params, parts[i], train, rngs[i]), shares[i])
        if record:  # tensor.backward, not the name train_step calls, which a caller may wrap
            tensor.backward(loss, tape, on_leaf)
        return loss.data

    first, second = _both(part)

    def vjp(g):
        # pop, not get: a Tensor under two names takes its gradient once, as a whole batch's does
        grads = [summed.pop(p, None) for p in params.values()]
        if g.item() != 1.0:
            grads = [None if grad is None else grad * g for grad in grads]
        return tuple(grads)

    return _record(Tensor(first + second), tuple(params.values()), vjp)


def train_step(config, params, optimizer, batch, rng, where, lr=None):
    """One teacher-forced update with dropout: loss, backward, optimizer
    step. Returns the loss. A non-finite loss raises NumericalError naming
    `where` (e.g. "step 12") before any `.grad` is set or any parameter
    moves; a non-finite gradient raises it from the optimizer, with `where`
    added, before any parameter moves."""
    with Tape() as tape:
        loss = teacher_forced_loss(config, params, batch, train=True, rng=rng)
        if not np.isfinite(loss.data).all():
            raise NumericalError(f"non-finite loss {loss.item()} at {where}")
        backward(loss, tape)
    try:
        optimizer.step(lr=lr)
    except NumericalError as e:
        raise NumericalError(f"{e} at {where}") from None
    optimizer.zero_grad()
    return loss.item()


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        if problem := _hyper_problem(lr, betas, eps, weight_decay):
            raise TrainingError(f"AdamW {problem}")
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
        Parameters without gradients are skipped. A non-finite gradient
        raises NumericalError naming the parameter and the update, and
        nothing changes: every gradient is checked before any update.

        Each new moment and parameter is formed out of place, into an array
        of its own, which then replaces the old one; nothing writes into an
        array the optimizer has handed out, so `state()` and
        `Checkpoint.from_model` can hold the live arrays as snapshots. The
        bias corrections are folded into two scalars, and each update is
        formed in a buffer of its parameter's own, which goes when the
        parameter is done: no scratch buffer is shared across parameters or
        kept between steps."""
        if lr is None:
            lr = self.lr
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient in parameter '{name}' in update {self.step_count + 1}")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        # lr * m_hat / (sqrt(v_hat) + eps) == step_size * m / (sqrt(v) * root_c2 + eps)
        step_size = lr / (1.0 - b1**t)
        root_c2 = 1.0 / math.sqrt(1.0 - b2**t)
        decay = 1.0 - lr * self.weight_decay
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            s = np.empty_like(p.data)
            m = self.m[name] * b1
            m += np.multiply(g, 1.0 - b1, out=s)
            self.m[name] = m
            v = self.v[name] * b2
            np.square(g, out=s)
            s *= 1.0 - b2
            v += s
            self.v[name] = v
            np.sqrt(v, out=s)
            s *= root_c2
            s += self.eps
            np.divide(m, s, out=s)
            s *= step_size
            if decay != 1.0:
                new = p.data * decay
                new -= s
            else:
                new = p.data - s
            p.data = new

    def state(self):
        """Step, hyperparameters and the moments: the live arrays, not
        copies, which later steps replace instead of changing."""
        return {
            "step": self.step_count,
            "hyper": {"lr": self.lr, "betas": [self.beta1, self.beta2],
                      "eps": self.eps, "weight_decay": self.weight_decay},
            "m": dict(self.m),
            "v": dict(self.v),
        }

    def load_state(self, state):
        """Adopt a `state()`: the moments given are used as they are when
        their dtype is the parameters', not copied."""
        hyper = state["hyper"]
        if problem := _hyper_problem(hyper["lr"], hyper["betas"], hyper["eps"], hyper["weight_decay"]):
            raise TrainingError(f"AdamW state: {problem}")
        self.step_count = state["step"]
        self.lr = hyper["lr"]
        self.beta1, self.beta2 = hyper["betas"]
        self.eps = hyper["eps"]
        self.weight_decay = hyper["weight_decay"]
        for k in self.m:
            self.m[k] = state["m"][k].astype(self.m[k].dtype, copy=False)
            self.v[k] = state["v"][k].astype(self.v[k].dtype, copy=False)


def _hyper_problem(lr, betas, eps, weight_decay):
    """What AdamW cannot run with, or None: both betas must lie in [0, 1) (a
    beta of 1 would divide by zero in the bias correction), lr must be at
    least 0 and eps greater than 0, and each value a finite int or float,
    not a bool, as a checkpoint header can hold it."""
    if not all(0 <= b < 1 for b in betas):
        return f"betas must lie in [0, 1), got {list(betas)}"
    if not lr >= 0:
        return f"lr must be at least 0, got {lr}"
    if not eps > 0:
        return f"eps must be greater than 0, got {eps}"
    for name, value in (("lr", lr), ("betas", list(betas)), ("eps", eps), ("weight_decay", weight_decay)):
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                   for x in (value if name == "betas" else [value])):
            return f"{name} must be a finite int or float, not a bool, got {value!r}"
    return None


def lr_schedule(step, base_lr, warmup=10_000):
    """Linear warmup to base_lr, then inverse-square-root decay."""
    if step < 1:
        raise TrainingError(f"schedule step must be >= 1, got {step}")
    if warmup < 1:
        raise TrainingError(f"warmup must be >= 1, got {warmup}")
    if step <= warmup:
        return base_lr * step / warmup
    return base_lr * math.sqrt(warmup / step)


def token_batch_pack(examples, budget):
    """Greedy in-order packing into batches of at most `budget` input plus target tokens.

    No example is split; an example alone exceeding the budget is an error
    (truncate upstream). Yields lists of examples.
    """
    batch = []
    batch_tokens = 0
    for ex in examples:
        n = len(ex.input_ids) + len(ex.target_ids)
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


def pretrain_batches(ids, vocab, rng, *, seq_len, batch_tokens, mix, noise_density, mean_span, iid_prob):
    """The pretraining data path: endless `token_batch_pack` batches of the
    `noising.noise_stream` pairs of seq_len-id pieces of ids, pass after
    pass; a pass ends with its short last piece when that holds 2 ids or
    more. Before the stream is returned, the first and last piece go once
    through each objective mix enables, on a scratch generator, not rng:
    noising's refusals depend only on the piece length, the settings and
    the vocabulary, so NoisingError (naming objective, piece and reason)
    here means some piece cannot be noised. TrainingError refuses a budget
    below the longest pair of the first, longest, piece."""
    starts = range(0, len(ids) - 1, seq_len)
    if not starts:
        raise TrainingError(f"{len(ids)} ids are too few to pretrain on; a piece needs 2")
    settings = dict(noise_density=noise_density, mean_span=mean_span, iid_prob=iid_prob)
    first, last = ids[:seq_len], ids[starts[-1]:starts[-1] + seq_len]
    objectives = [(name, share) for name, share, used in
                  (("span corruption", 1.0, mix > 0), ("i.i.d. denoising", 0.0, mix < 1)) if used]
    scratch = np.random.default_rng(0)
    for piece in (first, last) if len(last) < len(first) else (first,):
        what = (f"{len(piece)}-token sequences" if len(piece) == seq_len
                else f"the corpus's {len(piece)}-token last piece")
        for objective, share in objectives:
            try:
                noising.mixture_sample(piece, vocab, scratch, mix=share, **settings)
            except noising.NoisingError as e:
                raise noising.NoisingError(f"{objective} of {what}: {e}") from None
    longest = noising.longest_pair(len(first), vocab, mix=mix, **settings)
    if longest > batch_tokens:
        raise TrainingError(f"a pair noised from a {len(first)}-token sequence can hold {longest} tokens, "
                            f"more than the {batch_tokens}-token --batch-tokens budget")
    pieces = (ids[lo:lo + seq_len] for _ in itertools.count() for lo in starts)
    return token_batch_pack(noising.noise_stream(pieces, vocab, rng, mix=mix, **settings), batch_tokens)


@dataclass(eq=False)  # identity comparison: holds numpy arrays
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    step: int = 0
    optimizer: dict | None = None
    rng_state: dict | None = None

    @classmethod
    def from_model(cls, config, params, step=0, optimizer=None, rng=None):
        """A snapshot of the model (and of the state of optimizer, an AdamW
        or None) that holds the live arrays, not copies: updates replace the
        arrays instead of writing into them, so the snapshot keeps its bytes
        while training goes on."""
        raw = {k: p.data for k, p in params.items()}
        rng_state = rng.bit_generator.state if rng is not None else None
        opt = optimizer.state() if optimizer is not None else None
        return cls(config, raw, step=step, optimizer=opt, rng_state=rng_state)

    def to_params(self):
        """Parameter dict of gradient-tracking tensors over the stored arrays
        themselves, not copies. An update replaces a parameter's array and
        leaves the checkpoint's as it was, so a caller that trains the
        parameters should drop the checkpoint, or it keeps the old arrays.
        A loaded checkpoint's arrays are its config's parameters, all of one
        float dtype: `load_checkpoint` refuses any other table."""
        return {k: Tensor(a, requires_grad=True) for k, a in self.params.items()}

    def make_rng(self):
        rng = np.random.default_rng(0)
        if self.rng_state is not None:
            rng.bit_generator.state = self.rng_state
        return rng


def save_checkpoint(path, checkpoint):
    """Write the header, then each array straight from memory (C-contiguous
    little-endian arrays are not copied): parameters in sorted path order,
    then the AdamW m and v moments under the same names."""
    opt = checkpoint.optimizer
    names = sorted(checkpoint.params)
    groups = [checkpoint.params] + ([] if opt is None else [opt["m"], opt["v"]])
    arrays = [(name, np.require(g[name], g[name].dtype.newbyteorder("<"), "C")) for g in groups for name in names]
    header = json.dumps({
        "step": checkpoint.step,
        "config": dataclasses.asdict(checkpoint.config),
        "rng_state": checkpoint.rng_state,
        "optimizer": None if opt is None else {"step": opt["step"], "hyper": opt["hyper"]},
        "arrays": [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape), "crc32": zlib.crc32(a)}
                   for name, a in arrays],
    }).encode("utf-8")
    with atomic_write(path, binary=True) as f:
        f.write(_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header)))
        f.write(header)
        f.write(struct.pack("<I", zlib.crc32(header)))
        for _, a in arrays:
            f.write(a)


def _fail(offset, problem):
    raise CheckpointError(f"corrupt checkpoint at byte offset {offset}: {problem}")


def _check(ok, problem):
    if not ok:
        raise ValueError(problem)


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_hyper(hyper):
    """Whether hyper is what `AdamW.state()` writes: exactly lr, betas (a
    list of two), eps and weight_decay, with values AdamW can run with."""
    return (isinstance(hyper, dict) and set(hyper) == {"lr", "betas", "eps", "weight_decay"}
            and isinstance(hyper["betas"], list) and len(hyper["betas"]) == 2
            and _hyper_problem(**hyper) is None)


def _parse_header(data):
    """(step, config, rng state, optimizer step and hyper, array table) from
    the header. The RNG state must be one a PCG64 generator takes, and the
    optimizer's hyper the one `AdamW.state()` writes. The header's table
    must be the one `save_checkpoint` writes for its config: the parameters
    in sorted path order, then, with an optimizer, their m and v moments,
    all `<f4` or all `<f8`. The table returned is built from the config: a
    list of parts (parameters, then m and v), each a list of (name, dtype,
    shape, crc32) rows."""
    try:
        header = json.loads(data.decode("utf-8"))
        step, rng_state, opt = header["step"], header["rng_state"], header["optimizer"]
        _check(_is_count(step), f"invalid step {step!r}")
        if rng_state is not None:  # numpy checks a PCG64 state as it sets it
            np.random.default_rng(0).bit_generator.state = rng_state
        _check(opt is None or _is_count(opt["step"]) and _is_hyper(opt["hyper"]), "invalid optimizer")
        config = header["config"]
        _check(isinstance(config, dict), "invalid config")
        # checkpoints written before the ReLU FFN was removed hold gated_ffn=true
        _check(config.pop("gated_ffn", True) is True, "unsupported config gated_ffn: the FFN is gated-GELU only")
        config = ModelConfig(**config)
        got = [(entry["name"], entry["dtype"], entry["shape"]) for entry in header["arrays"]]
        copies = 1 if opt is None else 3  # the parameters' rows, then again for m and for v
        # each layer holds parameters: refuse a short table before listing a huge config's rows
        _check(len(got) >= copies * (config.enc_layers + config.dec_layers),
               f"the table lists {len(got)} arrays, too few for {config.enc_layers} + {config.dec_layers} layers")
        shapes = sorted(param_shapes(config).items())
        dtype = "<f8" if got[0][1] == "<f8" else "<f4"  # the check above leaves at least two rows
        want = [(name, dtype, list(shape)) for name, shape in shapes] * copies
        for i, (row, need) in enumerate(zip(got, want)):
            _check(row == need, f"arrays[{i}] is {row}, its config needs {need}")
        _check(len(got) == len(want), f"the table lists {len(got)} arrays, its config needs {len(want)}")
        crcs = [entry["crc32"] for entry in header["arrays"]]
        table = [[(name, np.dtype(dtype), shape, crc) for (name, shape), crc in zip(shapes, crcs[i:])]
                 for i in range(0, len(want), len(shapes))]
        return step, config, rng_state, opt, table
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        _fail(_PREFIX.size, f"invalid header ({type(e).__name__}: {e})")


def load_checkpoint(path):
    """Parse and verify a checkpoint; never returns partial state. Any
    damage, or a table other than its config's (refused before a payload
    byte is read), raises CheckpointError naming the byte offset."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(_PREFIX.size)
        if prefix[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        if len(prefix) < _PREFIX.size:
            _fail(len(CHECKPOINT_MAGIC), "truncated version and header size")
        _, version, header_size = _PREFIX.unpack(prefix)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
        offset = _PREFIX.size + header_size + 4  # the header and its CRC32
        if offset > size:
            _fail(_PREFIX.size, "truncated header")
        data = f.read(header_size)
        if zlib.crc32(data) != struct.unpack("<I", f.read(4))[0]:
            _fail(_PREFIX.size, "header checksum mismatch")
        step, config, rng_state, opt, table = _parse_header(data)
        payload = sum(dtype.itemsize * math.prod(shape) for part in table for _, dtype, shape, _ in part)
        if payload != size - offset:
            _fail(offset, f"the header lists {payload} payload bytes but {size - offset} follow it")
        parts = []
        for part in table:
            parts.append({})
            for name, dtype, shape, crc in part:
                a = np.empty(shape, dtype)
                if f.readinto(a) != a.nbytes or zlib.crc32(a) != crc:
                    _fail(offset, f"checksum mismatch in '{name}'")
                parts[-1][name] = a
                offset += a.nbytes
    params, *moments = parts
    if opt is not None:
        opt = {"step": opt["step"], "hyper": opt["hyper"], "m": moments[0], "v": moments[1]}
    return Checkpoint(config, params, step=step, optimizer=opt, rng_state=rng_state)


def select_best_checkpoint(checkpoints, validation, vocab, *, max_output_tokens=None):
    """Score each checkpoint with `evaluation.evaluate_examples` as the iterable yields it, by
    the metric of the validation examples' one task (checked before the first is drawn), keeping
    only the best so far; ties go to the earliest. Returns (best checkpoint, scores)."""
    validation = list(validation)
    if not validation:
        raise TrainingError("empty validation set")
    task = validation[0].task
    if any(ex.task != task for ex in validation):
        raise TrainingError(f"validation set mixes tasks {sorted({ex.task for ex in validation})}")
    metric = evaluation.task_row(task).metric
    best, scores = None, []
    for ck in checkpoints:
        report = evaluation.evaluate_examples(ck.config, ck.to_params(), vocab, validation, task,
                                              max_output_tokens=max_output_tokens)
        scores.append(report.metrics[metric])
        if scores[-1] > max(scores[:-1], default=-math.inf):
            best = ck
    if not scores:
        raise TrainingError("no checkpoints to select from")
    return best, scores
