"""Instrumentation of the minit5 modules for the traced run, and the
per-layer metrics computed from its spans and counters."""

from __future__ import annotations

import inspect
import sys

import numpy as np

from minit5 import bpe, dedup, evaluation, model, noising, tensor, training

from metrics import LAYERS, TENSOR_OPS
from spans import Patches, summarize


def program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "minit5" or name.startswith("minit5."))]


def tensor_ops():
    """{op name: function} for the minit5.tensor functions that model and
    training import, discovered at run time."""
    ops = {}
    for mod in (model, training):
        for value in vars(mod).values():
            if inspect.isfunction(value) and value.__module__ == tensor.__name__:
                ops[value.__name__] = value
    return dict(sorted(ops.items()))


def _sentinel_count(pair, vocab_size, sentinels):
    first = vocab_size - sentinels
    return sum(1 for t in pair.target_ids if t >= first)


def install(tracer):
    """Wrap the public functions of every measured layer; returns the
    Patches that undo it."""
    patches = Patches()
    everywhere = program_modules()
    count = tracer.count

    for name, fn in tensor_ops().items():
        patches.replace((model, training), fn, tracer.wrap(fn, f"tensor.op.{name}"))

    def after_decode_logits(result, args, kwargs):
        ids = args[4] if len(args) > 4 else kwargs["decoder_input_ids"]
        n = int(np.asarray(ids).size)
        count("model.decoder_positions", n)
        if tracer.inside("evaluation.greedy_decode"):
            count("model.decoder_positions_greedy", n)

    def after_greedy(result, args, kwargs):
        max_len = args[3] if len(args) > 3 else kwargs["max_len"]
        count("evaluation.generated_tokens", len(result))
        count("evaluation.eos_stops" if len(result) < max_len else "evaluation.budget_stops")

    def after_encode(result, args, kwargs):
        count("bpe.encode_tokens", len(result))

    def after_train(result, args, kwargs):
        tracer.counters["bpe.merges"] = len(result.merges)

    def after_sample(pair, args, kwargs):
        vocab = args[1]
        sentinels = _sentinel_count(pair, len(vocab), vocab.sentinel_count)
        count("noising.pairs")
        count("noising.noise_tokens", len(pair.target_ids) - sentinels - 1)
        count("noising.sequence_tokens", len(args[0]))

    hooks = (
        (model.encode, "model.encode", None),
        (model.decode_logits, "model.decode_logits", after_decode_logits),
        (evaluation.greedy_decode, "evaluation.greedy_decode", after_greedy),
        (evaluation.score_predictions, "evaluation.score", None),
        (bpe.encode, "bpe.encode", after_encode),
        (bpe.train_bpe, "bpe.train", after_train),
        (noising.mixture_sample, "noising.sample", after_sample),
        (dedup.shingle_set, "dedup.shingle", None),
    )
    for fn, name, after in hooks:
        patches.replace(everywhere, fn, tracer.wrap(fn, name, after))
    return patches


def per_layer_metrics(tracer, steps, pad):
    """Every PER_LAYER metric but the overhead from one traced run. `steps`
    is the number of training steps, for the per-step tape figures, and
    `pad` the (padded, all) positions of their batches."""
    table = summarize(tracer.spans)
    c = tracer.counters

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "training.forward_s": total("training.forward"),
        "training.backward_s": total("training.backward"),
        "training.optimizer_s": total("training.optimizer"),
        "training.data_wait_s": total("training.data_wait"),
        "training.pad_fraction": ratio(pad[0], pad[1]),
        "training.checkpoint_save_s": total("training.checkpoint_save"),
        "training.checkpoint_load_s": total("training.checkpoint_load"),
        "training.checkpoint_bytes": c["training.checkpoint_bytes"],
        "training.select_s": total("training.select"),
        "tensor.tape_nodes": ratio(c["tensor.tape_nodes"], steps),
        "tensor.tape_bytes": ratio(c["tensor.tape_bytes"], steps),
        "model.encode_s": total("model.encode"),
        "model.encode_calls": calls("model.encode"),
        "model.decode_logits_s": total("model.decode_logits"),
        "model.decode_logits_calls": calls("model.decode_logits"),
        "model.decoder_positions": c["model.decoder_positions"],
        "model.decoder_positions_per_token": ratio(
            c["model.decoder_positions_greedy"],
            c["evaluation.generated_tokens"] + c["evaluation.eos_stops"]),
        "evaluation.greedy_decode_s": total("evaluation.greedy_decode"),
        "evaluation.generated_tokens": c["evaluation.generated_tokens"],
        "evaluation.eos_stops": c["evaluation.eos_stops"],
        "evaluation.budget_stops": c["evaluation.budget_stops"],
        "evaluation.score_s": total("evaluation.score"),
        "evaluation.invalid_rate": ratio(c["evaluation.invalid"], c["evaluation.scored"]),
        "noising.sample_s": total("noising.sample"),
        "noising.pairs": c["noising.pairs"],
        "noising.skipped_short": c["noising.skipped_short"],
        "noising.noise_fraction": ratio(c["noising.noise_tokens"], c["noising.sequence_tokens"]),
        "bpe.train_s": total("bpe.train"),
        "bpe.merges": c["bpe.merges"],
        "bpe.encode_s": total("bpe.encode"),
        "bpe.encode_calls": calls("bpe.encode"),
        "bpe.encode_tokens": c["bpe.encode_tokens"],
        "dedup.shingle_s": total("dedup.shingle"),
        "dedup.paragraphs_in": c["dedup.paragraphs_in"],
        "dedup.kept": c["dedup.kept"],
        "dedup.dropped": c["dedup.dropped"],
        "dedup.drop_ratio": ratio(c["dedup.dropped"], c["dedup.injected"]),
        "trace.spans": len(tracer.spans),
    }
    for op in TENSOR_OPS:
        out[f"tensor.op.{op}.calls"] = calls(f"tensor.op.{op}")
        out[f"tensor.op.{op}.s"] = total(f"tensor.op.{op}")
    selfs = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in table.items():
        layer = name.split(".", 1)[0]
        if layer in selfs:
            selfs[layer] += self_s
    for layer, s in selfs.items():
        out[f"self.{layer}_s"] = s
    return out, table
