"""Metric declarations: what each run prints, under which name and unit.

BENCHMARK.json repeats END_TO_END and PER_LAYER; a test keeps the two in
step. Every run of every workload prints every metric of its mode, so the
end-to-end metrics are slots that each workload fills with its own headline
numbers (NAMED maps the slots to the per-workload names).
"""

# the workloads BENCHMARK.json lists. finetune and corpus run on request
# and in `--workload all`, ungated: on a shared 2-CPU machine their
# run-to-run spread (quartile distance over the median, 10 seeds) reached
# 0.32 and 0.25, at or above the largest bound allowed, because per-op
# Python code feels the host's speed swings most. pretrain runs dedup and
# tokenizer training in its set-up, so every layer is still measured.
WORKLOADS = ("pretrain", "generate")
EXTRA_WORKLOADS = ("finetune", "corpus")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("tokens_per_s", "1/s", "higher", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
)

# per workload: slot -> (the workload's own metric name, unit)
NAMED = {
    "pretrain": {
        "tokens_per_s": ("pretrain_tokens_per_s", "tok/s"),
        "items_per_s": ("pretrain_pairs_per_s", "pairs/s"),
        "op_s_p50": ("pretrain_step_s_p50", "s"),
    },
    "finetune": {
        "tokens_per_s": ("finetune_train_tokens_per_s", "tok/s"),
        "items_per_s": ("eval_examples_per_s", "examples/s"),
        "op_s_p50": ("finetune_s_per_epoch", "s"),
    },
    "generate": {
        "tokens_per_s": ("generate_tokens_per_s", "tok/s"),
        "items_per_s": ("generate_examples_per_s", "examples/s"),
        "op_s_p50": ("generate_example_s_p50", "s"),
    },
    "corpus": {
        "tokens_per_s": ("encode_tokens_per_s", "tok/s"),
        "items_per_s": ("dedup_paragraphs_per_s", "paragraphs/s"),
        "op_s_p50": ("tokenizer_train_s", "s"),
    },
}

# the minit5.tensor callables that minit5.model and minit5.training import
# today; the traced run discovers the current set and prints all of them,
# these are the ones with a fixed metric name
TENSOR_OPS = ("add", "cross_entropy", "dropout", "embedding", "gelu", "matmul", "mul",
              "reshape", "rms_norm", "softmax_lastdim", "transpose")

LAYERS = ("tensor", "model", "training", "noising", "bpe", "dedup", "evaluation", "bench")


def _per_layer():
    rows = [
        ("training.forward_s", "s", "lower"),
        ("training.backward_s", "s", "lower"),
        ("training.optimizer_s", "s", "lower"),
        ("training.data_wait_s", "s", "lower"),
        ("training.pad_fraction", "ratio", "lower"),
        ("training.checkpoint_save_s", "s", "lower"),
        ("training.checkpoint_load_s", "s", "lower"),
        ("training.checkpoint_bytes", "B", "lower"),
        ("training.select_s", "s", "lower"),
        ("tensor.tape_nodes", "count", "lower"),
        ("tensor.tape_bytes", "B", "lower"),
    ]
    for op in TENSOR_OPS:
        rows.append((f"tensor.op.{op}.calls", "count", "lower"))
        rows.append((f"tensor.op.{op}.s", "s", "lower"))
    rows += [
        ("model.encode_s", "s", "lower"),
        ("model.encode_calls", "count", "lower"),
        ("model.decode_logits_s", "s", "lower"),
        ("model.decode_logits_calls", "count", "lower"),
        ("model.decoder_positions", "count", "lower"),
        ("model.decoder_positions_per_token", "ratio", "lower"),
        ("evaluation.greedy_decode_s", "s", "lower"),
        ("evaluation.generated_tokens", "count", "higher"),
        ("evaluation.eos_stops", "count", "higher"),
        ("evaluation.budget_stops", "count", "lower"),
        ("evaluation.score_s", "s", "lower"),
        ("evaluation.invalid_rate", "ratio", "lower"),
        ("noising.sample_s", "s", "lower"),
        ("noising.pairs", "count", "higher"),
        ("noising.skipped_short", "count", "lower"),
        ("noising.noise_fraction", "ratio", "higher"),
        ("bpe.train_s", "s", "lower"),
        ("bpe.merges", "count", "higher"),
        ("bpe.encode_s", "s", "lower"),
        ("bpe.encode_calls", "count", "lower"),
        ("bpe.encode_tokens", "count", "higher"),
        ("dedup.shingle_s", "s", "lower"),
        ("dedup.paragraphs_in", "count", "higher"),
        ("dedup.kept", "count", "higher"),
        ("dedup.dropped", "count", "higher"),
        ("dedup.drop_ratio", "ratio", "higher"),
    ]
    rows += [(f"self.{layer}_s", "s", "lower") for layer in LAYERS]
    rows += [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def benchmark_json():
    """The BENCHMARK.json document these declarations describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


RUN_SECONDS = 30

WHY = {
    "pretrain": "dedup and tokenizer set-up, then d256 span-corruption training at 4096-token batches: forward, backward, AdamW; no decoding",
    "finetune": "tiny-model BoolQ fine-tuning with per-epoch checkpoints and 4-token ROUGE-L selection: per-op Python and tape overhead",
    "generate": "d256 greedy decoding of 256 tokens from 250-token inputs: prefix recompute dominates, training bypassed",
    "corpus": "BPE training, shingle dedup with injected duplicates, and encoding: the data-preparation layers alone",
}
