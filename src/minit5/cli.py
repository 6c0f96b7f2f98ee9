"""Command-line entry point wiring the library together.

Subcommands: tokenizer-train, dedup, pretrain, finetune, evaluate, budget.
Every option can also be supplied via a JSON config file (--config),
whose keys are the option names (--config itself is none of them);
explicit flags win over the file; unknown keys, mistyped values and
out-of-range numbers are rejected. Each option is declared once, as a
row of `_SPECS` holding its default, type, help and check.
Artifacts go through `fileio.atomic_write` (a `.tmp-*` file in the target
directory, then a rename), so a failed run leaves nothing half-written;
only training.log is appended as training runs. `pretrain` takes its
batches from `training.pretrain_batches`, which refuses noising settings
that cannot noise or batch the corpus before anything is written.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import bpe, dedup, evaluation, noising, tasks, training
from .fileio import atomic_write_text, open_text
from .model import PRESETS, budget_table, decode_cache_shape, init_params, preset, training_budget_ratio
from .tensor import ShapeError


class UsageError(ValueError):
    pass


_DATA_ERRORS = (
    bpe.TokenizerError,
    noising.NoisingError,
    tasks.TaskFormatError,
    tasks.DatasetError,
    training.TrainingError,
    training.CheckpointError,
    evaluation.EvalError,
    ShapeError,
    OSError,
    UnicodeDecodeError,
    json.JSONDecodeError,
    MemoryError,  # an array that does not fit: a model or batch too large for this machine
)
_NUMERICAL_ERRORS = (training.NumericalError, FloatingPointError, ZeroDivisionError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low):
    return f"at least {low}", lambda v: v >= low


_POSITIVE = "greater than 0", lambda v: v > 0
_RATE = "in [0, 1)", lambda v: 0 <= v < 1
_SHARE = "in [0, 1]", lambda v: 0 <= v <= 1

REQUIRED = ...  # the default of an option a command cannot run without

# per command, option name -> (default, type, help, check); check is None, a
# range (as shown, its test) or the fixed set the value must be one of
_SPECS = {
    "tokenizer-train": {
        "corpus": (REQUIRED, str, "input text file (UTF-8, blank-line paragraphs)", None),
        "vocab_out": ("vocab.txt", str, "output vocabulary file; the merges go to <vocab_out>.merges", None),
        "vocab_size": (32000, int, "total vocabulary size", _at_least(4)),  # 4: specials + marker
        "sentinel_count": (100, int, "reserved sentinel tokens at the top of the id space", _at_least(0)),
    },
    "dedup": {
        "input": (REQUIRED, str, "input text file (UTF-8, blank-line paragraphs)", None),
        "output": (REQUIRED, str, "deduplicated output file", None),
        "stats_out": (None, str, "stats file (default: <output>.stats)", None),
        "ngram": (10, int, "shingle order in words", _at_least(1)),
        "threshold": (0.5, float, "drop a paragraph when more than this fraction of its shingles was seen",
                      _SHARE),
        "vocab": (None, str, "optional vocabulary file for token counts", None),
    },
    "pretrain": {
        "corpus": (REQUIRED, str, "training text file", None),
        "vocab": (REQUIRED, str, "vocabulary file", None),
        "output_dir": (REQUIRED, str, "directory for checkpoints and the training log", None),
        "steps": (1000, int, "optimizer steps (full-scale reference: 1000000)", _at_least(0)),
        "batch_tokens": (4096, int, "token budget per batch", _at_least(1)),
        "seq_len": (128, int, "tokens per pretraining sequence before noising", _at_least(2)),
        "lr": (0.01, float, "peak learning rate", _POSITIVE),
        "warmup": (10000, int, "linear warmup steps before inverse-sqrt decay", _at_least(1)),
        "noise_density": (0.15, float, "fraction of tokens corrupted by span corruption", _SHARE),
        "mean_span": (3.0, float, "mean corrupted-span length in tokens", _at_least(1)),
        "mix": (0.5, float, "probability of span corruption vs i.i.d. denoising", _SHARE),
        "iid_rate": (0.15, float, "per-token corruption probability for i.i.d. denoising", _SHARE),
        "checkpoint_every": (500, int, "save a checkpoint every N steps", _at_least(0)),
        "preset": ("tiny", str, f"model preset, one of {sorted(PRESETS)}", PRESETS),
        "dropout": (0.1, float, "dropout rate during training", _RATE),
        "seed": (0, int, "root random seed", _at_least(0)),
    },
    "finetune": {
        "train": (REQUIRED, str, "training CSV (input, target)", None),
        "validation": (REQUIRED, str, "validation CSV used for checkpoint selection", None),
        "vocab": (REQUIRED, str, "vocabulary file", None),
        "task": (REQUIRED, str, f"task tag, one of {sorted(tasks.TASKS)}", tasks.TASKS),
        "init": (None, str, "checkpoint to start from (default: fresh parameters)", None),
        "output_dir": (REQUIRED, str, "directory for per-epoch checkpoints and the selection report", None),
        "epochs": (None, int, "fine-tuning epochs (default: per-task table)", _at_least(1)),
        "batch_examples": (64, int, "examples per batch", _at_least(1)),
        "lr": (1e-4, float, "constant learning rate", _POSITIVE),
        "max_output_tokens": (None, int, "decode budget for validation scoring (default: per-task table)",
                              _at_least(1)),
        "preset": ("tiny", str, "model preset when --init is not given", PRESETS),
        "dropout": (0.1, float, "dropout rate during training", _RATE),
        "seed": (0, int, "root random seed", _at_least(0)),
    },
    "evaluate": {
        "dataset": (REQUIRED, str, "evaluation CSV (input, target)", None),
        "vocab": (REQUIRED, str, "vocabulary file", None),
        "checkpoint": (REQUIRED, str, "model checkpoint", None),
        "task": (REQUIRED, str, f"task tag, one of {sorted(tasks.TASKS)}", tasks.TASKS),
        "output_dir": (REQUIRED, str, "directory for report.txt, report.kv and predictions.csv", None),
        "max_output_tokens": (None, int, "decode budget (default: per-task table)", _at_least(1)),
    },
    "budget": {
        "steps": (None, int, "optimizer steps for a custom ratio", _at_least(1)),
        "batch_tokens": (None, int, "tokens per batch for a custom ratio", _at_least(1)),
        "params": (None, int, "parameter count for a custom ratio", _at_least(1)),
    },
}


def _build_parser():
    parser = _Parser(prog="minit5", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, spec in _SPECS.items():
        p = sub.add_parser(command, description=f"{command} options")
        p.add_argument("--config", help="JSON config file; explicit flags override its values (default: None)")
        for name, (default, typ, help_text, _) in spec.items():
            shown = "required" if default is REQUIRED else f"default: {default}"
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ,
                           default=None, help=f"{help_text} ({shown})")
    return parser


def _resolve_config(args, command):
    """defaults < config file < explicit flags; unknown keys are an error."""
    spec = _SPECS[command]
    cfg = {name: None if default is REQUIRED else default for name, (default, _, _, _) in spec.items()}
    if args.config is not None:
        try:
            with open_text(args.config) as f:
                file_cfg = json.load(f)
        except UnicodeDecodeError as e:
            raise UsageError(str(e)) from e
        except OSError as e:
            raise UsageError(f"{args.config}: cannot read config ({e.strerror})") from e
        except json.JSONDecodeError as e:
            raise UsageError(f"{args.config}: invalid JSON ({e})") from e
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(spec))
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {unknown}")
        for name, value in file_cfg.items():  # null only where there is no default; a bool is no number
            default, typ, _, _ = spec[name]
            if value is None and default in (None, REQUIRED):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
                raise UsageError(f"{args.config}: {name} must be a JSON {typ.__name__}, got {json.dumps(value)}")
        cfg.update(file_cfg)
    for name, (default, _, _, check) in spec.items():
        flag = f"--{name.replace('_', '-')}"
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
        value = cfg[name]
        if value is None:  # unset: required, or left to the command
            if default is REQUIRED:
                raise UsageError(f"{command}: missing required option {flag}")
        elif isinstance(check, tuple):
            allowed, ok = check
            if not ok(value):
                raise UsageError(f"{command}: {flag} must be {allowed}")
        elif check is not None and value not in check:
            raise UsageError(f"unknown {name} {value!r}; choose from {sorted(check)}")
    return cfg


def _cmd_tokenizer_train(cfg):
    with open_text(cfg["corpus"]) as f:
        vocab = bpe.train_bpe(f, cfg["vocab_size"], cfg["sentinel_count"])
    bpe.save_vocab(vocab, cfg["vocab_out"])
    print(f"trained vocabulary of {len(vocab)} tokens "
          f"({len(vocab.merges)} merges, {vocab.sentinel_count} sentinels)")
    print(f"wrote {cfg['vocab_out']} and {cfg['vocab_out']}.merges")
    return 0


def _cmd_dedup(cfg):
    stats_out = cfg["stats_out"] or cfg["output"] + ".stats"
    for name in ("input", "output"):
        if os.path.realpath(stats_out) == os.path.realpath(cfg[name]):
            raise UsageError(f"dedup: the stats file {stats_out} would overwrite the --{name} file")
    vocab = bpe.load_vocab(cfg["vocab"]) if cfg["vocab"] else None
    kept, stats = dedup.deduplicate_stream(
        dedup.read_paragraphs(cfg["input"]), n=cfg["ngram"], threshold=cfg["threshold"], vocab=vocab
    )
    dedup.write_paragraphs(kept, cfg["output"])
    dedup.write_stats(stats, stats_out)
    print(stats.render_table())
    return 0


def _cmd_pretrain(cfg):
    vocab = bpe.load_vocab(cfg["vocab"])
    ids = [i for p in dedup.read_paragraphs(cfg["corpus"]) for i in bpe.encode(p.text, vocab, append_eos=True)]
    if len(ids) < 2:
        raise tasks.DatasetError(f"{cfg['corpus']}: corpus too small to pretrain on")
    rng = np.random.default_rng(cfg["seed"])
    batches = training.pretrain_batches(
        ids, vocab, rng, seq_len=cfg["seq_len"], batch_tokens=cfg["batch_tokens"], mix=cfg["mix"],
        noise_density=cfg["noise_density"], mean_span=cfg["mean_span"], iid_prob=cfg["iid_rate"],
    )
    model_cfg = preset(cfg["preset"], vocab_size=len(vocab), dropout=cfg["dropout"])
    params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
    opt = training.AdamW(params, lr=cfg["lr"])
    os.makedirs(cfg["output_dir"], exist_ok=True)
    log_path = os.path.join(cfg["output_dir"], "training.log")

    def save(step):
        ck = training.Checkpoint.from_model(model_cfg, params, step=step, optimizer=opt, rng=rng)
        training.save_checkpoint(os.path.join(cfg["output_dir"], f"ckpt-{step:08d}.bin"), ck)

    tokens_seen = 0
    save(0)
    with open(log_path, "w", encoding="utf-8") as log:
        for step, batch in enumerate(itertools.islice(batches, cfg["steps"]), start=1):
            lr = training.lr_schedule(step, cfg["lr"], cfg["warmup"])
            loss = training.train_step(model_cfg, params, opt, batch, rng, f"step {step}", lr=lr)
            tokens_seen += sum(len(p.input_ids) + len(p.target_ids) for p in batch)
            line = f"{step}, {loss:.6f}, {lr:.8f}, {tokens_seen}"
            log.write(line + "\n")
            if step % 50 == 0 or step == cfg["steps"]:
                print(line)
            if step == cfg["steps"] or cfg["checkpoint_every"] and step % cfg["checkpoint_every"] == 0:
                save(step)
    print(f"done: {cfg['steps']} steps, {tokens_seen} tokens")
    return 0


def _encode_examples(examples, vocab):
    encoded = []
    for ex in examples:
        encoded.append(
            noising.NoisedPair(
                bpe.encode(ex.input_text, vocab, append_eos=True),
                bpe.encode(ex.target_text, vocab, append_eos=True),
                objective="task",
            )
        )
    return encoded


def _load_model(path, vocab, vocab_path):
    """(config, parameters) of the checkpoint at path, refused unless it
    has one embedding row per token of vocab. The checkpoint is not kept:
    the parameters are its own arrays, and once training replaces them a
    kept checkpoint would pin the old ones and its optimizer moments."""
    ck = training.load_checkpoint(path)
    if ck.config.vocab_size != len(vocab):
        raise UsageError(f"checkpoint vocabulary size {ck.config.vocab_size} does not match "
                         f"{vocab_path} ({len(vocab)} tokens)")
    return ck.config, ck.to_params()


def _cmd_finetune(cfg):
    task = cfg["task"]
    vocab = bpe.load_vocab(cfg["vocab"])
    epochs = cfg["epochs"] if cfg["epochs"] is not None else tasks.TASKS[task].epochs
    train_examples = tasks.load_csv_dataset(cfg["train"], task)
    val_examples = tasks.load_csv_dataset(cfg["validation"], task)
    if not train_examples:
        raise tasks.DatasetError(f"{cfg['train']}: no training examples")
    if not val_examples:
        raise tasks.DatasetError(f"{cfg['validation']}: no validation examples")
    if cfg["init"]:
        model_cfg, params = _load_model(cfg["init"], vocab, cfg["vocab"])
        model_cfg = dataclasses.replace(model_cfg, dropout=cfg["dropout"])
    else:
        model_cfg = preset(cfg["preset"], vocab_size=len(vocab), dropout=cfg["dropout"])
        params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
    # validation decodes one example at a time; a budget its K/V buffer cannot hold is refused before training
    budget = cfg["max_output_tokens"] if cfg["max_output_tokens"] is not None else tasks.TASKS[task].decode_limit
    decode_cache_shape(model_cfg, params, 1, budget)
    encoded = _encode_examples(train_examples, vocab)
    opt = training.AdamW(params, lr=cfg["lr"])
    rng = np.random.default_rng(cfg["seed"] + 1)
    os.makedirs(cfg["output_dir"], exist_ok=True)

    def trained_epochs():
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(encoded))
            for n, lo in enumerate(range(0, len(encoded), cfg["batch_examples"]), start=1):
                batch = [encoded[i] for i in order[lo : lo + cfg["batch_examples"]]]
                loss = training.train_step(model_cfg, params, opt, batch, rng, f"epoch {epoch}, batch {n}")
            ck = training.Checkpoint.from_model(model_cfg, params, step=epoch)
            training.save_checkpoint(os.path.join(cfg["output_dir"], f"epoch-{epoch:03d}.bin"), ck)
            print(f"epoch {epoch}/{epochs}: loss {loss:.4f}")
            yield ck

    best, scores = training.select_best_checkpoint(trained_epochs(), val_examples, vocab,
                                                   max_output_tokens=budget)
    best_epoch = best.step
    metric = tasks.TASKS[task].metric
    training.save_checkpoint(os.path.join(cfg["output_dir"], "best.bin"), best)
    lines = [f"epoch-{i + 1:03d} {metric}={s:.6f}" for i, s in enumerate(scores)]
    lines.append(f"selected=epoch-{best_epoch:03d}")
    atomic_write_text(os.path.join(cfg["output_dir"], "selection.txt"), "\n".join(lines) + "\n")
    print(f"selected epoch {best_epoch} (validation {metric} {scores[best_epoch - 1]:.4f})")
    return 0


def _cmd_evaluate(cfg):
    task = cfg["task"]
    vocab = bpe.load_vocab(cfg["vocab"])
    model_cfg, params = _load_model(cfg["checkpoint"], vocab, cfg["vocab"])
    examples = tasks.load_csv_dataset(cfg["dataset"], task)
    report = evaluation.evaluate_examples(
        model_cfg, params, vocab, examples, task,
        max_output_tokens=cfg["max_output_tokens"],
    )
    evaluation.write_report(report, cfg["output_dir"])
    print(report.render())
    return 0


def _cmd_budget(cfg):
    rows = budget_table()
    if cfg["steps"] is not None or cfg["batch_tokens"] is not None or cfg["params"] is not None:
        if None in (cfg["steps"], cfg["batch_tokens"], cfg["params"]):
            raise UsageError("budget: --steps, --batch-tokens and --params must be given together")
        ratio = training_budget_ratio(cfg["steps"], cfg["batch_tokens"], cfg["params"])
        rows = rows + [("custom", cfg["steps"], cfg["batch_tokens"], cfg["params"],
                        cfg["steps"] * cfg["batch_tokens"], ratio)]
    header = f"{'configuration':<14} {'steps':>9} {'batch_tokens':>12} {'params':>12} {'tokens':>14} {'ratio':>8}"
    print(header)
    for name, steps, batch_tokens, n_params, tokens, ratio in rows:
        print(f"{name:<14} {steps:>9} {batch_tokens:>12} {n_params:>12} {tokens:>14} {ratio:>8.2f}")
    return 0


_COMMANDS = {
    "tokenizer-train": _cmd_tokenizer_train,
    "dedup": _cmd_dedup,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "budget": _cmd_budget,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        cfg = _resolve_config(args, args.command)
        return _COMMANDS[args.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
