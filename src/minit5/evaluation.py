"""Greedy decoding, output post-filtering, and task metrics.

Each task is scored by the metric of its `tasks.TASKS` row. A row with a
verbalizer is a classification task: a generation is scored by exact
string match against the verbalized labels after stripping special
tokens, and one matching no label is INVALID and counts as wrong. The
other rows name their metric: ROUGE-L (lowercased whitespace tokens, F
measure over the LCS), list-level multiset entity F1, or punctuation-blind
word (and sentence) accuracy. One path decodes and scores a task,
`evaluate_examples`: both `minit5 evaluate` and fine-tuning selection use it.
"""

from __future__ import annotations

import csv
import os
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import bpe
from .fileio import atomic_write, atomic_write_text
from .model import DecodeCache, decode_logits, encode
from .tasks import TASKS


class EvalError(ValueError):
    pass


# views of tasks.TASKS kept because perfbench/workloads.py reads them by name
DECODE_LIMITS = {tag: task.decode_limit for tag, task in TASKS.items()}
TASK_METRICS = {tag: task.metric for tag, task in TASKS.items()}


def greedy_decode(config, params, input_ids, max_len, *, eos_id=bpe.EOS_ID):
    """Argmax decoding from the pad start symbol: stops at EOS or max_len
    generated tokens; ties break to the lowest token id. The returned ids
    exclude the start symbol and the EOS.

    Decoding is incremental: each step runs the decoder over the newest
    token only, against a DecodeCache of the earlier positions' K/V."""
    if max_len < 1:
        raise EvalError(f"max_len must be >= 1, got {max_len}")
    enc_out, enc_grid = encode(config, params, input_ids)
    cache = DecodeCache(config, params, enc_out, enc_grid, max_len)
    generated = []
    step = np.full((1, 1), bpe.PAD_ID)  # the start symbol, then each generated id in turn
    for _ in range(max_len):
        logits = decode_logits(config, params, enc_out, enc_grid, step, cache=cache)
        nxt = int(np.argmax(logits.data[0, -1]))
        if nxt == eos_id:
            break
        generated.append(nxt)
        step[0, 0] = nxt
    return generated


_SENTINEL_RE = re.compile(r"<extra_id_\d+>")


def postfilter_generated(text):
    """Remove sentinel/pad/EOS token strings and surrounding whitespace."""
    text = _SENTINEL_RE.sub("", text)
    text = text.replace(bpe.PAD_TOKEN, "").replace(bpe.EOS_TOKEN, "")
    return text.strip()


def postfilter_and_match(generated, labels):
    """Exact-match the filtered generation against the label set.
    Returns the label, or None when the generation matches no label."""
    if not labels:
        raise EvalError("label set must be non-empty")
    cleaned = postfilter_generated(generated)
    return cleaned if cleaned in labels else None


def _lcs_length(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate, reference):
    """F measure over the longest common subsequence of lowercased
    whitespace tokens; 0 when either side is empty or nothing matches."""
    cand = candidate.lower().split()
    ref = reference.lower().split()
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def parse_entity_list(text):
    """Comma-separated entity mentions as a multiset; 'brez' or an empty
    string is the explicit empty answer."""
    s = text.strip()
    if not s or s == "brez":
        return Counter()
    return Counter(part.strip() for part in s.split(",") if part.strip())


def entity_f1(predictions, golds):
    """Micro F1 over exact entity surface strings, multiset semantics."""
    if len(predictions) != len(golds):
        raise EvalError(f"{len(predictions)} predictions vs {len(golds)} golds")
    tp = fp = fn = 0
    for pred, gold in zip(predictions, golds):
        pc = parse_entity_list(pred)
        gc = parse_entity_list(gold)
        hit = sum((pc & gc).values())
        tp += hit
        fp += sum(pc.values()) - hit
        fn += sum(gc.values()) - hit
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def classification_scores(predictions, golds, metric="accuracy"):
    """accuracy or macro_f1 over label predictions; None predictions
    (INVALID generations) are wrong for every class."""
    if len(predictions) != len(golds):
        raise EvalError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise EvalError("empty evaluation set")
    if metric == "accuracy":
        return sum(p == g for p, g in zip(predictions, golds)) / len(golds)
    if metric == "macro_f1":
        scores = []
        for cls in sorted(set(golds)):
            tp = sum(1 for p, g in zip(predictions, golds) if p == cls and g == cls)
            fp = sum(1 for p, g in zip(predictions, golds) if p == cls and g != cls)
            fn = sum(1 for p, g in zip(predictions, golds) if p != cls and g == cls)
            denom = 2 * tp + fp + fn
            scores.append(2 * tp / denom if denom else 0.0)
        return sum(scores) / len(scores)
    raise EvalError(f"unknown metric {metric!r}")


def _content_tokens(sentence):
    return [tok for tok in sentence.split() if any(ch.isalnum() for ch in tok)]


def lemma_accuracy(pred_sentences, gold_sentences):
    """(word accuracy, sentence accuracy) with punctuation-only tokens
    ignored on both sides; surplus tokens after stripping count as errors."""
    if len(pred_sentences) != len(gold_sentences):
        raise EvalError(f"{len(pred_sentences)} predictions vs {len(gold_sentences)} golds")
    matched = 0
    total = 0
    perfect = 0
    for pred, gold in zip(pred_sentences, gold_sentences):
        p = _content_tokens(pred)
        g = _content_tokens(gold)
        slots = max(len(p), len(g))
        hits = sum(a == b for a, b in zip(p, g))
        matched += hits
        total += slots
        if hits == slots:
            perfect += 1
    word_acc = matched / total if total else 1.0
    return word_acc, perfect / len(pred_sentences)


def majority_baseline(train_golds, test_golds, metric="accuracy"):
    """Score of always predicting the most frequent training label
    (ties break to the lexicographically smallest label)."""
    train_golds = list(train_golds)
    if not train_golds:
        raise EvalError("empty training labels")
    counts = Counter(train_golds)
    best_count = max(counts.values())
    label = min(cls for cls, c in counts.items() if c == best_count)
    return classification_scores([label] * len(test_golds), list(test_golds), metric)


@dataclass
class EvalReport:
    task: str
    metrics: dict[str, float]
    invalid_rate: float | None = None
    predictions: list[tuple[str, str]] = field(default_factory=list)

    def to_kv_lines(self):
        lines = [f"task={self.task}", f"examples={len(self.predictions)}"]
        for name, value in self.metrics.items():
            lines.append(f"{name}={value:.6f}")
        if self.invalid_rate is not None:
            lines.append(f"invalid_rate={self.invalid_rate:.6f}")
        return lines

    def render(self):
        width = max(len(n) for n in self.metrics) if self.metrics else 6
        width = max(width, len("invalid_rate"))
        lines = [f"task: {self.task}  ({len(self.predictions)} examples)"]
        for name, value in self.metrics.items():
            lines.append(f"  {name.ljust(width)}  {100.0 * value:6.2f}%")
        if self.invalid_rate is not None:
            lines.append(f"  {'invalid_rate'.ljust(width)}  {100.0 * self.invalid_rate:6.2f}%")
        return "\n".join(lines)


def task_row(task):
    """The task's `tasks.TASKS` row; an unknown tag raises EvalError."""
    if task not in TASKS:
        raise EvalError(f"unknown task {task!r}; choose from {sorted(TASKS)}")
    return TASKS[task]


def score_predictions(task, generated, golds):
    """EvalReport from raw generated strings and gold target strings, scored
    by the metric of the task's row. An empty set, or generations and golds
    of unequal length, raise EvalError."""
    row = task_row(task)
    generated, golds = list(generated), list(golds)
    if not golds:
        raise EvalError("empty evaluation set")
    if len(generated) != len(golds):
        raise EvalError(f"{len(generated)} generations vs {len(golds)} golds")
    predictions = list(zip(generated, golds))
    if row.verbalizer:
        matched = [postfilter_and_match(g, row.verbalizer.values()) for g in generated]
        invalid = sum(1 for m in matched if m is None) / len(matched)
        value = classification_scores(matched, golds, row.metric)
        return EvalReport(task, {row.metric: value}, invalid_rate=invalid, predictions=predictions)
    cleaned = [postfilter_generated(g) for g in generated]
    if row.metric == "entity_f1":
        metrics = {"entity_f1": entity_f1(cleaned, golds)}
    elif row.metric == "word_accuracy":
        word_acc, sent_acc = lemma_accuracy(cleaned, golds)
        metrics = {"word_accuracy": word_acc, "sentence_accuracy": sent_acc}
    else:
        metrics = {"rouge_l": sum(rouge_l(c, g) for c, g in zip(cleaned, golds)) / len(cleaned)}
    return EvalReport(task, metrics, predictions=predictions)


def evaluate_examples(config, params, vocab, examples, task, *, max_output_tokens=None):
    """Decode and score a task dataset; the output budget defaults to the row's in TASKS."""
    row = task_row(task)  # an unknown task fails before any decoding
    limit = row.decode_limit if max_output_tokens is None else max_output_tokens
    examples = list(examples)
    outputs = (greedy_decode(config, params, bpe.encode(ex.input_text, vocab, append_eos=True), limit)
               for ex in examples)
    generated = [bpe.decode(out_ids, vocab, strip_specials=True) for out_ids in outputs]
    return score_predictions(task, generated, [ex.target_text for ex in examples])


def write_report(report, directory):
    """report.txt (human table), report.kv (key=value) and predictions.csv,
    each written atomically."""
    atomic_write_text(os.path.join(directory, "report.txt"), report.render() + "\n")
    atomic_write_text(os.path.join(directory, "report.kv"), "".join(line + "\n" for line in report.to_kv_lines()))
    with atomic_write(os.path.join(directory, "predictions.csv")) as f:
        csv.writer(f, quoting=csv.QUOTE_ALL).writerows(report.predictions)
