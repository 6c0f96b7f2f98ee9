"""Correctness checks on the program's outputs.

Each check recomputes what it needs with numpy and the standard library,
or with a different path through the program than the one measured (one
teacher-forced forward instead of step-by-step decoding), so a wrong
output cannot also pass its own check.
"""

from __future__ import annotations

import math

import numpy as np

ARGMAX_TOLERANCE = 1e-3  # logits within this of the maximum count as a tie


def losses_finite(losses):
    return all(math.isfinite(x) for x in losses)


def loss_falls(losses):
    return len(losses) >= 2 and losses[-1] < losses[0]


def same_arrays(x, y):
    return x.keys() == y.keys() and all(
        x[k].dtype == y[k].dtype and x[k].shape == y[k].shape and x[k].tobytes() == y[k].tobytes()
        for k in x)


def same_checkpoint(a, b):
    """Bit-exact equality of two checkpoints, array by array."""
    if a.config != b.config or a.step != b.step or a.rng_state != b.rng_state:
        return False
    if not same_arrays(a.params, b.params):
        return False
    if a.optimizer is None or b.optimizer is None:
        return a.optimizer is None and b.optimizer is None
    oa, ob = a.optimizer, b.optimizer
    return (oa["step"] == ob["step"] and oa["hyper"] == ob["hyper"]
            and same_arrays(oa["m"], ob["m"]) and same_arrays(oa["v"], ob["v"]))


def argmax_violations(forward, input_ids, out, max_len, eos_id, pad_id=0):
    """Positions where a greedy output token is not the argmax of one
    teacher-forced forward over the whole generated sequence, ties within
    ARGMAX_TOLERANCE allowed. forward(enc_ids, dec_ids) returns logits
    [batch, positions, vocab]. An output shorter than max_len must have
    stopped at EOS, so EOS is then the last target."""
    out = list(out)
    targets = out + ([eos_id] if len(out) < max_len else [])
    bad = [i for i, t in enumerate(out) if t == eos_id]
    if len(out) > max_len:
        bad.append(max_len)
        targets = targets[:max_len]
    logits = np.asarray(forward(np.asarray([input_ids]), np.asarray([[pad_id] + targets[:-1]])))[0]
    chosen = logits[np.arange(len(targets)), targets]
    bad += [i for i in np.flatnonzero(chosen < logits.max(axis=-1) - ARGMAX_TOLERANCE).tolist()
            if i not in bad]
    return sorted(bad)


def round_trip_failures(texts, ids, decode):
    """Indices whose decoded ids differ from the text they were encoded from."""
    return [i for i, (t, x) in enumerate(zip(texts, ids)) if decode(x) != t]


def dedup_idempotent(kept, deduplicate):
    """A second pass over the kept paragraphs keeps every one of them."""
    again = deduplicate(kept)
    return [p.doc_id for p in again] == [p.doc_id for p in kept]


def surviving_duplicates(duplicates, kept_ids, doc_id):
    """Injected duplicate positions whose paragraph id is among the kept."""
    kept = set(kept_ids)
    return [i for i in duplicates if doc_id(i) in kept]


def first_best(scores, chosen):
    """The chosen index is the first maximum of the scores."""
    return chosen == max(range(len(scores)), key=lambda i: (scores[i], -i))


def label_scores(generated, golds, labels):
    """(accuracy, invalid rate) by exact match of the stripped generations."""
    gen = [g.strip() for g in generated]
    accuracy = sum(g == gold for g, gold in zip(gen, golds)) / len(golds)
    invalid = sum(g not in labels for g in gen) / len(gen)
    return accuracy, invalid
