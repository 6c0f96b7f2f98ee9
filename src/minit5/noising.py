"""Self-supervised denoising objectives over token id sequences.

Span corruption replaces contiguous spans with one sentinel each; i.i.d.
denoising corrupts tokens independently, one sentinel per corrupted token.
Both serialize the target as sentinel, span, sentinel, span, ..., closing
sentinel, EOS, so the original sequence is exactly recoverable from the
(input, target) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NoisingError(ValueError):
    pass


def _round_half_up(x):
    return int(math.floor(x + 0.5))


@dataclass
class NoisePlan:
    """Where to corrupt a sequence: sorted, disjoint, non-adjacent spans."""

    length: int
    spans: list[tuple[int, int]]

    def __post_init__(self):
        prev_end = None
        for start, span_len in self.spans:
            if span_len < 1 or start < 0 or start + span_len > self.length:
                raise NoisingError(f"span ({start}, {span_len}) out of bounds for length {self.length}")
            if prev_end is not None and start <= prev_end:  # overlapping or adjacent
                raise NoisingError("spans must be sorted with at least one clean token between them")
            prev_end = start + span_len

    @property
    def num_noise(self):
        return sum(length for _, length in self.spans)


@dataclass
class NoisedPair:
    """One pretraining example: corrupted input ids and denoising target ids."""

    input_ids: list[int]
    target_ids: list[int]
    objective: str = "span"


def noise_counts(n, noise_density=0.15, mean_span=3.0):
    """(tokens to corrupt, number of spans) for a sequence of length n."""
    if n < 2:
        raise NoisingError(f"sequence too short to corrupt: {n} < 2")
    num_noise = min(max(_round_half_up(noise_density * n), 1), n - 1)
    num_spans = min(max(_round_half_up(num_noise / mean_span), 1), num_noise)
    return num_noise, num_spans


def _composition(total, parts, rng):
    """Uniformly random composition of `total` into `parts` positive parts."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False)) + 1
    bounds = [0, *cuts.tolist(), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def plan_spans(n, num_noise, num_spans, rng):
    """Sample a NoisePlan: uniformly random span lengths (a composition of
    num_noise) interleaved with positive clean gaps plus a leading gap >= 0."""
    if num_spans > num_noise:
        raise NoisingError(f"cannot split {num_noise} noise tokens into {num_spans} spans")
    if num_spans < 1:
        raise NoisingError("need at least one span")
    shortage = gap_shortage(n, num_noise, num_spans)
    if shortage:
        raise NoisingError(shortage)
    clean = n - num_noise
    span_lengths = _composition(num_noise, num_spans, rng)
    gaps = _composition(clean + 1, num_spans + 1, rng)
    gaps[0] -= 1  # leading gap may be empty
    spans = []
    pos = gaps[0]
    for span_len, gap_after in zip(span_lengths, gaps[1:]):
        spans.append((pos, span_len))
        pos += span_len + gap_after
    assert pos == n
    return NoisePlan(n, spans)


def gap_shortage(n, num_noise, num_spans):
    """Why num_spans spans of num_noise tokens in all do not fit n tokens
    with a clean token after each span, or None when they fit."""
    clean = n - num_noise
    if clean >= num_spans:
        return None
    return f"no room for separating gaps: {clean} clean tokens < {num_spans} spans"


def sentinels_needed(num_spans):
    """The sentinels a pair with num_spans spans holds: one per span, plus
    the one that closes its target."""
    return num_spans + 1


def pair_length(n, num_spans):
    """The ids of a pair noised from n tokens with num_spans spans: the n
    tokens, a sentinel per span in the input and another in the target, and
    the target's closing sentinel and EOS."""
    return n + 2 * num_spans + 2


def longest_pair(n, vocab, mix=0.5, noise_density=0.15, mean_span=3.0, iid_prob=0.15):
    """The most ids a pair that mixture_sample noises from n tokens can hold,
    over the objectives mix enables: span corruption makes noise_counts'
    spans, i.i.d. denoising at most min(n, sentinels - 1), since a draw that
    needs more is drawn again, and none at rate 0."""
    spans = []
    if mix > 0:
        spans.append(noise_counts(n, noise_density, mean_span)[1])
    if mix < 1:
        spans.append(min(n, vocab.sentinel_count - 1) if iid_prob > 0 else 0)
    return pair_length(n, max(spans))


def _sentinel_shortage(num_spans, vocab):
    """Why num_spans spans do not fit vocab's sentinels, or None when they
    fit."""
    needed = sentinels_needed(num_spans)
    if needed <= vocab.sentinel_count:
        return None
    return f"{num_spans} spans need {needed} sentinels, vocabulary reserves {vocab.sentinel_count}"


def _serialize(ids, spans, vocab, objective):
    """Replace each sorted, disjoint (start, length) span of ids with the
    next sentinel, numbered left to right; the target lists each sentinel
    with the tokens it replaced, then a closing sentinel and EOS."""
    shortage = _sentinel_shortage(len(spans), vocab)
    if shortage:
        raise NoisingError(shortage)
    input_ids = []
    target_ids = []
    pos = 0
    for k, (start, span_len) in enumerate(spans):
        input_ids.extend(ids[pos:start])
        input_ids.append(vocab.sentinel_id(k))
        target_ids.append(vocab.sentinel_id(k))
        target_ids.extend(ids[start : start + span_len])
        pos = start + span_len
    input_ids.extend(ids[pos:])
    target_ids.append(vocab.sentinel_id(len(spans)))
    target_ids.append(vocab.eos_id)
    return NoisedPair(input_ids, target_ids, objective=objective)


def span_corrupt(ids, plan, vocab):
    """Apply a NoisePlan: one sentinel per span."""
    if plan.length != len(ids):
        raise NoisingError(f"plan length {plan.length} does not match sequence length {len(ids)}")
    return _serialize(ids, plan.spans, vocab, "span")


def iid_spans(n, corrupt_prob):
    """The number of spans i.i.d. denoising makes in n tokens on average,
    round(corrupt_prob * n): one per corrupted token. A setting is admitted
    when these spans fit the vocabulary's sentinels; a draw that does not
    fit is then drawn again (see iid_denoise)."""
    return round(corrupt_prob * n)


def iid_denoise(ids, rng, vocab, corrupt_prob=0.15):
    """Corrupt each token independently; every corrupted token is a span of
    its own, so runs of adjacent corruptions get one sentinel per token.
    Refuses a setting whose expected spans (iid_spans) need more sentinels
    than vocab reserves; otherwise a draw that needs more is drawn again, so
    every admitted setting yields a pair. When the first draw fits, it is
    the only one taken from rng."""
    if len(ids) < 1:
        raise NoisingError("cannot noise an empty sequence")
    expected = iid_spans(len(ids), corrupt_prob)
    shortage = _sentinel_shortage(expected, vocab)
    if shortage:
        raise NoisingError(f"a draw of {len(ids)} tokens at rate {corrupt_prob} expects {expected} spans: "
                           f"{shortage}")
    while True:
        corrupted = np.flatnonzero(rng.random(len(ids)) < corrupt_prob)
        if not _sentinel_shortage(len(corrupted), vocab):
            return _serialize(ids, [(i, 1) for i in corrupted.tolist()], vocab, "iid")


def mixture_sample(ids, vocab, rng, mix=0.5, noise_density=0.15, mean_span=3.0, iid_prob=0.15):
    """One pretraining pair: span corruption with probability mix, else i.i.d."""
    if not 0.0 <= mix <= 1.0:
        raise NoisingError(f"mix must be in [0, 1], got {mix}")
    if rng.random() < mix:
        num_noise, num_spans = noise_counts(len(ids), noise_density, mean_span)
        plan = plan_spans(len(ids), num_noise, num_spans, rng)
        return span_corrupt(ids, plan, vocab)
    return iid_denoise(ids, rng, vocab, corrupt_prob=iid_prob)


@dataclass
class StreamStats:
    produced: int = 0
    skipped_short: int = 0


def noise_stream(sequences, vocab, rng, stats=None, **kwargs):
    """Noised pairs for a stream of id sequences; sequences too short to
    corrupt (fewer than 2 tokens) are skipped and counted."""
    for ids in sequences:
        if len(ids) < 2:
            if stats is not None:
                stats.skipped_short += 1
            continue
        if stats is not None:
            stats.produced += 1
        yield mixture_sample(ids, vocab, rng, **kwargs)


def reconstruct(pair, vocab):
    """Splice the target spans back into the input; inverse of both objectives."""
    first_sentinel = len(vocab) - vocab.sentinel_count

    def is_sentinel(i):
        return i >= first_sentinel

    # target chunks keyed by the sentinel that opens them
    chunks = {}
    current = None
    for tok in pair.target_ids:
        if tok == vocab.eos_id:
            break
        if is_sentinel(tok):
            current = tok
            chunks[current] = []
        elif current is not None:
            chunks[current].append(tok)
    out = []
    for tok in pair.input_ids:
        if is_sentinel(tok):
            out.extend(chunks.get(tok, ()))
        else:
            out.append(tok)
    return out
