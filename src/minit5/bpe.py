"""Trainable byte-pair-encoding subword tokenizer with reserved sentinels.

Words are split on whitespace and represented as a word-start marker symbol
followed by the word's characters; merges never cross word boundaries, and
decoding turns markers back into spaces, so encode/decode round-trips any
single-spaced string over the training alphabet.

The top of the id space is a block of sentinel tokens (<extra_id_k>), id
V-1-k for sentinel k; they are reserved for denoising targets and never
produced by encoding natural text.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .fileio import atomic_write, open_text

PAD_TOKEN = "<pad>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
PAD_ID, EOS_ID, UNK_ID = 0, 1, 2  # fixed ids of the three tokens above
WORD_MARKER = "▁"  # visible word-start marker

VOCAB_FORMAT_VERSION = 1


class TokenizerError(ValueError):
    pass


def sentinel_token(k):
    return f"<extra_id_{k}>"


@dataclass
class Vocabulary:
    """Bidirectional token<->id map with a reserved sentinel block at the top."""

    id_to_token: list[str]
    merges: list[tuple[str, str]]
    sentinel_count: int
    pad_id, eos_id, unk_id = PAD_ID, EOS_ID, UNK_ID  # class attributes, not fields
    token_to_id: dict[str, int] = field(init=False, repr=False)
    _piece_ids: dict[str, int] = field(init=False, repr=False)
    _merge_rank: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token strings in vocabulary")
        if not 0 <= self.sentinel_count <= len(self) - 3:
            raise TokenizerError(f"sentinel_count {self.sentinel_count} out of range [0, {len(self) - 3}]")
        # encode only ever produces corpus pieces, never specials/sentinels
        self._piece_ids = {
            tok: i
            for i, tok in enumerate(self.id_to_token)
            if 3 <= i < len(self.id_to_token) - self.sentinel_count
        }
        self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self):
        return len(self.id_to_token)

    def sentinel_id(self, k):
        if not 0 <= k < self.sentinel_count:
            raise TokenizerError(f"sentinel index {k} out of range [0, {self.sentinel_count})")
        return len(self.id_to_token) - 1 - k

    def special_ids(self):
        """pad, EOS and all sentinel ids (the ones strip_specials removes)."""
        first_sentinel = len(self.id_to_token) - self.sentinel_count
        return {PAD_ID, EOS_ID} | set(range(first_sentinel, len(self.id_to_token)))


def _merge_word(symbols, pair):
    """Replace non-overlapping occurrences of pair, left to right."""
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(corpus, vocab_size, sentinel_count=100):
    """Train a BPE vocabulary of exactly vocab_size entries.

    corpus: a string or an iterable of strings, such as an open text file.
    Merges are chosen greedily by pair frequency; ties go to the
    lexicographically smallest pair, so training is deterministic. A pair
    whose concatenation is a special or sentinel token is never merged.

    The pair counts are kept up to date instead of being recounted for each
    merge (the bookkeeping of Sennrich et al., arXiv:1508.07909): the pairs
    are counted once, an index maps each pair to the words that hold it,
    and a heap of (-count, pair) yields the next merge, an entry whose
    count has changed since it was pushed being dropped when it surfaces.
    A merge re-segments only the words in its pair's index; each of them
    gives back its old pair counts and adds its new ones, times the word's
    frequency, so runs such as "aaaa" count exactly as a full recount would.
    """
    if isinstance(corpus, str):
        corpus = [corpus]
    word_freq = Counter()
    for text in corpus:
        word_freq.update(text.split())
    if not word_freq:
        raise TokenizerError("cannot train on an empty corpus")

    alphabet = sorted({WORD_MARKER} | {ch for w in word_freq for ch in w})
    base = 3 + len(alphabet)  # pad, eos, unk + seed symbols
    n_merges = vocab_size - base - sentinel_count
    if n_merges < 0:
        raise TokenizerError(
            f"vocab_size {vocab_size} too small: need at least "
            f"{base + sentinel_count} (specials + alphabet + sentinels)"
        )

    reserved = {PAD_TOKEN, EOS_TOKEN, UNK_TOKEN} | {sentinel_token(k) for k in range(sentinel_count)}
    words = [[WORD_MARKER, *w] for w in word_freq]
    freqs = list(word_freq.values())
    counts = Counter()
    where = defaultdict(set)  # pair -> indices of the words that hold it
    for i, syms in enumerate(words):
        for pair in zip(syms, syms[1:]):
            counts[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-c, pair) for pair, c in counts.items() if pair[0] + pair[1] not in reserved]
    heapq.heapify(heap)
    tokens = [PAD_TOKEN, EOS_TOKEN, UNK_TOKEN] + alphabet
    merges = []
    while len(merges) < n_merges:
        while heap and -heap[0][0] != counts[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            # tokens already holds specials + alphabet + the merges so far
            raise TokenizerError(
                f"corpus exhausted after {len(merges)} merges; "
                f"lower vocab_size to at most {len(tokens) + sentinel_count}"
            )
        best = heapq.heappop(heap)[1]
        merges.append(best)
        tokens.append(best[0] + best[1])
        delta = Counter()
        for i in where.pop(best):
            old, f = words[i], freqs[i]
            new = words[i] = _merge_word(old, best)
            old_pairs, new_pairs = set(zip(old, old[1:])), set(zip(new, new[1:]))
            for pair in zip(old, old[1:]):
                delta[pair] -= f
            for pair in zip(new, new[1:]):
                delta[pair] += f
            for pair in old_pairs - new_pairs - {best}:  # best's entry is already popped
                where[pair].discard(i)
            for pair in new_pairs - old_pairs:
                where[pair].add(i)
        for pair, d in delta.items():
            if d:
                counts[pair] += d
                if counts[pair] and pair[0] + pair[1] not in reserved:
                    heapq.heappush(heap, (-counts[pair], pair))

    tokens.extend(sentinel_token(k) for k in reversed(range(sentinel_count)))
    return Vocabulary(tokens, merges, sentinel_count)


def _segment_word(word, vocab):
    syms = [WORD_MARKER] + list(word)
    rank = vocab._merge_rank
    while len(syms) > 1:
        best = None
        for pair in zip(syms, syms[1:]):
            r = rank.get(pair)
            if r is not None and (best is None or r < best[0]):
                best = (r, pair)
        if best is None:
            break
        syms = _merge_word(syms, best[1])
    return syms


def encode(text, vocab, append_eos=False):
    """Text to token ids; symbols outside the vocabulary map to unk."""
    ids = []
    for word in text.split():
        for sym in _segment_word(word, vocab):
            ids.append(vocab._piece_ids.get(sym, UNK_ID))
    if append_eos:
        ids.append(EOS_ID)
    return ids


def decode(ids, vocab, strip_specials=False):
    """Token ids back to text, restoring word boundaries.

    With strip_specials, pad/EOS/sentinel tokens are removed first (the
    post-filtering applied to generated output).
    """
    size = len(vocab)
    specials = vocab.special_ids() if strip_specials else ()
    parts = []
    for i in ids:
        if not 0 <= i < size:
            raise TokenizerError(f"token id {i} out of range [0, {size})")
        if i in specials:
            continue
        parts.append(vocab.id_to_token[i])
    text = "".join(parts).replace(WORD_MARKER, " ")
    return text.removeprefix(" ")


def save_vocab(vocab, vocab_path):
    """Plain-text vocabulary file (header line, then one token per line in
    id order) and, beside it at `<vocab_path>.merges`, the merges file (one
    pair per line in application order). Each file is written atomically;
    the pair is not."""
    header = f"{VOCAB_FORMAT_VERSION},{len(vocab)},{vocab.sentinel_count},{PAD_ID},{EOS_ID},{UNK_ID}"
    with atomic_write(vocab_path) as f:
        f.write(header + "\n")
        for tok in vocab.id_to_token:
            f.write(tok + "\n")
    with atomic_write(str(vocab_path) + ".merges") as f:
        for a, b in vocab.merges:
            f.write(f"{a} {b}\n")


def load_vocab(vocab_path):
    """Load a vocabulary and the merges file beside it; the special ids must
    be the fixed ones and the merges must build the merged tokens."""
    merges_path = str(vocab_path) + ".merges"
    with open_text(vocab_path) as f:
        header = f.readline().rstrip("\n")
        try:
            version, size, sentinel_count, pad_id, eos_id, unk_id = map(int, header.split(","))
        except ValueError:
            raise TokenizerError(f"{vocab_path}: malformed header line {header!r}") from None
        if version != VOCAB_FORMAT_VERSION:
            raise TokenizerError(f"{vocab_path}: unsupported vocabulary version {version}")
        if (pad_id, eos_id, unk_id) != (PAD_ID, EOS_ID, UNK_ID):
            raise TokenizerError(f"{vocab_path}: special ids {pad_id},{eos_id},{unk_id} in the header, "
                                 f"expected {PAD_ID},{EOS_ID},{UNK_ID}")
        tokens = [line.rstrip("\n") for line in f]
    if len(tokens) != size:
        raise TokenizerError(f"{vocab_path}: header claims {size} tokens, file has {len(tokens)}")
    if tokens[:3] != [PAD_TOKEN, EOS_TOKEN, UNK_TOKEN]:
        raise TokenizerError(f"{vocab_path}: ids 0-2 must be {PAD_TOKEN}, {EOS_TOKEN}, {UNK_TOKEN}")
    merges = []
    with open_text(merges_path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            a, _, b = line.partition(" ")
            if not b:
                raise TokenizerError(f"{merges_path}: malformed merge line {line!r}")
            merges.append((a, b))
    vocab = Vocabulary(tokens, merges, sentinel_count)
    # single-symbol alphabet after the specials, then merge k's token at id first + k
    first = len(tokens) - sentinel_count - len(merges)
    if (first < 3 or any(len(t) != 1 for t in tokens[3:first])
            or any(a + b != tokens[first + k] for k, (a, b) in enumerate(merges))):
        raise TokenizerError(f"{merges_path} does not match {vocab_path}")
    return vocab
