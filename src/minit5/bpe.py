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

from collections import Counter
from dataclasses import dataclass, field

from .fileio import atomic_write

PAD_TOKEN = "<pad>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
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
    pad_id: int = 0
    eos_id: int = 1
    unk_id: int = 2
    token_to_id: dict[str, int] = field(init=False, repr=False)
    _piece_ids: dict[str, int] = field(init=False, repr=False)
    _merge_rank: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token strings in vocabulary")
        # encode only ever produces corpus pieces, never specials/sentinels
        self._piece_ids = {
            tok: i
            for i, tok in enumerate(self.id_to_token)
            if 3 <= i < len(self.id_to_token) - self.sentinel_count
        }
        self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self):
        return len(self.id_to_token)

    @property
    def size(self):
        return len(self.id_to_token)

    def sentinel_id(self, k):
        if not 0 <= k < self.sentinel_count:
            raise TokenizerError(f"sentinel index {k} out of range [0, {self.sentinel_count})")
        return len(self.id_to_token) - 1 - k

    def special_ids(self):
        """pad, EOS and all sentinel ids (the ones strip_specials removes)."""
        first_sentinel = len(self.id_to_token) - self.sentinel_count
        return {self.pad_id, self.eos_id} | set(range(first_sentinel, len(self.id_to_token)))


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

    corpus: a string or an iterable of strings. Merges are chosen greedily
    by pair frequency; ties go to the lexicographically smallest pair, so
    training is deterministic.
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
    words = [([WORD_MARKER] + list(w), f) for w, f in word_freq.items()]
    tokens = [PAD_TOKEN, EOS_TOKEN, UNK_TOKEN] + alphabet
    merges = []
    for _ in range(n_merges):
        pairs = Counter()
        for syms, f in words:
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += f
        candidates = [(pair, c) for pair, c in pairs.items() if pair[0] + pair[1] not in reserved]
        if not candidates:
            # tokens already holds specials + alphabet + the merges so far
            raise TokenizerError(
                f"corpus exhausted after {len(merges)} merges; "
                f"lower vocab_size to at most {len(tokens) + sentinel_count}"
            )
        best = min(candidates, key=lambda item: (-item[1], item[0]))[0]
        merges.append(best)
        tokens.append(best[0] + best[1])
        words = [(_merge_word(syms, best), f) for syms, f in words]

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
            ids.append(vocab._piece_ids.get(sym, vocab.unk_id))
    if append_eos:
        ids.append(vocab.eos_id)
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


def save_vocab(vocab, vocab_path, merges_path=None):
    """Plain-text vocabulary file (header line, then one token per line in
    id order) and a merges file (one pair per line in application order).
    Each file is written atomically; the pair is not."""
    if merges_path is None:
        merges_path = str(vocab_path) + ".merges"
    header = (
        f"{VOCAB_FORMAT_VERSION},{len(vocab)},{vocab.sentinel_count},"
        f"{vocab.pad_id},{vocab.eos_id},{vocab.unk_id}"
    )
    with atomic_write(vocab_path) as f:
        f.write(header + "\n")
        for tok in vocab.id_to_token:
            f.write(tok + "\n")
    with atomic_write(merges_path) as f:
        for a, b in vocab.merges:
            f.write(f"{a} {b}\n")


def load_vocab(vocab_path, merges_path=None):
    if merges_path is None:
        merges_path = str(vocab_path) + ".merges"
    with open(vocab_path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        try:
            version, size, sentinel_count, pad_id, eos_id, unk_id = map(int, header.split(","))
        except ValueError:
            raise TokenizerError(f"{vocab_path}: malformed header line {header!r}") from None
        if version != VOCAB_FORMAT_VERSION:
            raise TokenizerError(f"{vocab_path}: unsupported vocabulary version {version}")
        tokens = [line.rstrip("\n") for line in f]
    if len(tokens) != size:
        raise TokenizerError(f"{vocab_path}: header claims {size} tokens, file has {len(tokens)}")
    merges = []
    with open(merges_path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            a, _, b = line.partition(" ")
            if not b:
                raise TokenizerError(f"{merges_path}: malformed merge line {line!r}")
            merges.append((a, b))
    return Vocabulary(tokens, merges, sentinel_count, pad_id=pad_id, eos_id=eos_id, unk_id=unk_id)
