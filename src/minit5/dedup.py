"""Streaming paragraph-level near-duplicate removal and corpus statistics.

A paragraph is fingerprinted by the 64-bit hashes of its consecutive word
n-grams (shingles); it is dropped when more than `threshold` of its
shingles were already seen, and only kept paragraphs feed the index, so
the first occurrence always survives and a second pass over the output
drops nothing.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from . import bpe
from .fileio import atomic_write, atomic_write_text, open_text

# pinned and recorded in every stats file so runs stay comparable
HASH_VERSION = "blake2b64-v1"


@dataclass
class Paragraph:
    doc_id: str
    text: str
    word_count: int = -1

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("paragraph text is empty")
        if self.word_count < 0:
            self.word_count = len(self.text.split())


def _hash64(s):
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def shingle_set(paragraph, n):
    """Hashes of all consecutive word n-grams; paragraphs shorter than n
    words contribute a single whole-paragraph hash."""
    if n < 1:
        raise ValueError(f"shingle order must be >= 1, got {n}")
    words = paragraph.text.split()
    if len(words) < n:
        return {_hash64(" ".join(words))}
    return {_hash64(" ".join(words[i : i + n])) for i in range(len(words) - n + 1)}


@dataclass
class DedupStats:
    ngram: int
    threshold: float
    kept: int = 0
    dropped: int = 0
    words_in: int = 0
    words_kept: int = 0
    tokens_in: int | None = None
    tokens_kept: int | None = None
    hash_version: str = HASH_VERSION

    def to_lines(self):
        lines = [
            f"hash={self.hash_version}",
            f"ngram={self.ngram}",
            f"threshold={self.threshold}",
            f"paragraphs_in={self.kept + self.dropped}",
            f"paragraphs_kept={self.kept}",
            f"paragraphs_dropped={self.dropped}",
            f"words_in={self.words_in}",
            f"words_kept={self.words_kept}",
        ]
        if self.tokens_in is not None:
            lines.append(f"tokens_in={self.tokens_in}")
            lines.append(f"tokens_kept={self.tokens_kept}")
        return lines

    def render_table(self):
        """Corpus-size summary, before and after the pass."""
        rows = [("", "Paragraphs", "Words", "Tokens")]
        tok_in = "-" if self.tokens_in is None else str(self.tokens_in)
        tok_kept = "-" if self.tokens_kept is None else str(self.tokens_kept)
        rows.append(("Total", str(self.kept + self.dropped), str(self.words_in), tok_in))
        rows.append(("Total after deduplication", str(self.kept), str(self.words_kept), tok_kept))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
        )


def deduplicate_stream(paragraphs, n=10, threshold=0.5, vocab=None):
    """Single-pass dedup. Returns (kept-paragraph generator, stats).

    Stats fill in as the generator is consumed. Admission is serialized in
    stream order: a paragraph is dropped iff strictly more than `threshold`
    of its shingles are already indexed; kept paragraphs add theirs.
    """
    stats = DedupStats(ngram=n, threshold=threshold)
    if vocab is not None:
        stats.tokens_in = 0
        stats.tokens_kept = 0
    seen = set()

    def kept():
        for p in paragraphs:
            shingles = shingle_set(p, n)
            overlap = len(shingles & seen) / len(shingles)
            tokens = len(bpe.encode(p.text, vocab)) if vocab is not None else 0
            stats.words_in += p.word_count
            if vocab is not None:
                stats.tokens_in += tokens
            if overlap > threshold:
                stats.dropped += 1
                continue
            seen.update(shingles)
            stats.kept += 1
            stats.words_kept += p.word_count
            if vocab is not None:
                stats.tokens_kept += tokens
            yield p

    return kept(), stats


def corpus_stats(paragraphs, vocab=None):
    """Word count by whitespace split; token count when a vocabulary is given."""
    words = 0
    tokens = 0 if vocab is not None else None
    for p in paragraphs:
        words += p.word_count
        if vocab is not None:
            tokens += len(bpe.encode(p.text, vocab))
    return {"words": words, "tokens": tokens}


def read_paragraphs(path, doc_id=None):
    """Paragraphs from a UTF-8 text file, separated by blank lines."""
    doc = doc_id if doc_id is not None else os.path.basename(str(path))
    with open_text(path) as f:
        buf = []
        idx = 0
        for line in f:
            if line.strip():
                buf.append(line.strip("\n"))
            elif buf:
                yield Paragraph(f"{doc}:{idx}", "\n".join(buf).strip())
                idx += 1
                buf = []
        if buf:
            yield Paragraph(f"{doc}:{idx}", "\n".join(buf).strip())


def write_paragraphs(paragraphs, path):
    """Blank-line separated paragraphs, streamed into an atomic write."""
    with atomic_write(path) as f:
        for i, p in enumerate(paragraphs):
            if i:
                f.write("\n")
            f.write(p.text.rstrip("\n") + "\n")


def write_stats(stats, path):
    atomic_write_text(path, "".join(line + "\n" for line in stats.to_lines()))
