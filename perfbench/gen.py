"""Seeded synthetic inputs: Slovene-like Zipfian word text.

Everything here is a pure function of its numpy Generator, so one seed
gives byte-identical inputs on every machine. The program under test only
ever sees the strings produced here.
"""

from __future__ import annotations

import numpy as np

# the most frequent Slovene function words open the lexicon, so the head
# of the Zipf curve looks like real text
_FUNCTION_WORDS = (
    "je in v na da se za so ki pa z ne tudi bi po od kot iz to ali pri ga bo "
    "že do še lahko le ker kaj smo ta sem si ni bil"
).split()
_ONSETS = ("", "b", "c", "č", "d", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "š", "t", "v", "z", "ž", "pr", "st", "kr", "sl", "dr", "gr", "tr", "zn", "sp", "pl")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "o")
_CODAS = ("", "", "", "", "n", "l", "r", "j", "m", "k", "t", "s", "v")

ZIPF_EXPONENT = 1.1
ZIPF_OFFSET = 2.7  # Zipf-Mandelbrot shift: flattens the very top ranks


class Lexicon:
    """`size` distinct words with Zipf-Mandelbrot sampling weights."""

    def __init__(self, rng, size):
        words = list(dict.fromkeys(_FUNCTION_WORDS))
        seen = set(words)
        while len(words) < size:
            syllables = int(rng.integers(1, 5))
            w = "".join(
                _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                + _CODAS[rng.integers(len(_CODAS))]
                for _ in range(syllables)
            )
            if len(w) > 1 and w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words[:size]
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = (ranks + ZIPF_OFFSET) ** -ZIPF_EXPONENT
        self.p = weights / weights.sum()

    def sample(self, rng, n):
        return [self.words[i] for i in rng.choice(len(self.words), size=n, p=self.p)]


def sentence(rng, lex, lo=6, hi=18):
    words = lex.sample(rng, int(rng.integers(lo, hi + 1)))
    for i in range(1, len(words) - 1):
        if rng.random() < 0.06:
            words[i] += ","
    words[-1] += "."
    return " ".join(words)


def paragraph(rng, lex, lo=3, hi=6):
    return " ".join(sentence(rng, lex) for _ in range(int(rng.integers(lo, hi + 1))))


def paragraphs(rng, lex, n):
    return [paragraph(rng, lex) for _ in range(n)]


def near_duplicate(rng, lex, text):
    """The same paragraph with one word replaced. With 10-word shingles a
    paragraph of typical length (about 50 words) keeps about four fifths of
    its shingles; the shortest ones may keep fewer than half."""
    words = text.split()
    i = int(rng.integers(len(words)))
    words[i] = lex.sample(rng, 1)[0] + ("." if words[i].endswith(".") else "")
    return " ".join(words)


def corpus_with_duplicates(rng, lex, n_unique, exact_share, near_share):
    """Paragraph texts with injected duplicates of earlier paragraphs.

    Returns (texts, exact, near): `exact` and `near` hold the positions of
    the injected exact and near duplicates. The shares are of the output
    length, and every copy comes after its original.
    """
    texts = paragraphs(rng, lex, n_unique)
    total = int(round(n_unique / (1.0 - exact_share - near_share)))
    n_exact = int(round(total * exact_share))
    n_near = total - n_unique - n_exact
    kinds = np.array([0] * n_unique + [1] * n_exact + [2] * n_near)
    # first slot is always an original; copies are shuffled among the rest
    order = np.concatenate([[0], 1 + rng.permutation(len(kinds) - 1)])
    kinds = np.concatenate([[0], kinds[1:]])[order]
    out, exact, near = [], [], []
    originals = iter(texts)
    for kind in kinds:
        if kind == 0:
            out.append(next(originals))
            continue
        src = out[int(rng.integers(len(out)))]
        if kind == 1:
            exact.append(len(out))
            out.append(src)
        else:
            near.append(len(out))
            out.append(near_duplicate(rng, lex, src))
    return out, exact, near


def boolq_rows(rng, lex, n):
    """BoolQ-style rows: passage and question; the label says whether the
    question's last word occurs in the passage."""
    rows = []
    for _ in range(n):
        passage = " ".join(sentence(rng, lex, 5, 9) for _ in range(2))
        question = " ".join(lex.sample(rng, int(rng.integers(3, 6))))
        if rng.random() < 0.5:
            question += " " + passage.split()[int(rng.integers(len(passage.split())))].strip(".,")
        key = question.split()[-1]
        label = "Pravilno." if key in passage.replace(".", "").replace(",", "").split() else "Napačno."
        rows.append((f"Sestavek: {passage} Vprašanje: {question}?", label))
    return rows


def summarization_rows(rng, lex, n, word_tokens, input_tokens):
    """Documents of at most `input_tokens` tokens, each paired with its
    first sentence as the summary. word_tokens(word) is the tokenizer's
    count for one word; subword tokenizers never merge across spaces, so a
    text's count is the sum over its words (plus one EOS)."""
    rows = []
    for _ in range(n):
        words = []
        used = 1
        while True:
            nxt = sentence(rng, lex).split()
            cost = sum(word_tokens(w) for w in nxt)
            if used + cost > input_tokens:
                for w in nxt:
                    used += word_tokens(w)
                    if used > input_tokens:
                        break
                    words.append(w)
                break
            words.extend(nxt)
            used += cost
        text = " ".join(words)
        rows.append((text, text.split(".")[0] + "."))
    return rows
