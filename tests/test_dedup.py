import numpy as np
import pytest

from minit5.bpe import train_bpe
from minit5.dedup import (
    Paragraph,
    deduplicate_stream,
    read_paragraphs,
    shingle_set,
    write_paragraphs,
    write_stats,
)


def _words(k, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(k))


class TestShingles:
    def test_count_is_words_minus_n_plus_one(self):
        p = Paragraph("d", "a b c")
        assert len(shingle_set(p, 2)) == 2

    def test_short_paragraph_single_hash(self):
        p = Paragraph("d", "a")
        assert len(shingle_set(p, 10)) == 1

    def test_identical_paragraphs_identical_sets(self):
        a = Paragraph("d1", "the quick brown fox jumps")
        b = Paragraph("d2", "the quick brown fox jumps")
        assert shingle_set(a, 3) == shingle_set(b, 3)

    def test_deterministic_across_processes(self):
        # hash is pinned (blake2b), not Python's salted hash()
        p = Paragraph("d", "a b c")
        assert shingle_set(p, 2) == {
            int.from_bytes(__import__("hashlib").blake2b(s.encode(), digest_size=8).digest(), "big")
            for s in ("a b", "b c")
        }

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            shingle_set(Paragraph("d", "a b"), 0)


class TestDedup:
    def test_exact_duplicate_dropped(self):
        text = _words(20)
        kept, stats = deduplicate_stream([Paragraph("a", text), Paragraph("b", text)])
        assert [p.doc_id for p in kept] == ["a"]
        assert stats.kept == 1 and stats.dropped == 1

    def test_disjoint_paragraphs_kept(self):
        kept, stats = deduplicate_stream(
            [Paragraph("a", _words(15, "x")), Paragraph("b", _words(15, "y"))]
        )
        assert len(list(kept)) == 2
        assert stats.dropped == 0

    def test_forty_percent_overlap_survives(self):
        # P has 14 words -> five 10-grams; Q covers exactly P's first two.
        # Verified against a brute-force n-gram count below.
        n = 10
        p_words = [f"w{i}" for i in range(14)]
        q = Paragraph("q", " ".join(p_words[:11]))
        p = Paragraph("p", " ".join(p_words))

        def ngrams(words):
            return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}

        overlap = len(ngrams(p_words) & ngrams(p_words[:11])) / len(ngrams(p_words))
        assert overlap == pytest.approx(0.4)

        kept, stats = deduplicate_stream([q, p], n=n, threshold=0.5)
        assert [x.doc_id for x in kept] == ["q", "p"]
        assert stats.dropped == 0

    def test_majority_overlap_dropped(self):
        n = 10
        p_words = [f"w{i}" for i in range(14)]
        q = Paragraph("q", " ".join(p_words[:13]))  # 4 of P's 5 shingles
        p = Paragraph("p", " ".join(p_words))
        kept, _ = deduplicate_stream([q, p], n=n, threshold=0.5)
        assert [x.doc_id for x in kept] == ["q"]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        paras = []
        for i in range(30):
            words = rng.choice([f"t{j}" for j in range(40)], size=rng.integers(5, 25))
            paras.append(Paragraph(f"p{i}", " ".join(words)))
        paras += paras[:10]  # re-inject duplicates
        kept1, _ = deduplicate_stream(paras)
        out1 = list(kept1)
        kept2, stats2 = deduplicate_stream(out1)
        out2 = list(kept2)
        assert [p.doc_id for p in out2] == [p.doc_id for p in out1]
        assert stats2.dropped == 0

    def test_first_occurrence_survives(self):
        text = _words(12)
        kept, _ = deduplicate_stream(
            [Paragraph("first", text), Paragraph("second", text), Paragraph("third", text)]
        )
        assert [p.doc_id for p in kept] == ["first"]

    def test_stats_monotone(self):
        paras = [Paragraph("a", _words(20)), Paragraph("b", _words(20)), Paragraph("c", _words(8, "z"))]
        kept, stats = deduplicate_stream(paras)
        list(kept)
        assert stats.words_kept <= stats.words_in
        assert stats.kept + stats.dropped == 3

    def test_token_stats_with_vocab(self):
        corpus = "the cat sat on the mat " * 5
        vocab = train_bpe(corpus, vocab_size=3 + 12 + 4 + 4, sentinel_count=4)
        paras = [Paragraph("a", "the cat sat"), Paragraph("b", "the cat sat")]
        kept, stats = deduplicate_stream(paras, vocab=vocab)
        list(kept)
        assert stats.tokens_in is not None and stats.tokens_in > 0
        assert stats.tokens_kept == stats.tokens_in // 2


class TestStats:
    def test_word_count(self):
        kept, stats = deduplicate_stream([Paragraph("d", "a b c")])
        list(kept)
        assert (stats.words_in, stats.words_kept) == (3, 3)

    def test_empty_stream(self):
        kept, stats = deduplicate_stream([])
        assert list(kept) == []
        assert (stats.words_in, stats.words_kept, stats.tokens_in, stats.tokens_kept) == (0, 0, None, None)

    def test_thousandfold_duplication_collapses(self):
        sentence = "ta stavek se ponavlja brez konca in kraja deset besed"
        paras = [Paragraph(f"p{i}", sentence) for i in range(1000)]
        kept, stats = deduplicate_stream(paras)
        assert sum(p.word_count for p in kept) == stats.words_kept
        assert stats.words_in == 1000 * 10
        assert stats.words_kept == stats.words_in / 1000

    def test_render_table_mentions_after_dedup(self):
        kept, stats = deduplicate_stream([Paragraph("a", _words(12))])
        list(kept)
        table = stats.render_table()
        assert "Total after deduplication" in table


class TestFiles:
    def test_paragraph_file_round_trip(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("prvi odstavek\nse nadaljuje\n\ndrugi odstavek\n\n\ntretji\n", encoding="utf-8")
        paras = list(read_paragraphs(src))
        assert [p.text for p in paras] == ["prvi odstavek\nse nadaljuje", "drugi odstavek", "tretji"]
        out = tmp_path / "out.txt"
        write_paragraphs(paras, out)
        again = list(read_paragraphs(out))
        assert [p.text for p in again] == [p.text for p in paras]

    def test_stats_file_format(self, tmp_path):
        kept, stats = deduplicate_stream([Paragraph("a", _words(12))])
        list(kept)
        path = tmp_path / "stats.txt"
        write_stats(stats, path)
        lines = path.read_text().splitlines()
        assert "hash=blake2b64-v1" in lines
        assert "paragraphs_kept=1" in lines
        assert all("=" in line for line in lines)
